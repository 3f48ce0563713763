"""The trace CSV writer and reader against their row-by-row references."""

import dataclasses
import json
import math
import random
import re
from pathlib import Path

import pytest

from afmsim.config import load_config, run_config
from afmsim.engine import FatalEvent, Trace
from afmsim.scenarios import random_scenario, triangle3
from afmsim.traceio import TraceError, fmt_num, read_trace, write_trace

REPO = Path(__file__).resolve().parent.parent
BUNDLED = REPO / "scenarios" / "triangle3.json"
CSV_FILES = ("nodes.csv", "buffers.csv", "events.csv")


def reference_write(trace: Trace, out: Path) -> None:
    """The CSV files written one row at a time, each joined into one string."""
    out.mkdir(parents=True, exist_ok=True)
    nodes = sorted(trace.theta)
    lines = ["t,node,theta,omega"]
    for idx, t in enumerate(trace.grid):
        ts = fmt_num(t)
        for i in nodes:
            lines.append(f"{ts},{i},{fmt_num(trace.theta[i][idx])},{fmt_num(trace.omega[i][idx])}")
    (out / "nodes.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    links = sorted(trace.beta)
    lines = ["t,src,dst,beta,gamma"]
    for idx, t in enumerate(trace.grid):
        ts = fmt_num(t)
        for (a, b) in links:
            lines.append(f"{ts},{a},{b},{trace.beta[(a, b)][idx]},{trace.gamma[(a, b)][idx]}")
    (out / "buffers.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["t,kind,link,value"]
    for ev in trace.fatal_events:
        lines.append(f"{fmt_num(ev.t)},{ev.kind},{ev.link[0]}->{ev.link[1]},{ev.occupancy}")
    (out / "events.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_read(trace_dir: Path):
    """The series read one row at a time, grouped by key as the rows come."""
    theta, omega, grid, last_t = {}, {}, [], None
    for line in (trace_dir / "nodes.csv").read_text(encoding="utf-8").splitlines()[1:]:
        ts, node_s, th, om = line.split(",")
        t = float(ts)
        if t != last_t:
            grid.append(t)
            last_t = t
        i = int(node_s)
        theta.setdefault(i, []).append(float(th))
        omega.setdefault(i, []).append(float(om))
    beta, gamma = {}, {}
    for line in (trace_dir / "buffers.csv").read_text(encoding="utf-8").splitlines()[1:]:
        _, a_s, b_s, b_occ, g_occ = line.split(",")
        key = (int(a_s), int(b_s))
        beta.setdefault(key, []).append(int(b_occ))
        gamma.setdefault(key, []).append(int(g_occ))
    events = []
    for line in (trace_dir / "events.csv").read_text(encoding="utf-8").splitlines()[1:]:
        ts, kind, link_s, value = line.split(",")
        src, dst = link_s.split("->")
        events.append(FatalEvent(kind, (int(src), int(dst)), float(ts), int(value)))
    return grid, theta, omega, beta, gamma, events


def _exact(value):
    """``value`` with the type of every part, and floats by their bits, so that
    ``==`` tells 1 from 1.0 and 0.0 from -0.0."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(map(_exact, value)))
    if isinstance(value, dict):
        return {_exact(k): _exact(v) for k, v in value.items()}
    return (type(value).__name__, value)


def _bundled(edit_topology):
    cfg = json.loads(BUNDLED.read_text())
    edit_topology(cfg["topology"])
    return load_config(json.dumps(cfg))


def _geared(topo):
    # the edits of test_geared_run_output_digests_pinned: link 3->1 overflows at t=24
    topo["buffer_capacity"] = 80
    e12, e13, _ = topo["edges"]
    e12["gearbox_ab"] = e12["gearbox_ba"] = [3, 2]
    e13["gearbox_ab"] = [1, 2]
    e13["gearbox_ba"] = [2, 1]


def _capped(topo):
    # underflows and overflows, as in test_fatal_events_digests_pinned
    topo["buffer_capacity"] = 6
    for edge in topo["edges"]:
        edge["beta0_ab"] = edge["beta0_ba"] = 2


_SINGLE_NODE = {
    "topology": {"n_nodes": 1, "edges": []},
    "params": {
        "p": 10, "d": 2, "omega_min": 0.1, "epoch": -25.0, "theta0": 0.5, "omega_u": 1.0,
    },
    "controller": {"kind": "zero"},
}

TRACES = {
    "triangle3": lambda: run_config(triangle3(), t_max=200.0),
    "geared_overflow": lambda: run_config(_bundled(_geared), t_max=200.0),
    "fatal_events": lambda: run_config(_bundled(_capped), t_max=60.0),
    "random_64_nodes": lambda: run_config(
        random_scenario(random.Random(7), n_nodes=64), t_max=10.0
    ),
    "single_node": lambda: run_config(load_config(json.dumps(_SINGLE_NODE)), t_max=5.0),
}


@pytest.fixture(scope="module", params=sorted(TRACES))
def written(request, tmp_path_factory):
    trace = TRACES[request.param]()
    out = tmp_path_factory.mktemp(request.param)
    write_trace(trace, out / "trace")
    reference_write(trace, out / "reference")
    return request.param, trace, out


def test_write_trace_equals_reference_bytes(written):
    name, trace, out = written
    for file in CSV_FILES:
        assert (out / "trace" / file).read_bytes() == (out / "reference" / file).read_bytes(), file
    if name == "fatal_events":
        assert len(trace.fatal_events) > 1
    if name == "single_node":
        assert (out / "trace" / "buffers.csv").read_text() == "t,src,dst,beta,gamma\n"


def hand_trace(short=None):
    """A two-node trace built by hand, with the floats and ints that are hard to
    print; ``short`` names a series ("theta" or "beta") made one entry short."""
    floats = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.1 + 0.2, -1 / 3]
    ints = [-7, 0, 2**63, 2**64 + 1, -(2**70), 42, 1, 0]
    series = {
        "theta": {1: floats, 2: floats[::-1]},
        "omega": {1: floats[::-1], 2: floats},
        "beta": {(1, 2): ints, (2, 1): ints[::-1]},
        "gamma": {(1, 2): ints[::-1], (2, 1): ints},
    }
    if short is not None:
        key = 2 if short == "theta" else (2, 1)
        series[short][key] = series[short][key][:-1]
    grid = [0.1 * k for k in range(len(floats))]
    return Trace(knots={}, samples=[], grid=grid, fatal_events=[], **series)


def test_write_trace_prints_hard_values_as_the_reference(tmp_path):
    trace = hand_trace()
    write_trace(trace, tmp_path / "trace")
    reference_write(trace, tmp_path / "reference")
    for file in CSV_FILES:
        written, reference = tmp_path / "trace" / file, tmp_path / "reference" / file
        assert written.read_bytes() == reference.read_bytes(), file
    assert "nan" in (tmp_path / "trace" / "nodes.csv").read_text()


@pytest.mark.parametrize("short, table", [("theta", "nodes.csv"), ("beta", "buffers.csv")])
def test_write_trace_leaves_no_table_with_a_short_series(tmp_path, short, table):
    with pytest.raises(ValueError):
        write_trace(hand_trace(short), tmp_path)
    assert not (tmp_path / table).exists()


def test_failed_write_leaves_the_older_trace_whole(tmp_path):
    # A trace with every theta shifted by 1 and the beta series of link
    # (1, 2) one entry short, written over a whole trace, raises for
    # buffers.csv; the directory must still hold the first trace, not its
    # buffers under the new theta.
    trace = run_config(triangle3(t_max=20.0))
    write_trace(trace, tmp_path)
    files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    first = read_trace(tmp_path)
    broken = dataclasses.replace(
        trace,
        theta={i: [x + 1.0 for x in th] for i, th in trace.theta.items()},
        beta={**trace.beta, (1, 2): trace.beta[(1, 2)][:-1]},
    )
    with pytest.raises(ValueError, match="buffers.csv"):
        write_trace(broken, tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files
    assert read_trace(tmp_path).theta == first.theta


def test_read_trace_equals_reference_values(written):
    name, _, out = written
    back = read_trace(out / "trace")
    grid, theta, omega, beta, gamma, events = reference_read(out / "trace")
    assert _exact(back.grid) == _exact(grid)
    assert _exact(back.theta) == _exact(theta)
    assert _exact(back.omega) == _exact(omega)
    assert _exact(back.beta) == _exact(beta)
    assert _exact(back.gamma) == _exact(gamma)
    assert _exact([vars(e) for e in back.fatal_events]) == _exact([vars(e) for e in events])
    if name == "single_node":
        assert back.beta == back.gamma == {}
    else:
        assert back.beta


_BAD_BETA = ("2.5", "x", "1e3", "nan", "--1", "0x10", "seven")


def _with_beta(line, text):
    t, a, b, _, gamma = line.split(",")
    return f"{t},{a},{b},{text},{gamma}"


# Each: the file, its lines (the header is line 0) as damaged, and the reason
# read_trace gives. The triangle3 trace has 401 blocks, in more than one chunk.
LAYOUT_ERRORS = {
    "keys_out_of_order": (
        "nodes.csv", lambda lines: [lines[0], lines[2], lines[1], *lines[3:]], "keys out of order"
    ),
    "last_block_swapped": (
        "nodes.csv", lambda lines: [*lines[:-2], lines[-1], lines[-2]], "a block's keys differ"
    ),
    "t_differs_in_block": (
        "buffers.csv", lambda lines: [*lines[:-1], "7" + lines[-1]], "t differs within a block"
    ),
    "blocks_swapped": (
        "nodes.csv", lambda lines: [*lines[:-6], *lines[-3:], *lines[-6:-3]], "blocks out of order"
    ),
    "block_missing": ("buffers.csv", lambda lines: lines[:-6], "400 blocks for 401"),
    "block_time_not_finite": (
        "buffers.csv",
        lambda lines: [*lines[:-6], *("1e999" + line[line.index(",") :] for line in lines[-6:])],
        "a block time is not finite",
    ),
    # a different non-integer beta on link 1->2 every 20 blocks, all in the
    # first chunk: the first in row order is named, whatever the hash order
    "beta_not_an_integer": (
        "buffers.csv",
        lambda lines: [
            _with_beta(line, _BAD_BETA[k // 120]) if k % 120 == 61 and k < 840 else line
            for k, line in enumerate(lines)
        ],
        "invalid literal for int() with base 10: '2.5'",
    ),
    # the theta of the last row
    "theta_not_finite": (
        "nodes.csv",
        lambda lines: [*lines[:-1], "{},1e999,{}".format(*lines[-1].rsplit(",", 2)[::2])],
        "a theta or omega value is not finite",
    ),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_ERRORS))
def test_read_trace_rejects_layout(tmp_path, case):
    name, damage, reason = LAYOUT_ERRORS[case]
    write_trace(TRACES["triangle3"](), tmp_path)
    lines = (tmp_path / name).read_text().splitlines(keepends=True)
    (tmp_path / name).write_text("".join(damage(lines)))
    with pytest.raises(TraceError, match="^" + re.escape(f"{tmp_path / name}: {reason}")):
        read_trace(tmp_path)
