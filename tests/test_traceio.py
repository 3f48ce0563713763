"""The trace CSV writer and reader against their row-by-row references."""

import dataclasses
import json
import math
import random
import re
import struct
from itertools import chain, islice, repeat
from pathlib import Path

import pytest

from afmsim import traceio
from afmsim.config import load_config, run_config
from afmsim.engine import FatalEvent, Trace
from afmsim.scenarios import random_scenario, triangle3
from afmsim.traceio import TraceError, fmt_num, read_trace, summarize, write_trace

REPO = Path(__file__).resolve().parent.parent
BUNDLED = REPO / "scenarios" / "triangle3.json"
CSV_FILES = ("nodes.csv", "buffers.csv", "events.csv")


def num(x: float) -> str:
    """A float as the trace files print it: 12 significant digits."""
    return format(x, ".12g")


def reference_write(trace: Trace, out: Path) -> None:
    """The CSV files written one row at a time, each joined into one string."""
    out.mkdir(parents=True, exist_ok=True)
    nodes = sorted(trace.theta)
    lines = ["t,node,theta,omega"]
    for idx, t in enumerate(trace.grid):
        ts = num(t)
        for i in nodes:
            lines.append(f"{ts},{i},{num(trace.theta[i][idx])},{num(trace.omega[i][idx])}")
    (out / "nodes.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    links = sorted(trace.beta)
    lines = ["t,src,dst,beta,gamma"]
    for idx, t in enumerate(trace.grid):
        ts = num(t)
        for (a, b) in links:
            lines.append(f"{ts},{a},{b},{trace.beta[(a, b)][idx]},{trace.gamma[(a, b)][idx]}")
    (out / "buffers.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["t,kind,link,value"]
    for ev in trace.fatal_events:
        lines.append(f"{num(ev.t)},{ev.kind},{ev.link[0]}->{ev.link[1]},{ev.occupancy}")
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


def test_fmt_num_is_the_format_spec_on_hard_values():
    # ``fmt_num`` is the ``%`` template of the tables; both must print what
    # the format spec prints, on the edge cases and on random bit patterns.
    hard = [
        -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e16, 0.1 + 0.2, 2.0**63,
        1e-5, 1e-4, 999999999999.5, 123456789012.5, 1.7976931348623157e308,
    ]
    rng = random.Random(12)
    bits = [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(5000)]
    for x in hard + bits:
        assert fmt_num(x) == num(x), x


def test_omega_is_formatted_per_object_not_per_value(tmp_path):
    # Runs of one object next to equal values of other objects: 0.0 then
    # -0.0, and NaNs that are one object or two.
    zero, nan = -0.0, float("nan")
    omega = [0.0, zero, zero, 0.0, nan, nan, float("nan"), 1e16]
    trace = dataclasses.replace(hand_trace(), omega={1: omega, 2: omega[::-1]})
    write_trace(trace, tmp_path / "trace")
    reference_write(trace, tmp_path / "reference")
    nodes = (tmp_path / "trace" / "nodes.csv").read_bytes()
    assert nodes == (tmp_path / "reference" / "nodes.csv").read_bytes()
    assert b",-0\n" in nodes and b",0\n" in nodes


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


@pytest.mark.parametrize("column", ["theta", "omega"])
def test_value_that_does_not_format_leaves_the_older_trace_whole(tmp_path, column):
    # Both are formatted while nodes.csv streams out, after buffers.csv and
    # the other texts have been checked: the older trace must stay, and no
    # temporary file may.
    trace = run_config(triangle3(t_max=20.0))
    write_trace(trace, tmp_path)
    files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    series = getattr(trace, column)
    broken = dataclasses.replace(trace, **{column: {**series, 3: [*series[3][:-1], "x"]}})
    with pytest.raises(TypeError):
        write_trace(broken, tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files


def test_pair_deviation_is_the_largest_change_of_the_sum():
    # The sums of edge 1--2 go 10, 11, 12, 7, 11: furthest below the start.
    # Those of edge 1--3 go 4, 2, 9, 6, 3: furthest above it. Edge 2--3 has
    # only one direction, and the hand trace's sums reach past 2**64.
    beta = {
        (1, 2): [5, 3, 8, 1, 6],
        (2, 1): [5, 8, 4, 6, 5],
        (1, 3): [4, 0, 5, 6, 0],
        (3, 1): [0, 2, 4, 0, 3],
        (2, 3): [1, 1, 1, 1, 1],
    }
    nodes = {i: [1.0] * 5 for i in (1, 2, 3)}
    grid = [0.0, 1.0, 2.0, 3.0, 4.0]
    trace = Trace(
        knots={}, samples=[], grid=grid, theta=nodes, omega=nodes, beta=beta, gamma=beta,
        fatal_events=[],
    )
    assert summarize(trace).pair_max_sum_deviation == {(1, 2): 3, (1, 3): 5}
    for case in (trace, hand_trace()):
        want = {}
        for (a, b), fwd in sorted(case.beta.items()):
            if a < b and (b, a) in case.beta:
                rev = case.beta[(b, a)]
                want[(a, b)] = max(abs(f + r - (fwd[0] + rev[0])) for f, r in zip(fwd, rev))
        assert summarize(case).pair_max_sum_deviation == want


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
_BAD_OMEGA = ("1.2.3", "x", "1e", "--1", "0x10", "seven", "e5")


def _with_beta(line, text):
    t, a, b, _, gamma = line.split(",")
    return f"{t},{a},{b},{text},{gamma}"


def _with_omega(line, text):
    return f"{line.rpartition(',')[0]},{text}\n"


def _relinked(lines, old, new):
    """``buffers.csv`` lines with link ``old`` renamed ``new`` on every row,
    each given as "src,dst"."""
    out = []
    for line in lines:
        t, src, dst, rest = line.split(",", 3)
        out.append(f"{t},{new},{rest}" if f"{src},{dst}" == old else line)
    return out


def _unlinked(lines, link):
    """``buffers.csv`` lines without the rows of ``link``, given as "src,dst"."""
    return [line for line in lines if ",".join(line.split(",")[1:3]) != link]


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
    # the same on link 1->2 every 10 blocks of the third chunk (lines 1699
    # on), after the first two chunks have filled the table's memo
    "beta_not_an_integer_in_third_chunk": (
        "buffers.csv",
        lambda lines: [
            _with_beta(line, _BAD_BETA[(k - 2101) // 60]) if k >= 2101 and k % 60 == 1 else line
            for k, line in enumerate(lines)
        ],
        "invalid literal for int() with base 10: '2.5'",
    ),
    # a different non-number omega on node 1 every 20 blocks, all in the
    # first chunk (lines 1 to 480): the first in row order is named, with
    # the "\n" that ends its row
    "omega_not_a_number": (
        "nodes.csv",
        lambda lines: [
            _with_omega(line, _BAD_OMEGA[k // 60]) if k % 60 == 31 and k < 420 else line
            for k, line in enumerate(lines)
        ],
        "could not convert string to float: '1.2.3\\n'",
    ),
    # the same every 10 blocks of the third chunk (lines 934 on), after the
    # first two chunks have filled the table's omega memo
    "omega_not_a_number_in_third_chunk": (
        "nodes.csv",
        lambda lines: [
            _with_omega(line, _BAD_OMEGA[(k - 994) // 30]) if k >= 994 and k % 30 == 4 else line
            for k, line in enumerate(lines)
        ],
        "could not convert string to float: '1.2.3\\n'",
    ),
    # one bad text on every node 1 row of the first 20 blocks, then another
    "omega_not_a_number_repeated": (
        "nodes.csv",
        lambda lines: [
            _with_omega(line, "x" if k < 60 else "seven") if k % 3 == 1 and k < 120 else line
            for k, line in enumerate(lines)
        ],
        "could not convert string to float: 'x\\n'",
    ),
    "short_row": (
        "nodes.csv", lambda lines: [*lines[:50], lines[50].partition(",")[2], *lines[51:]],
        "a row without exactly 4 fields",
    ),
    "long_row": (
        "buffers.csv", lambda lines: [*lines[:50], "1," + lines[50], *lines[51:]],
        "a row without exactly 5 fields",
    ),
    # gamma moved from row 50 to the end of row 51: the chunk still has
    # 5 fields per row on average
    "short_row_then_long_row": (
        "buffers.csv",
        lambda lines: [
            *lines[:50],
            lines[50].rpartition(",")[0] + "\n",
            lines[51][:-1] + "," + lines[50].rpartition(",")[2],
            *lines[52:],
        ],
        "a row without exactly 5 fields",
    ),
    "empty_middle_line": (
        "nodes.csv", lambda lines: [*lines[:600], "\n", *lines[600:]],
        "a row without exactly 4 fields",
    ),
    # a first row with no "," is still the first block, of one row
    "first_row_blank": (
        "nodes.csv", lambda lines: [lines[0], "\n", *lines[2:]], "a row without exactly 4 fields"
    ),
    "first_row_without_comma": (
        "nodes.csv", lambda lines: [lines[0], "0\n", *lines[2:]], "a row without exactly 4 fields"
    ),
    "cut_after_first_field": (
        "nodes.csv", lambda lines: [lines[0], "0"], "a row without exactly 4 fields"
    ),
    "final_row_dropped": (
        "buffers.csv", lambda lines: lines[:-1], "the rows do not fill blocks of 6 rows"
    ),
    # links that no run writes: one to a node nodes.csv does not have, and a
    # self-link; each keeps the keys of every block in order
    "link_to_unknown_node": (
        "buffers.csv", lambda lines: _relinked(lines, "3,2", "3,9"),
        "link 3,9 does not join two distinct nodes of nodes.csv",
    ),
    "self_link": (
        "buffers.csv", lambda lines: _relinked(lines, "1,2", "1,1"),
        "link 1,1 does not join two distinct nodes of nodes.csv",
    ),
    # every row of link 3->2 dropped; each block keeps its keys in order
    "link_without_reverse": (
        "buffers.csv", lambda lines: _unlinked(lines, "3,2"), "link 2,3 has no reverse link 3,2"
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
    assert len(lines) == {"nodes.csv": 1204, "buffers.csv": 2407}[name]
    (tmp_path / name).write_text("".join(damage(lines)))
    with pytest.raises(TraceError, match="^" + re.escape(f"{tmp_path / name}: {reason}")):
        read_trace(tmp_path)


# Line endings read_trace accepts: each edit leaves every value as it was.
LINE_ENDINGS = {
    "no_final_newline": lambda text: text[:-1],
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
}


@pytest.mark.parametrize("case", sorted(LINE_ENDINGS))
def test_read_trace_accepts_line_endings(tmp_path, case):
    write_trace(TRACES["triangle3"](), tmp_path)
    original = read_trace(tmp_path)
    for name in CSV_FILES:
        data = (tmp_path / name).read_bytes().decode()
        (tmp_path / name).write_bytes(LINE_ENDINGS[case](data).encode())
    back = read_trace(tmp_path)
    for field in ("grid", "theta", "omega", "beta", "gamma", "fatal_events"):
        assert _exact(getattr(back, field)) == _exact(getattr(original, field)), field


def test_read_trace_is_the_same_at_every_chunk_size(tmp_path, monkeypatch):
    # Rows of many lengths, read a chunk of text at a time: at some sizes a
    # read ends exactly after a block, with no part of a block left over, and
    # at some it holds less than one block. Each must read every row.
    write_trace(run_config(triangle3(t_max=60.0)), tmp_path)
    want = _exact(list(reference_read(tmp_path)[:5]))
    for rows in range(1, 100):
        monkeypatch.setattr(traceio, "_CHUNK_ROWS", rows)
        back = read_trace(tmp_path)
        assert _exact([back.grid, back.theta, back.omega, back.beta, back.gamma]) == want, rows


def chunked_reference(path, grid=None):
    """The chunked table reader that checks each row's field count with
    ``str.count`` and parses the occupancies of each column slice with a
    memo of its own; values converted as ``read_trace`` converts them."""
    header = traceio._HEADERS[path.name]
    width = header.count(",") + 1
    n_key = width - 3

    def convert(texts):
        if path.name == "nodes.csv":
            return map(float, texts)
        memo = {text: int(text) for text in dict.fromkeys(texts)}
        return map(memo.__getitem__, texts)

    t = [] if grid is None else grid
    with open(path, encoding="utf-8") as f:
        if f.readline() != header + "\n":
            raise ValueError(f"the header is not {header!r}")
        block = f.readline()
        if not block:
            return t, {}
        t0 = block.partition(",")[0] + ","
        block = [block]
        rows = iter(f)
        for line in rows:
            if not line.startswith(t0):
                rows = chain([line], rows)
                break
            block.append(line)
        size = len(block)
        key_text = [line.split(",")[1 : 1 + n_key] for line in block]
        keys = [tuple(map(int, text)) for text in key_text]
        if keys != sorted(set(keys)):
            raise ValueError("keys out of order in the first block")
        rows = chain(block, rows)
        del block

        series = {key: ([], []) for key in keys}
        stride = size * width
        step = size * max(1, traceio._CHUNK_ROWS // size)
        done = 0
        while chunk := list(islice(rows, step)):
            if set(map(str.count, chunk, repeat(","))) != {width - 1}:
                raise ValueError(f"a row without exactly {width} fields")
            if len(chunk) % size:
                raise ValueError(f"the rows do not fill blocks of {size} rows")
            fields = ",".join(chunk).split(",")
            ts = fields[::stride]
            for j, key in enumerate(keys):
                at = j * width
                if fields[at::stride] != ts:
                    raise ValueError("t differs within a block")
                for c, text in enumerate(key_text[j], at + 1):
                    if fields[c::stride].count(text) != len(ts):
                        raise ValueError("a block's keys differ from the first block's")
                first, second = series[key]
                first.extend(convert(fields[at + n_key + 1 :: stride]))
                second.extend(convert(fields[at + n_key + 2 :: stride]))
            blocks = list(map(float, ts))
            if not all(map(math.isfinite, blocks)):
                raise ValueError("a block time is not finite")
            if grid is None:
                t += blocks
            elif blocks != grid[done : done + len(blocks)]:
                raise ValueError("t differs from the nodes.csv grid")
            done += len(blocks)
    if done != len(t):
        raise ValueError(f"{done} blocks for {len(t)} points in the nodes.csv grid")
    if t != sorted(t):
        raise ValueError("blocks out of order in t")
    return t, series


def _mutate(rng, data):
    """``data`` with one edit after the header: a ``,``, ``\\n``, ``\\r`` or
    digit inserted or deleted, or a row's last field moved to the end of the
    next row, so that one row is short and the next long."""
    start = data.index("\n") + 1
    kind = rng.randrange(3)
    if kind == 0:
        at = rng.randrange(start, len(data) + 1)
        return data[:at] + rng.choice(",\n\r0123456789") + data[at:]
    if kind == 1:
        at = rng.choice([k for k in range(start, len(data)) if data[k] in ",\n\r0123456789"])
        return data[:at] + data[at + 1 :]
    lines = data.splitlines(keepends=True)
    k = rng.randrange(1, len(lines) - 1)
    head, _, last = lines[k].rpartition(",")
    lines[k : k + 2] = [head + "\n", lines[k + 1][:-1] + "," + last]
    return "".join(lines)


def _outcome(trace_dir):
    try:
        back = read_trace(trace_dir)
    except TraceError as exc:
        return ("error", str(exc))
    return ("read", _exact([back.grid, back.theta, back.omega, back.beta, back.gamma]))


def test_read_trace_equals_the_chunked_reference(tmp_path, monkeypatch):
    # Small chunks, so a 121-block trace spans many of them and an edit can
    # fall on either side of a chunk boundary.
    monkeypatch.setattr(traceio, "_CHUNK_ROWS", 64)
    write_trace(run_config(triangle3(t_max=60.0)), tmp_path)
    texts = {name: (tmp_path / name).read_bytes().decode() for name in CSV_FILES[:2]}
    rng = random.Random(25)
    kinds = set()
    for _ in range(300):
        name = rng.choice(CSV_FILES[:2])
        damaged = _mutate(rng, texts[name])
        (tmp_path / name).write_bytes(damaged.encode())
        got = _outcome(tmp_path)
        with monkeypatch.context() as m:
            m.setattr(traceio, "_read_table", lambda path, _, grid=None: chunked_reference(path, grid))
            want = _outcome(tmp_path)
        assert got == want, (name, damaged)
        kinds.add("read" if got[0] == "read" else " ".join(got[1].split(": ", 1)[1].split()[:3]))
        (tmp_path / name).write_bytes(texts[name].encode())
    # reads of edited files, and several kinds of rejection
    assert {"read", "a row without"} <= kinds and len(kinds) >= 5, kinds
