"""Trace serialization, summary statistics, and plot-script emission.

A trace directory holds three CSV files with fixed columns plus metadata:

    nodes.csv    t, node, theta, omega        (rows ordered by t, then node)
    buffers.csv  t, src, dst, beta, gamma     (rows ordered by t, then src, dst)
    events.csv   t, kind, link, value         (fatal events; link as "a->b")
    meta.json    fingerprint, resolved config, fatal flag

Floats are printed with 12 significant digits and a fixed "\n" terminator so
repeated runs of the same config are byte-identical across platforms. The
CSVs are reporting artifacts: occupancies are exact integers, but phases and
frequencies round-trip only to the printed precision.

``nodes.csv`` and ``buffers.csv`` are read back in blocks: a block is the run
of rows that share one ``t``. ``read_trace`` requires every row to have the
table's number of fields, every block to list the same keys (node, or src and
dst) in increasing order, and every row of a block to carry the same ``t``
text; the blocks of ``buffers.csv`` must carry the ``t`` values of
``nodes.csv``. A file that breaks this is a ``TraceError``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable

from .engine import FatalEvent, Trace

SIGNIFICANT_DIGITS = 12
_SPEC = f".{SIGNIFICANT_DIGITS}g"


def fmt_num(x: float) -> str:
    return format(x, _SPEC)


def _formatted(series: Iterable[float]) -> list[str]:
    return list(map(format, series, repeat(_SPEC)))


def _write_table(path: Path, header: str, grid: list[str], series: Iterable[tuple]) -> None:
    """Write ``header`` and one block of rows per grid point, one row per key.

    ``series`` yields, in key order, each key's fields as text and its two
    value columns; a key's rows are built at once and the blocks are
    interleaved from them, so each value is formatted once.
    """
    rows = [
        [f"{t},{key},{x},{y}\n" for t, x, y in zip(grid, first, second, strict=True)]
        for key, first, second in series
    ]
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(header + "\n")
        f.writelines(map("".join, zip(*rows)))


def write_trace(trace: Trace, out_dir: str | Path) -> dict[str, Path]:
    """Write the CSV set and metadata; returns the paths by file name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / name for name in ("nodes.csv", "buffers.csv", "events.csv", "meta.json")}

    grid = _formatted(trace.grid)
    _write_table(
        paths["nodes.csv"],
        "t,node,theta,omega",
        grid,
        (
            (f"{i}", _formatted(trace.theta[i]), _formatted(trace.omega[i]))
            for i in sorted(trace.theta)
        ),
    )
    _write_table(
        paths["buffers.csv"],
        "t,src,dst,beta,gamma",
        grid,
        ((f"{a},{b}", trace.beta[(a, b)], trace.gamma[(a, b)]) for (a, b) in sorted(trace.beta)),
    )

    lines = ["t,kind,link,value"]
    for ev in trace.fatal_events:
        lines.append(f"{fmt_num(ev.t)},{ev.kind},{ev.link[0]}->{ev.link[1]},{ev.occupancy}")
    paths["events.csv"].write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")

    first = trace.first_fatal
    meta = {
        "fingerprint": trace.fingerprint,
        "fatal": trace.fatal,
        "first_fatal_t": first.t if first else None,
        **trace.meta,
    }
    paths["meta.json"].write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline=""
    )
    return paths


class TraceError(ValueError):
    """A trace file that does not parse; the message names the file."""


@contextmanager
def _parsing(path: Path):
    """Re-raise a ``ValueError`` from reading or parsing ``path`` (bad UTF-8, a
    short row, bad JSON) as a ``TraceError`` that names the file."""
    try:
        yield
    except ValueError as exc:
        raise TraceError(f"{path}: {exc}") from exc


# Rows the reader holds and splits at once, rounded to whole blocks.
_CHUNK_ROWS = 1024


def _read_table(
    path: Path, n_key: int, convert: Callable[[str], float], grid: list[float] | None = None
) -> tuple[list[float], dict[tuple[int, ...], tuple[list, list]]]:
    """The ``t`` of each block and each key's two value columns, converted,
    from a table of ``t``, ``n_key`` integer key fields and two values laid
    out as the module docstring says. A ``grid`` given is the ``t`` of each
    block the table must have, and is returned as it is.

    The first block gives the block size and the keys. The rows are then read
    and split a chunk of whole blocks at a time, and each key's columns are
    sliced out of the chunk by stride. A row's last field keeps its "\n",
    which ``int`` and ``float`` allow.
    """
    width = n_key + 3
    t = [] if grid is None else grid
    with open(path, encoding="utf-8") as f:
        f.readline()  # the header
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
        step = size * max(1, _CHUNK_ROWS // size)
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
                first.extend(map(convert, fields[at + n_key + 1 :: stride]))
                second.extend(map(convert, fields[at + n_key + 2 :: stride]))
            blocks = list(map(float, ts))
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


def read_trace(trace_dir: str | Path) -> Trace:
    """Rebuild a reporting view of a trace from its directory.

    Knot lists and per-sample records are not serialized, so the result has
    the resampled series and events only; floats carry the printed precision.
    Raises ``TraceError`` for a file that does not parse or breaks the layout
    of the module docstring, and for a ``nodes.csv`` without rows.
    """
    d = Path(trace_dir)
    with _parsing(d / "nodes.csv"):
        grid, series = _read_table(d / "nodes.csv", 1, float)
        if not grid:
            raise ValueError("no rows after the header")
    theta = {i: th for (i,), (th, _) in series.items()}
    omega = {i: om for (i,), (_, om) in series.items()}

    with _parsing(d / "buffers.csv"):
        _, series = _read_table(d / "buffers.csv", 2, int, grid)
    beta = {key: b for key, (b, _) in series.items()}
    gamma = {key: g for key, (_, g) in series.items()}

    events: list[FatalEvent] = []
    with _parsing(d / "events.csv"):
        for line in (d / "events.csv").read_text(encoding="utf-8").splitlines()[1:]:
            ts, kind, link_s, value = line.split(",")
            src, dst = link_s.split("->")
            events.append(FatalEvent(kind, (int(src), int(dst)), float(ts), int(value)))

    with _parsing(d / "meta.json"):
        meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("expected a JSON object")
        fingerprint = meta.pop("fingerprint", "")
        if not isinstance(fingerprint, str):
            raise ValueError(f"fingerprint {fingerprint!r} is not a string")
    meta.pop("fatal", None)
    meta.pop("first_fatal_t", None)
    return Trace(
        knots={},
        samples=[],
        grid=grid,
        theta=theta,
        omega=omega,
        beta=beta,
        gamma=gamma,
        fatal_events=events,
        fingerprint=fingerprint,
        meta=meta,
    )


@dataclass(frozen=True)
class LinkStats:
    beta_min: int
    beta_max: int


@dataclass(frozen=True)
class Summary:
    t_final: float
    freq_final: dict[int, float]
    freq_mean: float
    freq_spread: float
    link_stats: dict[tuple[int, int], LinkStats]
    pair_max_sum_deviation: dict[tuple[int, int], int]
    first_fatal: FatalEvent | None


def summarize(trace: Trace) -> Summary:
    """Headline numbers: final frequency spread, occupancy ranges, and how far
    each edge's paired occupancies wander from their initial sum."""
    if not trace.grid:
        raise ValueError("trace has no resampled series to summarize")
    freq_final = {i: trace.omega[i][-1] for i in sorted(trace.omega)}
    values = list(freq_final.values())
    freq_mean = sum(values) / len(values)
    freq_spread = max(values) - min(values)
    link_stats = {
        key: LinkStats(beta_min=min(series), beta_max=max(series))
        for key, series in sorted(trace.beta.items())
    }
    pair_dev: dict[tuple[int, int], int] = {}
    for (a, b) in sorted(trace.beta):
        if a >= b or (b, a) not in trace.beta:
            continue
        fwd = trace.beta[(a, b)]
        rev = trace.beta[(b, a)]
        base = fwd[0] + rev[0]
        pair_dev[(a, b)] = max(abs(f + r - base) for f, r in zip(fwd, rev))
    return Summary(
        t_final=trace.grid[-1],
        freq_final=freq_final,
        freq_mean=freq_mean,
        freq_spread=freq_spread,
        link_stats=link_stats,
        pair_max_sum_deviation=pair_dev,
        first_fatal=trace.first_fatal,
    )


def format_summary(s: Summary) -> str:
    lines = [
        f"final time            {fmt_num(s.t_final)}",
        f"frequency mean        {fmt_num(s.freq_mean)}",
        f"frequency spread      {fmt_num(s.freq_spread)}"
        f" ({fmt_num(100.0 * s.freq_spread / s.freq_mean)}% of mean)",
    ]
    for i, w in s.freq_final.items():
        lines.append(f"  omega[{i}]            {fmt_num(w)}")
    for (a, b), st in s.link_stats.items():
        lines.append(f"link {a}->{b}  beta in [{st.beta_min}, {st.beta_max}]")
    for (a, b), dev in s.pair_max_sum_deviation.items():
        lines.append(f"edge {a}--{b}  max |beta sum - initial| = {dev}")
    if s.first_fatal is not None:
        ev = s.first_fatal
        lines.append(
            f"FATAL {ev.kind} on link {ev.link[0]}->{ev.link[1]}"
            f" at t={fmt_num(ev.t)} (occupancy {ev.occupancy})"
        )
    else:
        lines.append("no fatal events")
    return "\n".join(lines)


_PLOT_TEMPLATE = '''#!/usr/bin/env python
"""Render occupancy and frequency panels from the trace CSVs in this
directory. Requires matplotlib.

Trace fingerprint: @FINGERPRINT@
"""

import csv
from collections import defaultdict
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = Path(__file__).resolve().parent

beta = defaultdict(lambda: ([], []))
with open(HERE / "buffers.csv", newline="") as f:
    for row in csv.DictReader(f):
        ts, series = beta[(row["src"], row["dst"])]
        ts.append(float(row["t"]))
        series.append(int(row["beta"]))

omega = defaultdict(lambda: ([], []))
with open(HERE / "nodes.csv", newline="") as f:
    for row in csv.DictReader(f):
        ts, series = omega[row["node"]]
        ts.append(float(row["t"]))
        series.append(float(row["omega"]))

fig, (ax_beta, ax_omega) = plt.subplots(2, 1, sharex=True, figsize=(8, 6))
for (src, dst) in sorted(beta):
    ts, series = beta[(src, dst)]
    ax_beta.plot(ts, series, label="beta %s->%s" % (src, dst))
ax_beta.set_ylabel("buffer occupancy (frames)")
ax_beta.legend(loc="best", fontsize="small", ncol=2)

for node in sorted(omega):
    ts, series = omega[node]
    ax_omega.plot(ts, series, label="omega %s" % node)
ax_omega.set_ylabel("frequency (ticks/s)")
ax_omega.set_xlabel("wall time (s)")
ax_omega.legend(loc="best", fontsize="small")

fig.tight_layout()
out = HERE / "trace_plot.png"
fig.savefig(out, dpi=150)
print(out)
'''


def emit_plot_script(trace: Trace, path: str | Path) -> Path:
    """Write a self-contained script that renders the two-panel view
    (occupancy on top, frequency below) from the CSVs next to it."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(
        _PLOT_TEMPLATE.replace("@FINGERPRINT@", trace.fingerprint or "(unset)"),
        encoding="utf-8",
    )
    return p
