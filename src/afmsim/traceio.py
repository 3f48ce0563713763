"""Trace serialization, summary statistics, and plot-script emission.

A trace directory holds three CSV files with fixed columns plus metadata:

    nodes.csv    t, node, theta, omega        (rows ordered by t, then node)
    buffers.csv  t, src, dst, beta, gamma     (rows ordered by t, then src, dst)
    events.csv   t, kind, link, value         (fatal events; link as "a->b")
    meta.json    fingerprint, resolved config, fatal flag

Floats are printed with 12 significant digits and a fixed "\n" terminator so
repeated runs of the same config are byte-identical across platforms. The
CSVs are reporting artifacts: occupancies are exact integers, but phases and
frequencies round-trip only to the printed precision. ``write_trace`` checks
every series' length before it opens the first file, then fills each
table's blocks from one ``%`` template per block and writes them joined,
about ``_CHUNK_ROWS`` rows at a time; omega, constant over a segment, is
formatted once per run of one float object. Each file goes to a
temporary file first, and the trace's files are replaced only once all four
are written, so a write that fails leaves an older trace whole.

``nodes.csv`` and ``buffers.csv`` are read back in blocks: a block is the run
of rows that share one ``t``. ``read_trace`` requires each CSV file to start
with the header that ``write_trace`` writes, every row to have the table's
number of fields, every block to list the same keys (node, or src and
dst) in increasing order, and every row of a block to carry the same ``t``
text, a finite number; every ``theta`` and ``omega`` must be finite; the
blocks of ``buffers.csv`` must carry the ``t`` values of ``nodes.csv``, and
each of its links must join two distinct nodes of ``nodes.csv`` and come
with its reverse link; an event's
kind must be ``overflow`` or ``underflow``, its link a key of
``buffers.csv`` and its time finite, and the events must come in the order
of their times. A file that breaks this is a ``TraceError`` that names the
file. The tables are read a chunk of text at a time, cut after a whole
block, with no per-row Python work: a chunk is split into fields in one go,
the field count is checked once per chunk, and each distinct occupancy and
omega text is parsed once per table.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import add, is_not, sub
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .engine import FatalEvent, Trace

SIGNIFICANT_DIGITS = 12
# The one number format: ``fmt_num`` and the tables' ``%`` templates apply it.
_FORMAT = f"%.{SIGNIFICANT_DIGITS}g"

# The first line of each CSV file: written as it is, and required on reading.
_HEADERS = {
    "nodes.csv": "t,node,theta,omega",
    "buffers.csv": "t,src,dst,beta,gamma",
    "events.csv": "t,kind,link,value",
}
_EVENT_KINDS = ("overflow", "underflow")


def fmt_num(x: float) -> str:
    return _FORMAT % x


def _table(name: str, grid: list[str], values: str, series: Iterable[tuple]) -> tuple[str, list]:
    """The template of one block of a table's rows and the columns that fill
    it, a block per grid point and a row per key.

    ``series`` yields, in key order, each key's fields and its two value
    columns; ``values`` holds the two ``%`` conversions of a row's values.
    Every column's length is checked against the grid, so a short series
    raises here. A block's rows come from one template filled from every
    column at once, so C formats and joins them.
    """
    columns, block = [], ""
    for key, first, second in series:
        if not len(first) == len(second) == len(grid):
            raise ValueError(f"{name}: a series of key {key} is not as long as the grid")
        columns += (grid, first, second)
        block += f"%s,{key},{values}\n"
    return block, columns


# Rows the writer joins and the reader splits at once, rounded to whole blocks.
_CHUNK_ROWS = 1024

# Compared by identity before the first value, so the first value starts a run.
_NO_VALUE = object()


def _format_runs(xs: list[float]) -> Iterator[str]:
    """``map(_FORMAT.__mod__, xs)``, formatting each run of one object once.

    A run is compared by identity, not by value, so -0.0 after 0.0, or a
    second NaN object, starts a new run and prints as it would alone.
    """
    n = len(xs)
    starts = list(compress(range(n), map(is_not, xs, chain((_NO_VALUE,), xs))))
    texts = map(_FORMAT.__mod__, map(xs.__getitem__, starts))
    return chain.from_iterable(map(repeat, texts, map(sub, [*starts[1:], n], starts)))


def write_trace(trace: Trace, out_dir: str | Path) -> dict[str, Path]:
    """Write the CSV set and metadata; returns the paths by file name.

    Every series' length is checked, and the text of ``events.csv`` and
    ``meta.json`` made, before the first file is opened. Each file is then
    written to a temporary file in ``out_dir``, and the four replace the
    trace's files only once all of them are written. So a trace with a short
    series, or with a value that does not format, raises and leaves a trace
    already in ``out_dir`` as it was, not mixed with files of its own, and
    leaves no temporary file behind.

    The grid is formatted once for both tables. ``build_trace`` gives every
    grid point of a knot segment the same omega object
    (``trajectory.sweep_phase_slope``), so omega is formatted once per run
    of that object. A table's blocks are joined and written in groups of
    about ``_CHUNK_ROWS`` rows; a table with no rows per block, the
    ``buffers.csv`` of a single node, is its header alone.
    """
    grid = list(map(_FORMAT.__mod__, trace.grid))
    tables = {
        "nodes.csv": _table(
            "nodes.csv",
            grid,
            f"{_FORMAT},%s",
            ((i, trace.theta[i], trace.omega[i]) for i in sorted(trace.theta)),
        ),
        "buffers.csv": _table(
            "buffers.csv",
            grid,
            "%s,%s",
            ((f"{a},{b}", trace.beta[(a, b)], trace.gamma[(a, b)]) for (a, b) in sorted(trace.beta)),
        ),
    }
    # Each omega column, its length checked, formatted as the file is written.
    nodes_columns = tables["nodes.csv"][1]
    nodes_columns[2::3] = map(_format_runs, nodes_columns[2::3])

    lines = [_HEADERS["events.csv"]]
    for ev in trace.fatal_events:
        lines.append(f"{fmt_num(ev.t)},{ev.kind},{ev.link[0]}->{ev.link[1]},{ev.occupancy}")
    first = trace.first_fatal
    meta = {
        "fingerprint": trace.fingerprint,
        "fatal": trace.fatal,
        "first_fatal_t": first.t if first else None,
        **trace.meta,
    }
    texts = {
        "events.csv": "\n".join(lines) + "\n",
        "meta.json": json.dumps(meta, indent=2, sort_keys=True) + "\n",
    }

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / name for name in ("nodes.csv", "buffers.csv", "events.csv", "meta.json")}
    temps = {name: out / f".{name}.{os.getpid()}.tmp" for name in paths}
    try:
        for name, (block, columns) in tables.items():
            with open(temps[name], "w", encoding="utf-8", newline="") as f:
                f.write(_HEADERS[name] + "\n")
                blocks = map(block.__mod__, zip(*columns))
                # A block of no rows (one node's buffers.csv) fills nothing.
                group = max(1, _CHUNK_ROWS // max(1, block.count("\n")))
                while text := "".join(islice(blocks, group)):
                    f.write(text)
        for name, text in texts.items():
            temps[name].write_text(text, encoding="utf-8", newline="")
        for name, temp in temps.items():
            os.replace(temp, paths[name])
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise
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


def _parsed(parse: Callable[[str], object], memo: dict, texts: list[str]) -> Iterable:
    """``map(parse, texts)``, parsing only the texts not yet in ``memo``, each
    once and in order of first occurrence, so the first bad text is named."""
    try:
        return list(map(memo.__getitem__, texts))
    except KeyError:
        memo.update({text: parse(text) for text in dict.fromkeys(texts) if text not in memo})
        return map(memo.__getitem__, texts)


_Convert = Callable[[list[str]], Iterable]


def _read_table(
    path: Path, converts: tuple[_Convert, _Convert], grid: list[float] | None = None
) -> tuple[list[float], dict[tuple[int, ...], tuple[list, list]]]:
    """The ``t`` of each block and each key's two value columns, converted,
    from a table laid out as the module docstring says. Its header names the
    columns: ``t``, the integer key fields and two values. A ``grid`` given
    is the ``t`` of each block the table must have, and is returned as it is.

    The first block, read line by line, gives the block size and the keys.
    The file's text is then read about ``_CHUNK_ROWS`` rows at a time and cut
    after the last whole block; at the end of the file the rest is the last
    chunk, and a final row without "\n" still counts as a row. A chunk is
    split in one go, "\n" kept at the end of each row's last field (which
    ``int`` and ``float`` allow), and each key's columns are sliced out of
    it by stride and converted by ``converts``, one per value column.

    Every row has ``width`` fields exactly when the chunk splits into
    ``rows * width`` fields and every "\n" of the chunk lies in a field that
    ends a row, one at ``width - 1`` modulo ``width``. This is exact: a
    chunk's rows are cut at "\n", and the split ends a field after each
    "\n", so a field holds at most one, at its end, and the field that holds
    a row's "\n" is that row's last. So the rows before each "\n" hold a
    multiple of ``width`` fields, each row holds at least one field, and the
    total leaves room for no more than ``width`` per row.
    """
    header = _HEADERS[path.name]
    width = header.count(",") + 1
    n_key = width - 3
    t = [] if grid is None else grid
    with open(path, encoding="utf-8") as f:
        if f.readline() != header + "\n":
            raise ValueError(f"the header is not {header!r}")
        line = f.readline()
        if not line:
            return t, {}
        # The first row starts the first block even if it holds no ",".
        t0 = line.partition(",")[0] + ","
        block = [line]
        line = f.readline()
        while line.startswith(t0):
            block.append(line)
            line = f.readline()
        size = len(block)
        key_text = [row.split(",")[1 : 1 + n_key] for row in block]
        keys = [tuple(map(int, text)) for text in key_text]
        if keys != sorted(set(keys)):
            raise ValueError("keys out of order in the first block")
        # The text read but not yet split, from the first block on; a read
        # takes about ``_CHUNK_ROWS`` rows as long as the first block's.
        rest = "".join(block) + line
        want = (len(rest) - len(line)) * max(1, _CHUNK_ROWS // size)
        del block

        series = {key: ([], []) for key in keys}
        first_convert, second_convert = converts
        stride = size * width
        done = 0
        while True:
            more = f.read(want)
            rest += more
            newlines = rest.count("\n")
            if more:
                if newlines < size:
                    # No whole block yet: read twice as much from now on, so
                    # that a long row costs linear time, not quadratic.
                    want *= 2
                    continue
                extra = newlines % size  # rows after the last whole block
                cut = len(rest)
                for _ in range(extra + 1):
                    cut = rest.rfind("\n", 0, cut)
                chunk, rest = rest[: cut + 1], rest[cut + 1 :]
                rows = newlines = newlines - extra
            elif rest:  # the end of the file
                chunk, rest = rest, ""
                rows = newlines + (not chunk.endswith("\n"))
            else:
                break
            fields = chunk.replace("\n", "\n,").split(",")
            if chunk.endswith("\n"):
                fields.pop()  # the empty field after the last "\n"
            ends = "".join(fields[width - 1 :: width])
            if len(fields) != rows * width or ends.count("\n") != newlines:
                raise ValueError(f"a row without exactly {width} fields")
            if rows % size:
                raise ValueError(f"the rows do not fill blocks of {size} rows")
            ts = fields[::stride]
            for j, key in enumerate(keys):
                at = j * width
                if fields[at::stride] != ts:
                    raise ValueError("t differs within a block")
                for c, text in enumerate(key_text[j], at + 1):
                    if fields[c::stride].count(text) != len(ts):
                        raise ValueError("a block's keys differ from the first block's")
                first, second = series[key]
                first.extend(first_convert(fields[at + n_key + 1 :: stride]))
                second.extend(second_convert(fields[at + n_key + 2 :: stride]))
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


def read_trace(trace_dir: str | Path) -> Trace:
    """Rebuild a reporting view of a trace from its directory.

    Knot lists and per-sample records are not serialized, so the result has
    the resampled series and events only; floats carry the printed precision.
    Raises ``TraceError`` for a file that does not parse or breaks the layout
    of the module docstring, and for a ``nodes.csv`` without rows.
    """
    d = Path(trace_dir)
    with _parsing(d / "nodes.csv"):
        # Omega is constant over a knot segment, and its texts repeat.
        omega_texts = partial(_parsed, float, {})
        grid, series = _read_table(d / "nodes.csv", (partial(map, float), omega_texts))
        if not grid:
            raise ValueError("no rows after the header")
        if not all(map(math.isfinite, chain.from_iterable(chain(*series.values())))):
            raise ValueError("a theta or omega value is not finite")
    theta = {i: th for (i,), (th, _) in series.items()}
    omega = {i: om for (i,), (_, om) in series.items()}

    with _parsing(d / "buffers.csv"):
        occupancies = partial(_parsed, int, {})
        _, series = _read_table(d / "buffers.csv", (occupancies, occupancies), grid)
        for src, dst in series:
            if src == dst or src not in theta or dst not in theta:
                detail = "does not join two distinct nodes of nodes.csv"
                raise ValueError(f"link {src},{dst} {detail}")
        # Every run writes both directions of an edge; summarize pairs them.
        for src, dst in series:
            if (dst, src) not in series:
                raise ValueError(f"link {src},{dst} has no reverse link {dst},{src}")
    beta = {key: b for key, (b, _) in series.items()}
    gamma = {key: g for key, (_, g) in series.items()}

    events: list[FatalEvent] = []
    with _parsing(d / "events.csv"):
        header = _HEADERS["events.csv"]
        lines = (d / "events.csv").read_text(encoding="utf-8").splitlines()
        if lines[:1] != [header]:
            raise ValueError(f"the header is not {header!r}")
        for line in lines[1:]:
            ts, kind, link_s, value = line.split(",")
            if kind not in _EVENT_KINDS:
                raise ValueError(f"event kind {kind!r} is not one of {_EVENT_KINDS}")
            src, dst = link_s.split("->")
            ev = FatalEvent(kind, (int(src), int(dst)), float(ts), int(value))
            if ev.link not in beta:
                raise ValueError(f"an event on link {link_s}, which buffers.csv does not have")
            if not math.isfinite(ev.t):
                raise ValueError(f"event time {ts} is not finite")
            # Written in (t, link, kind) order, but distinct times can print
            # alike, so only t is checked.
            if events and ev.t < events[-1].t:
                raise ValueError(f"event time {ts} is before the event above it")
            events.append(ev)

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
        sums = list(map(add, fwd, rev))
        pair_dev[(a, b)] = max(max(sums) - base, base - min(sums))
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
