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
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .engine import FatalEvent, Trace

SIGNIFICANT_DIGITS = 12


def fmt_num(x: float) -> str:
    return f"{x:.{SIGNIFICANT_DIGITS}g}"


def write_trace(trace: Trace, out_dir: str | Path) -> dict[str, Path]:
    """Write the CSV set and metadata; returns the paths by file name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / name for name in ("nodes.csv", "buffers.csv", "events.csv", "meta.json")}

    nodes = sorted(trace.theta)
    lines = ["t,node,theta,omega"]
    for idx, t in enumerate(trace.grid):
        ts = fmt_num(t)
        for i in nodes:
            lines.append(f"{ts},{i},{fmt_num(trace.theta[i][idx])},{fmt_num(trace.omega[i][idx])}")
    paths["nodes.csv"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    links = sorted(trace.beta)
    lines = ["t,src,dst,beta,gamma"]
    for idx, t in enumerate(trace.grid):
        ts = fmt_num(t)
        for (a, b) in links:
            lines.append(f"{ts},{a},{b},{trace.beta[(a, b)][idx]},{trace.gamma[(a, b)][idx]}")
    paths["buffers.csv"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["t,kind,link,value"]
    for ev in trace.fatal_events:
        lines.append(f"{fmt_num(ev.t)},{ev.kind},{ev.link[0]}->{ev.link[1]},{ev.occupancy}")
    paths["events.csv"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    first = trace.first_fatal
    meta = {
        "fingerprint": trace.fingerprint,
        "fatal": trace.fatal,
        "first_fatal_t": first.t if first else None,
        **trace.meta,
    }
    paths["meta.json"].write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
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


def read_trace(trace_dir: str | Path) -> Trace:
    """Rebuild a reporting view of a trace from its directory.

    Knot lists and per-sample records are not serialized, so the result has
    the resampled series and events only; floats carry the printed precision.
    Raises ``TraceError`` for a file that does not parse and for a
    ``nodes.csv`` without rows.
    """
    d = Path(trace_dir)
    theta: dict[int, list[float]] = {}
    omega: dict[int, list[float]] = {}
    grid: list[float] = []
    last_t = None
    with _parsing(d / "nodes.csv"):
        for line in (d / "nodes.csv").read_text(encoding="utf-8").splitlines()[1:]:
            ts, node_s, th, om = line.split(",")
            t = float(ts)
            if t != last_t:
                grid.append(t)
                last_t = t
            i = int(node_s)
            theta.setdefault(i, []).append(float(th))
            omega.setdefault(i, []).append(float(om))
        if not grid:
            raise ValueError("no rows after the header")

    beta: dict[tuple[int, int], list[int]] = {}
    gamma: dict[tuple[int, int], list[int]] = {}
    with _parsing(d / "buffers.csv"):
        for line in (d / "buffers.csv").read_text(encoding="utf-8").splitlines()[1:]:
            _, a_s, b_s, b_occ, g_occ = line.split(",")
            key = (int(a_s), int(b_s))
            beta.setdefault(key, []).append(int(b_occ))
            gamma.setdefault(key, []).append(int(g_occ))

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
