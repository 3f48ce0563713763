#!/usr/bin/env python3
"""Benchmark of the afmsim simulator: host time of whole runs and of each layer.

    python3 bench/run.py --workload ring-loop --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the simulator is imported from ``src/``
there and nowhere else. One invocation runs one workload (see
``workloads.py``) in this process, on one thread, and prints a readable
report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` gives the end-to-end metrics: the median ``load_config`` time
(``setup_s``), the median pipeline time (``run_s``), controller steps per
second of ``run_s``, and the peak RSS of a fresh process that ran the
workload once. Times are in reference seconds, wall times rescaled by a
calibration loop run around each sample (see ``REFERENCE_CAL_S``); the
report also prints the raw wall times. ``--trace 1`` alternates untraced and
traced pipeline runs and gives per-layer metrics, in wall seconds, from the
spans of the traced ones. Every run is
checked: it must not raise, its output checks must pass, and its digest must
equal that of the first run, traced runs included. Full results, with the
sample count of each metric, go to ``bench/out/``; traced runs also write
their spans there.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

LAYER_UNITS = {
    "config.load_s": "s",
    "config.fingerprint_s": "s",
    "topology.validate_s": "s",
    "controllers.admissible_s": "s",
    "engine.init_state_s": "s",
    "engine.loop_s": "s",
    "engine.select_s": "s",
    "engine.us_per_step": "us",
    "engine.step_us_p50": "us",
    "engine.step_us_p99": "us",
    "engine.build_trace_s": "s",
    "engine.occupancy_evals": "count",
    "engine.steps": "count",
    "engine.knots": "count",
    "engine.grid_points": "count",
    "engine.directed_links": "count",
    "engine.fatal_events": "count",
    "traceio.write_trace_s": "s",
    "traceio.bytes_written": "bytes",
    "traceio.read_trace_s": "s",
    "traceio.summarize_s": "s",
    "oracle.rebuild_s": "s",
    "oracle.replay_s": "s",
    "oracle.compare_s": "s",
    "oracle.frames": "count",
    "oracle.ns_per_frame": "ns",
    "oracle.comparisons": "count",
    "oracle.mismatches": "count",
    "bench.trace_overhead_s": "s",
    "bench.wall_run_s": "s",
    "bench.cal_s": "s",
}

# Self time of these spans is reported under the span name plus "_s"; a layer
# the workload does not call reports 0.
SELF_TIMED = (
    "config.fingerprint",
    "controllers.admissible",
    "engine.init_state",
    "engine.build_trace",
    "traceio.write_trace",
    "traceio.read_trace",
    "traceio.summarize",
    "oracle.rebuild",
    "oracle.replay",
    "oracle.compare",
)


def import_simulator() -> None:
    """Make ``afmsim`` importable from this checkout's sources only."""
    src = ROOT / "src"
    if not (src / "afmsim" / "__init__.py").is_file():
        sys.exit(f"bench: no simulator sources at {src / 'afmsim'}; run from a checkout")
    sys.path.insert(0, str(src))
    import afmsim

    if Path(afmsim.__file__).resolve().parent != (src / "afmsim").resolve():
        sys.exit(f"bench: imported afmsim from {afmsim.__file__}, not from {src}")


def commit_id() -> str:
    """HEAD of the checkout's git metadata, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


class Run:
    """Counts attempts and failures; a failure keeps its message."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.reference = None  # (digest, counts) of the first pipeline run

    def check(self, label: str, outcome) -> None:
        """Account one finished pipeline run against the first one."""
        problems = list(outcome.errors)
        if self.reference is None:
            self.reference = (outcome.digest, outcome.counts)
        elif outcome.digest != self.reference[0]:
            problems.append(f"digest {outcome.digest[:12]} != first run {self.reference[0][:12]}")
        elif outcome.counts != self.reference[1]:
            problems.append("simulated counts differ from the first run")
        self.attempted += 1
        self.errors += [f"{label}: {p}" for p in problems[:1]]

    def timed(self, label: str, work):
        """Run ``work()`` under the clock; returns (seconds, outcome or None)."""
        gc.collect()
        t0 = time.perf_counter()
        try:
            outcome = work()
        except Exception as exc:  # a raising run is a failed operation
            self.attempted += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None
        elapsed = time.perf_counter() - t0
        self.check(label, outcome)
        return elapsed, outcome


@contextlib.contextmanager
def traced_attr(module, attr: str, tracer, name: str):
    """Record a span around every call of ``module.attr`` inside the block."""
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return original(*args, **kwargs)

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


def time_setup(text: str, budget: float, tracer=None) -> list[float]:
    """A burst of ``load_config`` calls on the generated text: at least 5,
    then more until ``budget`` seconds have passed (at most 500)."""
    import afmsim

    times = []
    deadline = time.perf_counter() + budget
    while len(times) < 5 or (time.perf_counter() < deadline and len(times) < 500):
        t0 = time.perf_counter()
        if tracer is None:
            afmsim.load_config(text)
        else:
            with tracer.span("config.load"):
                afmsim.load_config(text)
        times.append(time.perf_counter() - t0)
    return times


def metric(values: list[float], unit: str) -> dict:
    """Median of the samples (0 when there are none) with its unit and count;
    counts take a middle sample, so they stay whole numbers."""
    mid = statistics.median_low if unit in ("count", "bytes") else statistics.median
    return {"value": mid(values) if values else 0, "unit": unit, "samples": len(values)}


def peak_rss_child(workload: str, seed: int) -> tuple[float, str]:
    """Peak RSS (MB) and digest of a fresh process that runs the workload once."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--rss-child"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"rss child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["peak_rss_mb"], report["digest"]


# Set-up bursts take this many seconds each and sit between pipeline runs,
# so that set-up and pipeline times sample the same stretch of the run.
SETUP_BURST_S = 0.15

# The speed of a shared host drifts by up to 2x over tens of seconds, which
# moves every wall time with it. Each set-up burst and pipeline run is
# therefore bracketed by a fixed pure-Python calibration loop, and its wall
# time is rescaled to reference seconds: seconds on a core where that loop
# takes REFERENCE_CAL_S (about an idle core of the 2-vCPU host that
# recorded bench/results). The raw wall times are reported beside them.
REFERENCE_CAL_S = 0.007


def calibration_loop() -> float:
    """Wall time of a fixed mix of float, list, dict and sort work."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    xs = []
    acc = 0.0
    for i in range(20000):
        x = (i * 0.618033988749895) % 1.0
        table[i % 61] = table.get(i % 61, 0) + 1
        xs.append(x)
        acc += math.floor(x * 7.0) - x
    xs.sort()
    acc += bisect.bisect_right(xs, 0.5)
    return time.perf_counter() - t0


def end_to_end(
    w, cfg, text: str, seed: int, seconds: float, run: Run
) -> tuple[dict, dict, dict]:
    run.timed("warm-up", lambda: w.run(cfg, OUT))
    setup, times, wall_setup, wall, cals = [], [], [], [], []
    steps = 0  # the same in every run: Run.check compares the counts
    cal_before = calibration_loop()
    deadline = time.perf_counter() + seconds
    for rounds in itertools.count():
        if rounds >= 3 and time.perf_counter() >= deadline:
            break
        burst = time_setup(text, SETUP_BURST_S)
        cal_mid = calibration_loop()
        scale = 2 * REFERENCE_CAL_S / (cal_before + cal_mid)
        setup += [x * scale for x in burst]
        wall_setup += burst
        elapsed, outcome = run.timed(f"run {rounds + 1}", lambda: w.run(cfg, OUT))
        cal_before = calibration_loop()
        cals += [cal_mid, cal_before]
        if outcome is not None:
            times.append(elapsed * 2 * REFERENCE_CAL_S / (cal_mid + cal_before))
            wall.append(elapsed)
            steps = outcome.counts["engine.steps"]
    run.attempted += 1
    rss = []
    try:
        peak, digest = peak_rss_child(w.name, seed)
        rss.append(peak)
        if run.reference is not None and digest != run.reference[0]:
            run.errors.append(f"rss child: digest {digest[:12]} differs from this process")
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        run.errors.append(f"rss child: {exc}")
    run_s = metric(times, "s")
    metrics = {
        "setup_s": metric(setup, "s"),
        "run_s": run_s,
        "steps_per_s": {**run_s, "value": steps / run_s["value"] if times else 0.0,
                        "unit": "1/s"},
        "peak_rss_mb": metric(rss, "MB"),
    }
    raw = {
        "wall_setup_s": metric(wall_setup, "s"),
        "wall_run_s": metric(wall, "s"),
        "cal_s": metric(cals, "s"),
    }
    samples = {"setup_s": setup, "run_s": times, "wall_setup_s": wall_setup,
               "wall_run_s": wall, "cal_s": cals}
    return metrics, raw, samples


def layer_values(tracer, outcome) -> dict[str, float]:
    """Per-layer numbers of one traced pipeline run."""
    totals = tracer.totals()
    counts = outcome.counts
    values = {f"{name}_s": totals.get(name, (0.0, 0.0))[1] for name in SELF_TIMED}
    # engine.step selects the node and advances it, which is one iteration of
    # the untraced loop; the benchmark's own select call before it, and the
    # span bookkeeping, count as tracing overhead.
    loop = totals.get("engine.step", (0.0, 0.0))[0]
    values["engine.loop_s"] = loop
    values["engine.select_s"] = totals.get("engine.select", (0.0, 0.0))[0]
    steps = counts["engine.steps"]
    values["engine.us_per_step"] = 1e6 * loop / steps if steps else 0.0
    step_us = sorted(1e6 * d for d in tracer.durations("engine.step"))
    if step_us:
        values["engine.step_us_p50"] = statistics.median(step_us)
        values["engine.step_us_p99"] = step_us[min(len(step_us) - 1, int(0.99 * len(step_us)))]
    else:
        values["engine.step_us_p50"] = values["engine.step_us_p99"] = 0.0
    for name, unit in LAYER_UNITS.items():
        if unit in ("count", "bytes"):
            values[name] = counts.get(name, 0)
    frames = counts.get("oracle.frames", 0)
    values["oracle.ns_per_frame"] = 1e9 * values["oracle.replay_s"] / frames if frames else 0.0
    return values


def per_layer(
    w, cfg, text: str, seconds: float, run: Run, spans_path: Path
) -> tuple[dict, dict, dict]:
    import afmsim.config
    from spans import Tracer

    setup_tracer = Tracer()
    run.timed("warm-up", lambda: w.run(cfg, OUT))
    plain, traced, layers, cals = [], [], [], []
    deadline = time.perf_counter() + seconds
    for rounds in itertools.count():
        if rounds >= 2 and time.perf_counter() >= deadline:
            break
        with traced_attr(afmsim.config, "validate", setup_tracer, "topology.validate"):
            time_setup(text, SETUP_BURST_S, setup_tracer)
        cals.append(calibration_loop())
        elapsed, outcome = run.timed(f"untraced {rounds + 1}", lambda: w.run(cfg, OUT))
        if outcome is not None:
            plain.append(elapsed)
        tracer = Tracer()
        elapsed, outcome = run.timed(f"traced {rounds + 1}", lambda: w.run(cfg, OUT, tracer))
        if outcome is not None:
            traced.append(elapsed)
            layers.append(layer_values(tracer, outcome))
            tracer.write(spans_path, len(traced), append=len(traced) > 1)

    overhead = metric(traced, "s")["value"] - metric(plain, "s")["value"]
    special = {
        "config.load_s": metric(setup_tracer.self_times("config.load"), "s"),
        "topology.validate_s": metric(setup_tracer.durations("topology.validate"), "s"),
        "bench.trace_overhead_s": {
            "value": overhead if traced and plain else 0.0,
            "unit": "s",
            "samples": min(len(traced), len(plain)),
        },
        "bench.wall_run_s": metric(plain, "s"),
        "bench.cal_s": metric(cals, "s"),
    }
    metrics = {
        name: special[name] if name in special else metric([v[name] for v in layers], unit)
        for name, unit in LAYER_UNITS.items()
    }
    return metrics, {}, {"run_s": plain, "traced_run_s": traced, "cal_s": cals}


def rss_child(w, seed: int) -> int:
    import afmsim

    outcome = w.run(afmsim.load_config(w.make_text(seed)), OUT)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kib * 1024 / 1e6, "digest": outcome.digest}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_simulator()
    import afmsim
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.rss_child:
        return rss_child(w, args.seed)

    text = w.make_text(args.seed)
    cfg = afmsim.load_config(text)
    run = Run()
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, raw, samples = per_layer(
            w, cfg, text, args.seconds, run, OUT / f"{stem}-spans.csv"
        )
    else:
        metrics, raw, samples = end_to_end(w, cfg, text, args.seed, args.seconds, run)
    failed = len(run.errors)
    fail_ratio = failed / run.attempted if run.attempted else 1.0

    results = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": commit_id(),
        "machine": machine(),
        "config_fingerprint": cfg.fingerprint(),
        "digest": run.reference[0] if run.reference else None,
        "counts": run.reference[1] if run.reference else None,
        "attempted": run.attempted,
        "failed": failed,
        "fail_ratio": fail_ratio,
        "errors": run.errors,
        "metrics": metrics,
        "uncalibrated": raw,
        "samples": samples,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  commit {results['commit']}")
    print(f"digest {results['digest']}")
    for name, m in {**metrics, **raw}.items():
        print(f"  {name:26s} {m['value']:>16.6g} {m['unit']:6s} (n={m['samples']})")
    print(f"  {'fail_ratio':26s} {fail_ratio:>16.6g} {'ratio':6s} (n={run.attempted})")
    for err in run.errors:
        print(f"FAILED {err}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
