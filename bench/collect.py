#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/collect.py --workloads ring-loop --seeds 1-5
    python3 bench/collect.py --seeds 1-3 --trace 0,1 --out bench/out/summary.json

Each (workload, seed) is one ``bench/run.py`` invocation with the
``run_seconds`` of ``BENCHMARK.json``, run one after another. For every
metric the summary gives the median over seeds, the quartiles, and the
spread, which is the distance between the quartiles as a share of the
median. An end-to-end metric whose spread reaches a third of its bound is
marked "WIDE". The per-seed digests and simulated counts are kept, so two
commits can be compared on them; with ``--trace 0,1`` the traced run of each
seed must reproduce the digest of the untraced one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def collect(spec: dict, summary: dict, workload: str, seeds: list[int], trace: int) -> dict | None:
    """One ``run.py`` invocation per seed; the summary of their results."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seeds:
        cmd = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        stem = f"{workload}-seed{seed}-trace{trace}"
        detail = json.loads((HERE / "out" / f"{stem}.json").read_text(encoding="utf-8"))
        summary.setdefault("commit", detail["commit"])
        summary.setdefault("machine", detail["machine"])
        runs.append({"seed": seed, **result, "digest": detail["digest"],
                     "counts": detail["counts"]})
        values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"{workload} seed {seed} trace {trace} correct={result['correct']}"
              f" failed={result['failed']}/{result['attempted']} {values}", flush=True)
    metrics = {
        name: {"unit": runs[0]["metrics"][name]["unit"],
               **spread([r["metrics"][name]["value"] for r in runs])}
        for name in runs[0]["metrics"]
    }
    for name, m in metrics.items():
        flag = "  WIDE" if name in bounds and m["spread"] >= bounds[name] / 3 else ""
        print(f"  {workload} {name}: median {m['median']:.6g} {m['unit']}"
              f" spread {m['spread']:.4f}{flag}", flush=True)
    return {"metrics": metrics, "runs": runs}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--trace", default="0", choices=("0", "1", "0,1"),
                        help="end-to-end (0), per-layer (1) or both")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds}
    for trace in map(int, args.trace.split(",")):
        section = summary[f"trace{trace}"] = {}
        for workload in args.workloads.split(","):
            result = collect(spec, summary, workload, seeds, trace)
            if result is None:
                return 1
            section[workload] = result
    ok = all(
        run["correct"] for key in ("trace0", "trace1") for w in summary.get(key, {}).values()
        for run in w["runs"]
    )
    if "trace0" in summary and "trace1" in summary:
        for workload, w in summary["trace0"].items():
            for plain, traced in zip(w["runs"], summary["trace1"][workload]["runs"]):
                if plain["digest"] != traced["digest"]:
                    print(f"{workload} seed {plain['seed']}: traced digest differs")
                    ok = False
    print("all runs correct" if ok else "SOME RUNS FAILED")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
