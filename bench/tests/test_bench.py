"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import afmsim
import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Reduced sizes of each workload's generator, for the smoke runs.
SMALL = {
    "tri-run": lambda seed: workloads.tri_text(seed, t_max=300.0),
    "ring-loop": lambda seed: workloads.ring_text(seed, n=16, t_max=60.0, grid=5.0),
    "mesh-verify": lambda seed: workloads.mesh_text(seed, t_max=80.0),
}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_and_valid(name):
    make = workloads.WORKLOADS[name].make_text
    for seed in (0, 1, 7, 12345):
        text = make(seed)
        assert make(seed) == text
        afmsim.load_config(text)  # raises unless the scenario validates
    assert make(1) != make(2)


def test_tri_seed_zero_is_the_shipped_scenario():
    shipped = afmsim.load_config_file(ROOT / "scenarios" / "triangle3.json")
    cfg = afmsim.load_config(workloads.tri_text(0))
    assert cfg.scenario == shipped.scenario
    assert cfg.controller == shipped.controller
    assert cfg.run.t_max == 10000.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_checks_and_tracing_changes_nothing(name, tmp_path):
    w = workloads.WORKLOADS[name]
    cfg = afmsim.load_config(SMALL[name](3))
    plain = w.run(cfg, tmp_path)
    tracer = Tracer()
    traced = w.run(cfg, tmp_path, tracer)
    assert plain.errors == [] and traced.errors == []
    assert plain.digest == traced.digest
    assert plain.counts == traced.counts
    assert plain.counts["engine.steps"] > 0
    steps = tracer.durations("engine.step")
    assert len(steps) == plain.counts["engine.steps"]
    assert len(tracer.durations("engine.select")) == len(steps) + 1
    assert list(tmp_path.iterdir()) == []  # the pipeline cleans up after itself


def test_broken_output_is_caught(tmp_path):
    cfg = afmsim.load_config(SMALL["ring-loop"](3))
    trace = afmsim.run_config(cfg)
    assert workloads._check_trace(cfg, trace) == []
    trace.beta[(1, 2)][-1] += 1
    assert workloads._check_trace(cfg, trace) != []


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    (outer_total, outer_self), (inner_total, inner_self) = (
        tracer.totals()["outer"],
        tracer.totals()["inner"],
    )
    assert inner_total == inner_self >= 0.02
    assert outer_total >= 0.03
    assert outer_self == pytest.approx(outer_total - inner_total)
    assert tracer.self_times("outer") == [outer_self]


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_metric_with_its_unit(trace, section):
    proc = _run(["--workload", "tri-run", "--seed", "2", "--seconds", "0.1",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert name in proc.stdout.split("\n{")[0]  # the readable report too


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "tri-run", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
