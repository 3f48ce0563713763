"""Smoke tests: each script under ``scripts/`` runs end to end on a short horizon."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_run_triangle(tmp_path):
    out = tmp_path / "triangle3"
    proc = run_script("run_triangle.py", "--t-max", "20", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("fingerprint ")
    assert (out / "events.csv").exists() and (out / "plot_trace.py").exists()


def test_gain_sweep():
    proc = run_script("gain_sweep.py", "--t-max", "20")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == [
        "k_p", "spread", "spread", "%", "mean", "omega", "beta", "range", "fatal"
    ]
    assert len(lines) == 1 + 6  # one row per default gain
