"""Each script under ``scripts/`` runs end to end on a short horizon and turns
bad arguments into a usage error."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

REPO = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )


def test_gain_sweep():
    proc = run_script("gain_sweep.py", "--t-max", "20")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == [
        "k_p", "spread", "spread", "%", "mean", "omega", "beta", "range", "fatal"
    ]
    assert len(lines) == 1 + 6  # one row per default gain


@pytest.mark.parametrize(
    "args",
    [("--t-max", "nan"), ("--t-max", "-5"), ("--gains", "-1"), ("--gains", "nan")],
    ids=["t-max-nan", "t-max-negative", "gain-negative", "gain-nan"],
)
def test_gain_sweep_bad_arguments_exit_two(args):
    proc = run_script("gain_sweep.py", "--t-max", "20", *args)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
