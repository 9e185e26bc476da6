"""Smoke test of the benchmark: every workload for one frame in both modes.

Run with ``python -m pytest perfbench/test_smoke.py`` (about two minutes,
most of it the one ~25 s paper-l2r frame per mode, ~1.5 GB peak memory).
"""
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: passed" in proc.stdout
