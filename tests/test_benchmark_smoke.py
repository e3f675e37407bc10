"""The benchmark harness runs end to end at toy size and passes its self checks."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, "benchmark/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
