"""Runs the benchmark's own smoke test (perfbench/smoke.py): every workload
at tiny size, traced and untraced. A change that breaks a workload's
coverage, tally or determinism check, or drops one of the metrics that
BENCHMARK.json names, fails here. The smoke test writes only under the
ignored .perfbench/ directory."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr[-4000:]
