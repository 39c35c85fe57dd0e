"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny size (--tiny) with tracing off and on, and
checks that the result line has exactly the contract's keys, that the
outputs checked out, and that every metric named in BENCHMARK.json appears
with its unit. Then checks that, in a directory holding only BENCHMARK.json
and the benchmark's files, the benchmark exits non-zero without a result.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(config: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = config["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(config: dict, workload: str, trace: int) -> None:
    proc = bench(config, ROOT, workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        raise AssertionError(f"{workload}: correct={result['correct']} attempted={result['attempted']}\n{proc.stderr[-2000:]}")
    expected = {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    print(f"ok  {workload:16s} trace={trace} attempted={result['attempted']} failed={result['failed']}")


def check_without_package(config: dict) -> None:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench", prefix="bare-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in config["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(config, Path(bare), config["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError(f"without the package: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
    print(f"ok  without the package: exit {proc.returncode}, no result")


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for workload in config["workloads"]:
            for trace in (0, 1):
                check_result(config, workload["name"], trace)
        check_without_package(config)
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
