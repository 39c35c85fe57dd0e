"""Runs the benchmark once per seed on each workload, one run at a time, and
writes every result plus, per workload and end-to-end metric, the median,
the quartiles and the spread (inter-quartile distance / median).

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline-seed.json

Runs go seed by seed, each seed through every workload in turn, so that a
slow phase of the host is shared out over the workloads instead of landing
on a run of seeds of one workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(config: dict, workload: str, seed: int) -> dict:
    cmd = config["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"seed": seed, "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(runs: list, names: list) -> dict:
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(x) for x in args.seeds.split("-"))
    workloads = [w["name"] for w in config["workloads"]]
    names = [m["name"] for m in config["end_to_end"]]
    runs = {workload: [] for workload in workloads}
    for seed in range(first, last + 1):
        for workload in workloads:
            runs[workload].append(run_once(config, workload, seed))
            print(f"done {workload} seed {seed}", flush=True)
    report = {"run_seconds": config["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in workloads:
        summary = summarize(runs[workload], names)
        report["workloads"][workload] = {"summary": summary, "runs": runs[workload]}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:16s} {name:34s} median {s['median']:.6g}  spread {spread}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
