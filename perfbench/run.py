"""cbgru benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Generates the workload's inputs from the seed, then for S seconds runs
jobs, each a set-up followed by one unit of work through the package's
public functions, and checks every output. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before it
records the environment. With --trace 0 the metrics are the end-to-end
ones, measured with tracing off: set-up time as a median, the other
timings as totals over the run. With --trace 1
the run alternates untraced and traced jobs and reports per-layer metrics,
per traced job, plus the tracing overhead; the spans are written to
.perfbench/spans-<workload>-<seed>.jsonl.

Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import os

# One process, one BLAS thread (<= nproc): steadier on a shared machine, and
# the per-sample GEMVs at paper dimensions gain nothing from more threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import ctypes
import gc
import glob
import json
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MIN_ROUNDS = 2  # at least two units, so determinism is checked on every run
SETUP_REPEATS = 5  # set-ups per untraced job; set-up is short, so one timing is noisy


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import cbgru
    except ImportError as exc:
        print(f"error: cannot import cbgru from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(cbgru.__file__).resolve().parent != (SRC / "cbgru").resolve():
        print(f"error: cbgru was imported from {cbgru.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def blas_threads() -> str:
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


class Run:
    """Accumulates units, failures and errors for one benchmark run.

    Every repeat of a unit does the same operations on the same inputs, and
    the check makes sure their results agree. So ``attempted`` counts the
    operations of one unit, and an operation counts as failed if it failed
    in any repeat: both counts depend on the seed, not on how many repeats
    fitted in the run."""

    def __init__(self, workload, seed: int) -> None:
        self.w = workload
        self.seed = seed
        self.units = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.fingerprints = set()

    def unit(self, inputs) -> None:
        """Runs one unit; an exception fails all of its planned operations."""
        from workloads import planned_ops, run_unit

        try:
            unit = run_unit(self.w, inputs, self.seed)
        except Exception:
            traceback.print_exc()
            planned = planned_ops(self.w, inputs)
            self.attempted = max(self.attempted, planned)
            self.failed = max(self.failed, planned)
            return
        self.units.append(unit)
        self.attempted = max(self.attempted, unit.attempted)
        self.failed = max(self.failed, unit.failed)
        self.errors += unit.errors
        self.fingerprints.add(unit.fingerprint)

    def check(self) -> bool:
        if len(self.fingerprints) > 1:
            self.errors.append("loss trace or predictions differ between repeats of one seed")
        for err in dict.fromkeys(self.errors):
            print(f"check failed: {err}", file=sys.stderr)
        return not self.errors


def run_jobs(run: Run, paths, seconds: float, tracer=None):
    """Runs jobs, each one set-up and then one unit on its inputs, for about
    ``seconds``; with a tracer, rounds of one untraced and one traced job.
    Without a tracer, a job first repeats the set-up ``SETUP_REPEATS - 1``
    times, timed apart from the job. Returns the untraced set-up times and
    the job times by traced flag."""
    from workloads import setup

    kinds = (False, True) if tracer else (False,)
    setup_s, job_s = [], {kind: [] for kind in kinds}
    start = perf_counter()
    round_s = []
    while len(round_s) < MIN_ROUNDS or perf_counter() - start + statistics.median(round_s) <= seconds:
        r0 = perf_counter()
        for traced in kinds:
            for _ in range(0 if tracer else SETUP_REPEATS - 1):
                gc.collect()
                t0 = perf_counter()
                setup(run.w, paths)
                setup_s.append(perf_counter() - t0)
            gc.collect()  # start each job without the previous job's garbage
            t0 = perf_counter()
            with tracer.installed() if traced else contextlib.nullcontext():
                inputs = setup(run.w, paths)
                if not traced:
                    setup_s.append(perf_counter() - t0)
                run.unit(inputs)
            job_s[traced].append(perf_counter() - t0)
        round_s.append(perf_counter() - r0)
    if not run.units:
        print("error: every unit failed", file=sys.stderr)
        sys.exit(1)
    return setup_s, job_s


def measure(run: Run, paths, seconds: float) -> dict:
    setup_s, _ = run_jobs(run, paths, seconds)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # totals over the whole run: under a host that flips between fast
        # and slow phases these are steadier than medians of a few units
        "samples_per_s": (sum(u.work for u in run.units) / sum(u.work_s for u in run.units), "1/s"),
        "report_s": (statistics.fmean(t for u in run.units for t in u.report_s), "s"),
    }


def measure_traced(run: Run, paths, seconds: float) -> dict:
    """Per-layer figures are per traced job; the overhead is the difference
    of the median traced and untraced job times."""
    from tracer import Tracer

    tracer = Tracer()
    start = perf_counter()
    _, job_s = run_jobs(run, paths, seconds, tracer)
    run.errors += tracer.check_nesting()
    tracer.dump(str(OUT_DIR / f"spans-{run.w.name}-{run.seed}.jsonl"), start)

    metrics = tracer.metrics(len(job_s[True]))
    untraced, traced = statistics.median(job_s[False]), statistics.median(job_s[True])
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    metrics["fail_ratio"] = (run.failed / run.attempted, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="corpora 10x smaller, for the smoke test")
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload '{args.workload}'; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    run = Run(WORKLOADS[args.workload], args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="inputs-") as workdir:
        paths = prepare(run.w, args.seed, workdir, args.tiny)
        measured = (measure_traced if args.trace else measure)(run, paths, args.seconds)
    correct = run.check()
    print(json.dumps({"env": environment(), "workload": run.w.name, "seed": args.seed, "units": len(run.units)}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
