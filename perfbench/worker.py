"""Runs one workload in a fresh interpreter; started by run.py.

    python3 -I perfbench/worker.py --workload W --seed N --seconds S
        --mode setup|measure|trace --work DIR --t0 EPOCH_SECONDS

Every mode imports levylab from the checkout's ``src``, writes the
workload's configs and generates its inputs; ``setup_s`` is the time from
``--t0`` (taken by run.py just before it started this interpreter) to the
end of that set-up.  ``measure`` then runs untraced passes of the workload
for ``--seconds`` seconds; ``trace`` runs one untraced pass and then traced
passes for the rest of the time.  The last line of stdout is a JSON report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import levylab  # noqa: E402  (the checkout's copy, first on the path above)
import numpy  # noqa: E402
import scipy  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# warning categories counted by name; any other category counts as "other"
WARNINGS = ("InterpolationDegradation", "NonHermitianSymbol", "RuntimeWarning")


def run_pass(ops, tracer=None):
    """Run every operation once; time each call, then check its output."""
    wall = 0.0
    failed = 0
    margin = -float("inf")
    caught_by = Counter()
    output_bytes = 0
    for op in ops:
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                with tracer.root(op.name) if tracer else nullcontext():
                    value = op.run()
            except Exception:  # a raising operation is a failed operation
                error = traceback.format_exc()
            wall += time.perf_counter() - start
        for w in caught:
            name = w.category.__name__
            caught_by[name if name in WARNINGS else "other"] += 1
        if error is None:
            try:
                m = op.check(value)
                if m <= 1.0:
                    margin = max(margin, m)
                else:
                    error = f"margin {m!r} exceeds 1"
            except (workloads.CheckFailed, OSError, KeyError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            print(f"operation {op.name} failed: {error}", file=sys.stderr)
        if op.out_dir is not None and op.out_dir.is_dir():
            output_bytes += sum(f.stat().st_size for f in op.out_dir.iterdir())
    return {"wall_s": wall, "attempted": len(ops), "failed": failed,
            "margin": margin, "warnings": dict(caught_by),
            "output_bytes": output_bytes}


def environment(seed):
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "LEVYLAB_THREADS": os.environ.get("LEVYLAB_THREADS", "unset"),
        "seed": seed,
    }


def _room_for_another(start, done, seconds):
    """Whether one more pass, at the mean pass time so far, ends in time.

    Stopping before the budget rather than after it keeps a run's length
    near ``seconds`` however slow the machine is at the moment.
    """
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def _sum_passes(passes):
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "margin": max(p["margin"] for p in passes),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    if not Path(levylab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"levylab was imported from {levylab.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    args.work.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.work, args.seed)
    report = {"setup_s": time.time() - args.t0, "env": environment(args.seed)}

    if args.mode == "measure":
        start = time.perf_counter()
        passes = [run_pass(ops)]
        while _room_for_another(start, len(passes), args.seconds):
            passes.append(run_pass(ops))
        report.update(_sum_passes(passes), passes=passes)
    elif args.mode == "trace":
        start = time.perf_counter()
        untraced = run_pass(ops)
        tracer = spans.Tracer()
        tracer.install()
        traced = []
        try:
            while not traced or _room_for_another(start, 1 + len(traced),
                                                  args.seconds):
                tracer.run_id = len(traced)
                traced.append(run_pass(ops, tracer))
        finally:
            tracer.uninstall()
        n = len(traced)
        metrics = spans.layer_metrics(tracer, list(range(n)))
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - untraced["wall_s"])
        metrics["verdict.margin"] = max(p["margin"] for p in traced)
        metrics["cli.output_bytes"] = sum(p["output_bytes"] for p in traced) / n
        for name in WARNINGS + ("other",):
            metrics[f"warnings.{name}"] = sum(
                p["warnings"].get(name, 0) for p in traced) / n
        tracer.write(args.work / "spans.csv.gz")
        report.update(_sum_passes([untraced] + traced), passes=traced,
                      untraced=untraced, layer_metrics=metrics)
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
