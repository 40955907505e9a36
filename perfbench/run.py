"""levylab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S      # every workload

Each workload runs in fresh interpreters (worker.py) with LEVYLAB_THREADS
unset and one BLAS thread, as one closed-loop caller.  With ``--trace 0``
the run samples set-up several times and then measures untraced passes;
with ``--trace 1`` it measures each layer through spans.py.  The last line
of stdout is one JSON object: correct, attempted, failed and the metrics
that BENCHMARK.json lists for the mode.  A run that cannot produce a result
(levylab missing, a worker crashing or overrunning) exits 1 and prints none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".perfbench-run"
WORKLOADS = ("flow-decay", "jump-lsi", "quadrature-route", "heat-sweep-d2")
SETUP_SAMPLES = 5       # fresh interpreters per untraced run; setup_s is their median
RUN_LIMIT_S = 170.0     # a run must end within 180 s


class HarnessError(Exception):
    """The benchmark could not produce a result."""


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _worker_env():
    env = {k: v for k, v in os.environ.items() if k != "LEVYLAB_THREADS"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(mode, workload, seed, seconds, work, deadline):
    cmd = [sys.executable, "-I", str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--work", str(work),
           "--t0", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_worker_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} {mode} worker overran the run limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} {mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _check_isolation(workload, metrics):
    """Failed predictions from predictions.json, as readable strings."""
    with open(BENCH / "predictions.json") as fh:
        pred = json.load(fh)
    broken = [f"{name}.calls = {metrics[name + '.calls']:g}, predicted 0"
              for name in pred["zero_calls"][workload]
              if metrics[name + ".calls"] != 0]
    cov = metrics["trace.coverage"]
    if not abs(cov - 1.0) <= pred["coverage_tolerance"]:
        broken.append(f"layer self times cover {cov:.4f} of traced wall time")
    return broken


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result line, detail record)."""
    spec = _spec()
    deadline = time.monotonic() + RUN_LIMIT_S
    work = RUNS / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    lib_seed = seed % 2**32      # levylab configs take a nonnegative seed
    if trace:
        rep = _worker("trace", workload, lib_seed, seconds, work, deadline)
        values = rep["layer_metrics"]
        wanted = spec["per_layer"]
        broken = _check_isolation(workload, values)
        detail = {"isolation_failures": broken}
    else:
        setup = [_worker("setup", workload, lib_seed, seconds, work,
                         deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        rep = _worker("measure", workload, lib_seed, seconds, work, deadline)
        setup.append(rep["setup_s"])
        walls = [p["wall_s"] for p in rep["passes"]]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rep["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
        broken = []
        p25, p75 = _quartiles(walls)
        detail = {"wall_s_p25": p25, "wall_s_p75": p75,
                  "wall_s_samples": len(walls), "setup_s_samples": setup}
    for msg in broken:
        print(f"{workload}: isolation check failed: {msg}", file=sys.stderr)
    detail.update(workload=workload, trace=int(trace), seconds=seconds,
                  failed_share=rep["failed"] / rep["attempted"],
                  margin=rep["margin"], env=rep["env"], passes=rep["passes"])
    metrics = {}
    for m in wanted:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v if math.isfinite(v) else None,
                              "unit": m["unit"]}
    result = {
        "correct": rep["failed"] == 0 and not broken,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }
    with open(work / f"result-trace{int(trace)}.json", "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    return result, detail


def _print_table(workload, result, detail):
    print(f"== {workload}  seed {detail['env']['seed']}  trace {detail['trace']}"
          f"  correct {result['correct']}"
          f"  failed {result['failed']}/{result['attempted']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']!s:>24} {m['unit']}")
    shown = {k: v for k, v in detail.items() if k != "passes"}
    print("  detail " + json.dumps(shown, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = []
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds,
                                          args.trace)
            _print_table(name, result, detail)
            results.append((name, result))
    except (HarnessError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
