"""Out-of-program tracing of levylab's layers.

The tracer wraps the public functions of each levylab module from outside
and records one span per call: name, start, end, parent span and run id
(one run id per workload pass).  Spans stay in memory; ``write`` saves them
at the end and ``layer_metrics`` derives self times and counts from them.

Modules import functions by name (``entropy`` and ``cli`` each hold their
own ``fp_evolve``), so a wrapper replaces the original in every ``levylab``
module that holds it.  ``Grid.forward`` and ``Grid.inverse`` are wrapped on
the class, and ``scipy.integrate.quad`` on the ``scipy.integrate`` module,
which also catches the direct QUADPACK calls in ``levy.py``.

Spans are recorded only inside a harness root span (``Tracer.root``), so
every levylab span has the operation that caused it as an ancestor.  The
stack is a plain list: the benchmark runs levylab on one thread.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("spectral", "levy", "quadrature", "heat", "fokker_planck",
          "entropy", "fields", "cli")

# span tuple fields
NAME, START, END, PARENT, RUN, FAILED = range(6)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _fft_bytes(fn, args, kwargs):
    # computed, not measured: the array read plus the complex128 array written
    arr = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    return {"spectral.bytes": arr.nbytes + 16 * arr.size}


def _fp_key(fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    return (id(a["u0"]), float(a["t"])), a["u0"]


def _fp_work(fn, args, kwargs):
    # the dense contracted-frequency kernel is M x M complex128 per call
    a = _bound(fn, args, kwargs)
    m = a["u0"].grid.M
    return {"fokker_planck.nudft_bytes": 16 * m * m}


def _fields_key(fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    return (a["grid"], a["seed"], a["family"], id(a["steady"])), a["steady"]


def _dissipation_work(fn, args, kwargs):
    # lattice shifts the jump sum visits: (2K + 1)^d - 1, K = z_extent M / 2
    a = _bound(fn, args, kwargs)
    g = a["mu"].grid
    k = a["z_extent"] * g.M // 2
    return {"entropy.dissipation.shifts": (2 * k + 1) ** g.d - 1}


def targets():
    """(owner, attribute, span name, key, work) for every traced function.

    A call is charged to the nearest traced caller, so a helper needs its
    own entry only where it belongs to another module than its callers.

    ``key`` returns (hashable call key, object to keep alive) for the
    distinct-call ratio; ``work`` returns computed per-call counters.
    """
    import scipy.integrate

    from levylab import (cli, entropy, fields, fokker_planck, heat, levy,
                         quadrature, spectral)

    fp = fokker_planck
    return [
        (spectral.Grid, "forward", "spectral.forward", None, _fft_bytes),
        (spectral.Grid, "inverse", "spectral.inverse", None, _fft_bytes),
        (spectral, "apply_multiplier", "spectral.apply_multiplier", None, None),
        (spectral, "lp_norm", "spectral.lp_norm", None, None),
        (levy, "jump_symbol", "levy.jump_symbol", None, None),
        (scipy.integrate, "quad", "quadrature.quad", None, None),
        (quadrature, "integrate_scaled", "quadrature.integrate_scaled",
         None, None),
        (quadrature, "try_integrate", "quadrature.try_integrate", None, None),
        (heat, "verify_hypercontractivity", "heat.verify_hypercontractivity",
         None, None),
        (heat, "lsi_gap", "heat.lsi_gap", None, None),
        (heat, "kato_check", "heat.kato_check", None, None),
        (fp, "fp_evolve", "fokker_planck.fp_evolve", _fp_key, _fp_work),
        (fp, "steady_exponent", "fokker_planck.steady_exponent", None, None),
        (fp, "build_steady_state", "fokker_planck.build_steady_state",
         None, None),
        (entropy, "dissipation", "entropy.dissipation", None,
         _dissipation_work),
        (entropy, "decay_track", "entropy.decay_track", None, None),
        (entropy, "phi_entropy", "entropy.phi_entropy", None, None),
        (entropy, "modified_lsi_check", "entropy.modified_lsi_check",
         None, None),
        (fields, "generate_test_fields", "fields.generate_test_fields",
         _fields_key, None),
        (cli, "main", "cli.main", None, None),
        (cli, "run_experiment", "cli.run_experiment", None, None),
    ]


class Tracer:
    """Records spans around levylab's layer boundaries while installed."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self.work = defaultdict(float)      # (run id, counter) -> amount
        self.keys = defaultdict(set)        # (run id, span name) -> call keys
        self._alive = []                    # objects whose id is a call key
        self._stack = []
        self._restore = []

    @contextmanager
    def root(self, name):
        """Open a harness span; levylab spans are recorded only inside one."""
        rec = ["harness." + name, time.perf_counter(), 0.0, -1, self.run_id,
               False]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, key, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            run = tracer.run_id
            if key is not None:
                k, alive = key(fn, args, kwargs)
                tracer.keys[(run, name)].add(k)
                tracer._alive.append(alive)
            if work is not None:
                for counter, amount in work(fn, args, kwargs).items():
                    tracer.work[(run, counter)] += amount
            rec = [name, 0.0, 0.0, stack[-1], run, False]
            tracer.spans.append(rec)
            stack.append(len(tracer.spans) - 1)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Replace every traced function by its wrapper, wherever it is held."""
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "levylab" or n.startswith("levylab.")]
        for owner, attr, name, key, work in targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, key, work)
            places = {id(owner): owner}
            if not isinstance(owner, type):
                places.update((id(m), m) for m in holders)
            for place in places.values():
                for held, value in list(vars(place).items()):
                    if value is original:
                        setattr(place, held, wrapper)
                        self._restore.append((place, held, original))

    def uninstall(self):
        for place, held, original in reversed(self._restore):
            setattr(place, held, original)
        self._restore.clear()
        self._alive.clear()

    def write(self, path):
        """Save the spans as gzip CSV: name,start,end,parent,run,failed."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,run,failed\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                         f"{s[RUN]},{int(s[FAILED])}\n")


def span_stats(spans):
    """Per span name: [calls, self seconds, failed calls, total seconds].

    Self time is a span's duration minus the durations of its direct
    children.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    stats = defaultdict(lambda: [0, 0.0, 0, 0.0])
    for s, inner in zip(spans, child):
        st = stats[s[NAME]]
        dur = s[END] - s[START]
        st[0] += 1
        st[1] += dur - inner
        st[2] += s[FAILED]
        st[3] += dur
    return stats


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(tracer, runs):
    """Per-pass averages of the per-layer metrics over the traced ``runs``."""
    n = len(runs)
    stats = span_stats(tracer.spans)
    out = {}
    for *_, name, _key, _work in targets():
        st = stats.get(name, [0, 0.0, 0, 0.0])
        out[f"{name}.calls"] = st[0] / n
        out[f"{name}.self_s"] = st[1] / n
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            st[1] for name, st in stats.items() if _layer(name) == layer) / n
    out["quadrature.failures"] = sum(
        st[2] for name, st in stats.items() if _layer(name) == "quadrature") / n

    made = defaultdict(int)
    for s in tracer.spans:
        made[(s[RUN], s[NAME])] += 1
    for name in ("fokker_planck.fp_evolve", "fields.generate_test_fields"):
        # distinct argument sets over calls; 0 when the workload never calls it
        out[f"{name}.distinct_ratio"] = sum(
            len(tracer.keys[(r, name)]) / made[(r, name)]
            for r in runs if made[(r, name)]) / n
    for counter in ("spectral.bytes", "fokker_planck.nudft_bytes",
                    "entropy.dissipation.shifts"):
        out[counter] = sum(tracer.work[(r, counter)] for r in runs) / n

    wall = sum(st[3] for name, st in stats.items() if _layer(name) == "harness") / n
    out["trace.wall_s"] = wall
    out["trace.coverage"] = (
        sum(out[f"{layer}.self_s"] for layer in LAYERS) / wall if wall else 0.0)
    return out
