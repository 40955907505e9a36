"""Adaptive 1-D quadrature shared by all modules.

The only module that calls QUADPACK (Piessens et al., 1983), so every
adaptive integral in the package follows one tolerance and escalation
policy: the integrand is real (a caller integrates the real and imaginary
parts of a complex one apart), semi-infinite intervals are handled natively,
and failure to reach the requested tolerance raises instead of silently
returning a bad estimate.  Its callers are the analytic law's constants (B,
the moments, the mass, the log tail, b_A, an odd part's big jumps) and the
pieces of its N_inf; a and G of an analytic law are a fixed rule on arrays in
``levy``, under the same tolerance and slack.  ``scipy.integrate`` is imported
on the first call, so a run that never integrates never loads it: no run on a
stable law or without jumps, whose records are closed forms, and no ``fp`` or
``decay`` on a d=1 table, whose record is a fixed rule.  An analytic density,
the N_inf of a table or of an analytic density, and a d=2 table's J0 still
load SciPy.
"""

import numpy as np

from .errors import QuadratureFailure

__all__ = ["integrate_scaled", "try_integrate"]

# QUADPACK reports its own absolute-error estimate, and levy's fixed rule its
# |K21 - G10|; accept the result when the estimate is within a small multiple
# of the requested tolerance (the estimate is conservative), otherwise escalate.
_SLACK = 50.0


def integrate_scaled(g, interval, tol=1e-10):
    """Adaptive quadrature of the real integrand ``g`` over ``interval`` with
    error <= tol.

    ``interval`` is a pair (a, b); ``a = -inf`` and/or ``b = inf`` are
    allowed (QUADPACK applies a tail change of variables internally).

    Raises QuadratureFailure (carrying the achieved error) when the adaptive
    scheme cannot reach the tolerance.
    """
    from scipy import integrate
    a, b = interval
    # with full_output, QUADPACK returns its warning as a fourth item instead
    # of issuing it: slowly convergent but finite integrals often land within
    # tolerance, so only the error estimate decides
    val, err, _, *message = integrate.quad(
        g, a, b, epsabs=tol, epsrel=tol, limit=400, full_output=1)
    if not np.isfinite(val) or err > _SLACK * max(tol, tol * abs(val)):
        raise QuadratureFailure(
            f"quadrature on [{a}, {b}] reached error {err!r} > tol {tol!r}: "
            f"estimate {val!r}" + (f" ({message[0]})" if message else ""),
            achieved_error=err,
            value=val,
        )
    return val


def try_integrate(g, interval, tol=1e-10):
    """Like integrate_scaled but returns (value, diverged) instead of raising.

    Used by validation routines where divergence is an expected, reportable
    outcome rather than an error.
    """
    try:
        return integrate_scaled(g, interval, tol), False
    except QuadratureFailure as exc:
        return exc.value, True
