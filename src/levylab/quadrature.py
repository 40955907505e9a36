"""Adaptive 1-D quadrature shared by all modules.

The only module that calls QUADPACK (Piessens et al., 1983), so every
integral in the package follows one tolerance and escalation policy:
complex integrands are split into real and imaginary parts, semi-infinite
intervals are handled natively, oscillatory weights (QAWO/QAWF) are passed
through, and failure to reach the requested tolerance raises instead of
silently returning a bad estimate.
"""

import warnings

import numpy as np
from scipy import integrate

from .errors import QuadratureFailure

__all__ = ["integrate_scaled", "try_integrate"]

# QUADPACK reports its own absolute-error estimate; accept the result when the
# estimate is within a small multiple of the requested tolerance (the estimate
# is conservative), otherwise escalate.
_SLACK = 50.0


def _quad_real(g, a, b, tol, points=None, weight=None, wvar=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(
                g, a, b, epsabs=tol, epsrel=tol, limit=400, points=points,
                weight=weight, wvar=wvar,
            )
        except integrate.IntegrationWarning as exc:
            # retry once without escalating round-off warnings: slowly
            # convergent but finite integrals often land within tolerance
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                val, err = integrate.quad(
                    g, a, b, epsabs=tol, epsrel=tol, limit=400, points=points,
                    weight=weight, wvar=wvar,
                )
            if not np.isfinite(val) or err > _SLACK * max(tol, tol * abs(val)):
                raise QuadratureFailure(
                    f"quadrature on [{a}, {b}] did not converge: "
                    f"estimate {val!r}, error {err!r} ({exc})",
                    achieved_error=err,
                    value=val,
                ) from exc
    if not np.isfinite(val) or err > _SLACK * max(tol, tol * abs(val)):
        raise QuadratureFailure(
            f"quadrature on [{a}, {b}] reached error {err!r} > tol {tol!r}",
            achieved_error=err,
            value=val,
        )
    return val


def integrate_scaled(g, interval, tol=1e-10, points=None, weight=None, wvar=None):
    """Adaptive quadrature of ``g`` over ``interval`` with error <= tol.

    ``interval`` is a pair (a, b); ``a = -inf`` and/or ``b = inf`` are
    allowed (QUADPACK applies a tail change of variables internally).
    Complex-valued integrands are integrated componentwise.  ``weight`` and
    ``wvar`` are scipy's QUADPACK weight functions: ``weight="cos"`` with
    ``wvar=w`` integrates g(x) cos(w x), by QAWF on a semi-infinite interval.

    Raises QuadratureFailure (carrying the achieved error) when the adaptive
    scheme cannot reach the tolerance.
    """
    a, b = interval
    probe = g(0.5 * (a + b)) if np.isfinite(a) and np.isfinite(b) else g(
        a + 1.0 if np.isfinite(a) else (b - 1.0 if np.isfinite(b) else 0.0)
    )
    if np.iscomplexobj(probe) or isinstance(probe, complex):
        re = _quad_real(lambda s: np.real(g(s)), a, b, tol, points, weight, wvar)
        im = _quad_real(lambda s: np.imag(g(s)), a, b, tol, points, weight, wvar)
        return re + 1j * im
    return _quad_real(g, a, b, tol, points, weight, wvar)


def try_integrate(g, interval, tol=1e-10):
    """Like integrate_scaled but returns (value, diverged) instead of raising.

    Used by validation routines where divergence is an expected, reportable
    outcome rather than an error.
    """
    try:
        return integrate_scaled(g, interval, tol), False
    except QuadratureFailure as exc:
        return exc.value, True
