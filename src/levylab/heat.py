"""Fractional heat semigroup and its functional inequalities.

The flow of du/dt + g_alpha[u] = 0 is exact in Fourier space: P_t is the
multiplier exp(-t |xi|^alpha).  This module evaluates both sides of the
sharp Euclidean logarithmic Sobolev inequality, the hypercontractivity and
ultracontractivity bounds it implies, the pointwise Kato inequality for
convex functions of the field, and the half-operator Dirichlet identity
int u g_alpha[u] dx = int (g_{alpha/2}[u])^2 dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateField, InvalidAlpha, InvalidExponents
from .spectral import SpectralField, apply_multiplier, lp_norm

__all__ = [
    "heat_evolve",
    "half_operator_norm",
    "fractional_laplacian",
    "lsi_gap",
    "lsi_constant",
    "ultracontractivity_constant",
    "UltracontractivityBound",
    "HypercontractivityReport",
    "verify_hypercontractivity",
    "kato_check",
    "KatoReport",
]


def _check_alpha(alpha):
    if not (0.0 < alpha <= 2.0):
        raise InvalidAlpha(f"alpha must lie in (0, 2], got {alpha}")


def heat_evolve(f: SpectralField, alpha: float, t: float) -> SpectralField:
    """P_t f: apply the multiplier exp(-t |xi|^alpha)."""
    _check_alpha(alpha)
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0:
        return f

    def mult(*axes):
        r = np.sqrt(sum(a**2 for a in axes))
        return np.exp(-t * r**alpha)

    return apply_multiplier(f, mult)


def fractional_laplacian(f: SpectralField, alpha: float) -> SpectralField:
    """g_alpha[f], the multiplier |xi|^alpha (so that -g_alpha generates P_t)."""
    _check_alpha(alpha)

    def mult(*axes):
        r = np.sqrt(sum(a**2 for a in axes))
        return r**alpha

    return apply_multiplier(f, mult)


def half_operator_norm(f: SpectralField, alpha: float) -> float:
    """int (g_{alpha/2}[f])^2 dx = sum |xi|^alpha |f^(xi)|^2 dxi^d / (2 pi)^d."""
    _check_alpha(alpha)
    g = f.grid
    r = g.freq_norm()
    w = (g.dxi / (2.0 * np.pi)) ** g.d
    return float(np.sum(r**alpha * np.abs(f.coefficients) ** 2) * w)


def lsi_constant(n: int, alpha: float) -> float:
    """The constant multiplying the Dirichlet energy inside the logarithm.

    With C = 2 Gamma(n/alpha) / (alpha Gamma(n/2)) this is

        A = alpha C^{alpha/n} / (n pi^{alpha/2} e^{alpha-1}),

    which reduces to the sharp Euclidean constant 2/(n pi e) at alpha = 2.
    """
    _check_alpha(alpha)
    log_c = math.log(2.0) + math.lgamma(n / alpha) - math.log(alpha) - math.lgamma(n / 2.0)
    log_a = (
        math.log(alpha)
        + (alpha / n) * log_c
        - math.log(n)
        - 0.5 * alpha * math.log(math.pi)
        - (alpha - 1.0)
    )
    return math.exp(log_a)


def lsi_gap(f: SpectralField, alpha: float):
    """Both sides of the Euclidean log-Sobolev inequality at unit L2 norm.

    Returns (lhs, rhs) with lhs = Ent_dx(f^2) and
    rhs = (n/alpha) log(A * int (g_{alpha/2}[f])^2 dx); the caller asserts
    lhs <= rhs.  The field is renormalized to unit L2 norm if needed.
    """
    _check_alpha(alpha)
    n = f.grid.d
    nrm = lp_norm(f, 2)
    if nrm == 0.0:
        raise DegenerateField("cannot renormalize the zero field")
    if abs(nrm - 1.0) > 1e-8:
        f = f.with_values(f.values / nrm)
    energy = half_operator_norm(f, alpha)
    if energy <= 0.0:
        raise DegenerateField("field has no Dirichlet energy")
    v2 = f.values**2
    # f^2 log f^2 -> 0 continuously at zeros of f
    logs = np.where(v2 > 1e-300, np.log(np.where(v2 > 1e-300, v2, 1.0)), 0.0)
    lhs = float(np.sum(v2 * logs) * f.grid.dx**n)
    rhs = (n / alpha) * math.log(lsi_constant(n, alpha) * energy)
    return lhs, rhs


@dataclass(frozen=True)
class UltracontractivityBound:
    n: int
    alpha: float
    p: float
    q: float
    t: float
    A: float
    bound: float


def ultracontractivity_constant(
    n: int, alpha: float, p: float, q: float, t: float
) -> UltracontractivityBound:
    """The smoothing constant so that ||P_t f||_q <= bound * ||f||_p.

    q = inf dispatches to the closed ultracontractive form
    (A n / (2 alpha t))^{n/(2 alpha)} with p = 2; q = p returns 1.
    """
    _check_alpha(alpha)
    if t <= 0:
        raise ValueError("the bound is finite only for t > 0")
    if p < 2 or (q != np.inf and q < p):
        raise InvalidExponents(f"need q >= p >= 2, got p={p}, q={q}")
    A = lsi_constant(n, alpha)
    if q == np.inf:
        if p != 2:
            raise InvalidExponents("the q = inf form requires p = 2")
        bound = (A * n / (2.0 * alpha * t)) ** (n / (2.0 * alpha))
    elif q == p:
        bound = 1.0
    else:
        expo = n * (q - p) / (alpha * p * q)
        bound = (
            (A * n * (q - p) / (2.0 * alpha * t)) ** expo
            * p ** (n / (q * alpha))
            / q ** (n / (p * alpha))
        )
    return UltracontractivityBound(n=n, alpha=alpha, p=p, q=q, t=t, A=A, bound=bound)


@dataclass(frozen=True)
class HypercontractivityReport:
    alpha: float
    p: float
    q: float
    t: float
    lhs: float
    rhs: float
    ratio: float
    violated: bool


def verify_hypercontractivity(
    f: SpectralField, alpha: float, p: float, q: float, t: float
) -> HypercontractivityReport:
    """||P_t f||_q / (||f||_p * bound); flags a violation above 1 + 1e-6."""
    fp = lp_norm(f, p)
    if fp == 0.0:
        raise DegenerateField("hypercontractivity ratio undefined for f = 0")
    bound = ultracontractivity_constant(f.grid.d, alpha, p, q, t).bound
    lhs = lp_norm(heat_evolve(f, alpha, t), q)
    rhs = fp * bound
    ratio = lhs / rhs
    return HypercontractivityReport(
        alpha=alpha, p=p, q=q, t=t, lhs=lhs, rhs=rhs, ratio=ratio,
        violated=not (ratio <= 1.0 + 1e-6),
    )


@dataclass(frozen=True)
class KatoReport:
    max_violation: float
    scale: float
    passed: bool


def kato_check(u: SpectralField, phi, dphi, alpha: float) -> KatoReport:
    """Pointwise check of g_alpha[phi(u)] <= phi'(u) g_alpha[u].

    ``phi`` and ``dphi`` are the convex function and its derivative,
    evaluated at the grid values of u.  Passes when the largest pointwise
    excess stays below 1e-8 * (1 + max |rhs|).
    """
    lhs = fractional_laplacian(u.with_values(phi(u.values)), alpha).values
    rhs = dphi(u.values) * fractional_laplacian(u, alpha).values
    viol = float(np.max(lhs - rhs))
    scale = 1.0 + float(np.max(np.abs(rhs)))
    return KatoReport(max_violation=viol, scale=scale, passed=viol <= 1e-8 * scale)
