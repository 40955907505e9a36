"""Fractional heat semigroup and its functional inequalities.

The flow of du/dt + g_alpha[u] = 0 is exact in Fourier space: P_t is the
multiplier exp(-t |xi|^alpha).  This module evaluates both sides of the
sharp Euclidean logarithmic Sobolev inequality, whose Dirichlet energy
int (g_{alpha/2}[u])^2 dx is a Parseval sum over the half spectrum, the
hypercontractivity and ultracontractivity bounds it implies, and the
pointwise Kato inequality for convex functions of the field.  Every
transform, and the Parseval sum, comes from ``spectral``.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DegenerateField, InvalidAlpha, InvalidExponents, LevyLabError
from .spectral import (SpectralField, _inverse, _parseval, _riemann_norm,
                       apply_multiplier, lp_norm)

__all__ = [
    "heat_evolve",
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
    # t |xi|^alpha may overflow to inf, whose exp(-inf) = 0 is right
    with np.errstate(over="ignore"):
        exponent = -t * f.grid.symbol(alpha)
    return apply_multiplier(f, np.exp(exponent))


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


def lsi_gap(f: SpectralField, alpha):
    """Both sides of the Euclidean log-Sobolev inequality at unit L2 norm.

    Returns a list with one pair (lhs, rhs) per exponent in the sequence
    ``alpha``: lhs = Ent_dx(f^2) and
    rhs = (n/alpha) log(A * int (g_{alpha/2}[f])^2 dx); the caller asserts
    lhs <= rhs.  The field is renormalized to unit L2 norm if needed, and
    transformed, squared in modulus and its lhs taken once for the sequence.
    """
    g, n = f.grid, f.grid.d
    nrm = lp_norm(f, 2)
    if nrm == 0.0:
        raise DegenerateField("cannot renormalize the zero field")
    if abs(nrm - 1.0) > 1e-8:
        f = f.with_values(f.values / nrm)
    v2 = f.values**2
    # f^2 log f^2 -> 0 continuously at zeros of f, where log 1 = 0 stands in
    ent = np.where(v2 > 1e-300, v2, 1.0)
    np.log(ent, out=ent)
    ent *= v2
    lhs = float(np.sum(ent) * g.dx**n)
    del v2, ent  # before the transform, whose arrays then reuse their pages
    # int (g_{a/2}[f])^2 dx = sum |xi|^a |f^|^2 dxi^d / (2 pi)^d per exponent,
    # by the Parseval sum over the half spectrum (|f^| is even for a real f)
    power = np.abs(f.half_spectrum)
    np.square(power, out=power)
    p = np.empty_like(power)
    for a in alpha:
        _check_alpha(a)
    energies = [_parseval(g, np.multiply(g.symbol(a), power, out=p)) for a in alpha]
    if any(e <= 0.0 for e in energies):
        raise DegenerateField("field has no Dirichlet energy")
    return [(lhs, (n / a) * math.log(lsi_constant(n, a) * e))
            for a, e in zip(alpha, energies)]


def _closed_or_log(closed, log_value):
    """A bound by its closed form ``closed()`` where that is not infinite (a
    NaN t gives a NaN), else exp(log_value()), the same bound taken in logs,
    where a power of the closed form passed the largest float.  Raises
    LevyLabError where the bound itself is past it: no infinite bound reaches
    a ratio, where it would read as 0, a pass."""
    for bound in (closed, lambda: math.exp(log_value())):
        with suppress(OverflowError):
            value = bound()
            if value != math.inf:
                return value
    raise LevyLabError(f"the smoothing bound e^{log_value():.6g} is past the "
                       "largest float")


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
    (A n / (2 alpha t))^{n/(2 alpha)} with p = 2; q = p returns 1.  Where a
    power of the closed form overflows (alpha below about 1e-3) the bound is
    taken in logs; a bound past the largest float raises LevyLabError.
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
        base, expo = A * n / (2.0 * alpha * t), n / (2.0 * alpha)
        bound = _closed_or_log(lambda: base ** expo, lambda: expo * math.log(base))
    elif q == p:
        bound = 1.0
    else:
        base, expo, gain, loss = (A * n * (q - p) / (2.0 * alpha * t),
                                  n * (q - p) / (alpha * p * q), n / (q * alpha),
                                  n / (p * alpha))
        bound = _closed_or_log(
            lambda: base ** expo * p ** gain / q ** loss,
            lambda: expo * math.log(base) + gain * math.log(p) - loss * math.log(q))
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


def _report(alpha, p, q, t, lhs, rhs):
    # an rhs past the largest float would read as ratio 0, a pass
    ratio = lhs / rhs if rhs not in (0.0, math.inf) else math.inf
    return HypercontractivityReport(alpha, p, q, t, lhs, rhs, ratio,
                                    violated=not (ratio <= 1.0 + 1e-6))


def verify_hypercontractivity(fields, alpha, p, q, t):
    """||P_t f||_q / (||f||_p * bound), inf where the bound is 0 (as at a t
    near the largest float) or ||f||_p * bound is past the largest float;
    flags a violation above 1 + 1e-6.

    ``fields`` is an iterable of fields on one grid (ValueError otherwise),
    such as a battery's generator; ``alpha``, ``p``, ``q`` and ``t`` are
    sequences.  Returns reports[h] for the h-th field: one report per tuple of
    ``product(alpha, p, q, t)``, in that order.  Every bound is checked before
    any transform.  Of each field only ||f||_p per p and its half spectrum
    are kept, so a generator's fields are freed as they are read; then
    exp(-t |xi|^alpha) is made once per (alpha, t) and P_t f once per
    (f, alpha, t), each into the same preallocated arrays.
    """
    fields = iter(fields)
    head = [next(fields)]
    g = head[0].grid
    sweep = list(product(*(range(len(x)) for x in (alpha, p, q, t))))
    bounds = [ultracontractivity_constant(g.d, alpha[i], p[j], q[k], t[n]).bound
              for i, j, k, n in sweep]
    work = np.empty(g.shape)

    def kept(f):
        if f.grid != g:
            raise ValueError("the fields of one sweep must share their grid")
        row = [_riemann_norm(f.values, x, g, work) for x in p]
        if 0.0 in row:
            raise DegenerateField("hypercontractivity ratio undefined for f = 0")
        return row, f.half_spectrum

    # no name holds a field while the next is made: head.pop() hands the first
    # one over, and map each of the others
    norms, spectra = zip(*[kept(head.pop()), *map(kept, fields)])
    m = np.empty(g.half_shape)
    spectrum = np.empty(g.half_shape, complex)
    evolved = np.empty(g.shape)
    lhs = {}
    for i, n in product(range(len(alpha)), range(len(t))):
        with np.errstate(over="ignore"):  # to -inf, whose exp is the right 0
            np.multiply(g.symbol(alpha[i]), -t[n], out=m)
        np.exp(m, out=m)
        for h, half in enumerate(spectra):
            _inverse(np.multiply(half, m, out=spectrum), evolved)
            for k, x in enumerate(q):
                lhs[h, i, k, n] = _riemann_norm(evolved, x, g, work)
    return [[_report(alpha[i], p[j], q[k], t[n], lhs[h, i, k, n], norms[h][j] * bound)
             for (i, j, k, n), bound in zip(sweep, bounds)] for h in range(len(spectra))]


@dataclass(frozen=True)
class KatoReport:
    max_violation: float
    scale: float
    passed: bool


def kato_check(u: SpectralField, phi, dphi, alpha):
    """Pointwise check of g_alpha[phi(u)] <= phi'(u) g_alpha[u].

    ``phi`` and ``dphi`` are sequences of convex functions and of their
    derivatives, evaluated at the grid values of u, and ``alpha`` is a
    sequence of exponents.  Returns reports[i][j] for alpha[i] and phi[j].
    A pair passes when the largest pointwise excess stays below
    1e-8 * (1 + max |rhs|).  Each phi(u) is transformed once and g_alpha[u]
    evaluated once per exponent; every exponent writes g_alpha[u],
    phi'(u) g_alpha[u] and g_alpha[phi(u)] into the same preallocated arrays.
    """
    composed = [u.with_values(p(u.values)).half_spectrum for p in phi]
    slopes = [dp(u.values) for dp in dphi]
    g = u.grid
    spectrum = np.empty(g.half_shape, complex)
    lap_u, rhs, lap_w = (np.empty(g.shape) for _ in range(3))
    reports = []
    for a in alpha:
        _check_alpha(a)
        symbol = g.symbol(a)
        _inverse(np.multiply(u.half_spectrum, symbol, out=spectrum), lap_u)
        row = []
        for w, slope in zip(composed, slopes):
            np.multiply(slope, lap_u, out=rhs)
            _inverse(np.multiply(w, symbol, out=spectrum), lap_w)
            lap_w -= rhs
            viol = float(np.max(lap_w))
            scale = 1.0 + max(float(np.max(rhs)), -float(np.min(rhs)))
            row.append(KatoReport(viol, scale, viol <= 1e-8 * scale))
        reports.append(row)
    return reports
