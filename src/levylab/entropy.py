"""Phi-entropies, Bregman distances, dissipation functionals and decay tracking.

For a convex Phi and a probability weight mu, the Phi-entropy of a
nonnegative v is Ent(v) = int Phi(v) dmu - Phi(int v dmu), evaluated as the
mu-average of the Bregman distance D_Phi(v, m) to the mean m = int v dmu,
which is the same quantity without the cancellation.  Along the
confined Levy flow the entropy of v = u / u_inf dissipates through a
Gaussian Dirichlet term and a Bregman jump term; both are evaluated here on
the grid.  The jump term sums the Bregman distance over every periodic
lattice shift at once, as FFT cross-correlations weighted by the jump density
folded onto the lattice, plus a compensated small-jump exclusion.  The fold
evaluates the density's radial profile once, as one array over the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .fokker_planck import SteadyState, fp_evolve
from .levy import (
    LevyDensity,
    LevyTriplet,
    _checked,
    _law,
    _quadratic_form,
    _radial_argument,
)
from .spectral import Grid, SpectralField, _forward, _inverse

__all__ = [
    "PhiFunction",
    "WeightedMeasure",
    "DecayReport",
    "phi_entropy",
    "dissipation",
    "modified_lsi_check",
    "entropy_production_check",
    "ProductionReport",
    "decay_track",
]

# quotients u/u_inf are floored here before x log x evaluations
V_FLOOR = 1e-14


@dataclass(frozen=True)
class PhiFunction:
    """An admissible convex Phi with first and second derivatives."""

    phi: Callable
    dphi: Callable
    d2phi: Callable
    name: str = "phi"

    @classmethod
    def xlogx(cls) -> "PhiFunction":
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)

        return cls(
            phi=f,
            dphi=lambda x: np.log(x) + 1.0,
            d2phi=lambda x: 1.0 / np.asarray(x, dtype=float),
            name="xlogx",
        )

    @classmethod
    def quadratic(cls) -> "PhiFunction":
        return cls(
            phi=lambda x: 0.5 * np.asarray(x, dtype=float) ** 2,
            dphi=lambda x: np.asarray(x, dtype=float),
            d2phi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            name="quadratic",
        )

    def bregman(self, a, b):
        """D(a, b) = Phi(a) - Phi(b) - Phi'(b)(a - b), vectorized."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        self._check_base(b)
        if self.name == "xlogx":
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0) / b), 0.0)
            return term - a + b
        return self.phi(a) - self.phi(b) - self.dphi(b) * (a - b)

    def _check_base(self, b):
        if self.name == "xlogx" and np.any(b <= 0):
            raise DomainError("x log x Bregman distance needs b > 0")


@dataclass(frozen=True)
class WeightedMeasure:
    """A probability weight on the grid: weights >= 0 with unit mass."""

    grid: Grid
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if np.any(w < 0):
            raise ValueError("measure weights must be nonnegative")
        mass = float(np.sum(w) * self.grid.dx**self.grid.d)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(f"measure mass {mass} != 1")

    @classmethod
    def from_field(cls, field: SpectralField) -> "WeightedMeasure":
        vals = np.clip(field.values, 0.0, None)
        # weights below the spectral noise floor of the density are pure
        # roundoff and would otherwise leak into 1/v-weighted integrands
        vals[vals < 1e-13 * np.max(vals)] = 0.0
        mass = float(np.sum(vals) * field.grid.dx**field.grid.d)
        return cls(field.grid, vals / mass)


def _values(v):
    return v.values if isinstance(v, SpectralField) else np.asarray(v, dtype=float)


def _entropy_values(v, phi: PhiFunction):
    vals = _values(v)
    return np.clip(vals, 1e-300, None) if phi.name == "xlogx" else vals


def phi_entropy(v, mu: WeightedMeasure, phi: PhiFunction) -> float:
    """Ent(v) = int Phi(v) dmu - Phi(int v dmu), nonnegative by Jensen.

    Evaluated as sum mu D_Phi(v, m) cell with m = sum v mu cell, the
    recentring ``dissipation`` uses: every term is nonnegative and O((v - m)^2),
    so nothing cancels between two O(1) integrals.
    """
    vals = _entropy_values(v, phi)
    cell = mu.grid.dx**mu.grid.d
    mean = float(np.sum(vals * mu.weights) * cell)
    return float(np.sum(phi.bregman(vals, mean) * mu.weights) * cell)


def _entropy_roundoff(v, mu: WeightedMeasure, phi: PhiFunction) -> float:
    """Bound on the round-off of phi_entropy(v).

    D_Phi(v, m) is a sum of terms that nearly cancel when v is near m:
    Phi(v), Phi(m) and Phi'(m)(v - m), or v log(v/m), v and m for x log x.
    Their magnitudes add up to at most
    |Phi(v)| + |Phi(m)| + (2 + |Phi'(m)|)(|v| + |m|), and each is computed to
    a few units of roundoff, so 8 eps times the mu-average of that bound
    covers the error of every term and of the nonnegative weighted sum; it
    is about 1e-14 for v near 1.
    """
    vals = _entropy_values(v, phi)
    cell = mu.grid.dx**mu.grid.d
    m = float(np.sum(vals * mu.weights) * cell)
    terms = (np.abs(phi.phi(vals)) + abs(float(phi.phi(m)))
             + (2.0 + abs(float(phi.dphi(m)))) * (np.abs(vals) + abs(m)))
    return 8.0 * np.finfo(float).eps * float(np.sum(terms * mu.weights) * cell)


_FD8 = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)


def _fd_gradient(vals, grid):
    """Eighth-order centered difference gradient, one array per axis.

    Local stencils avoid the global Gibbs pollution a spectral derivative
    picks up from non-periodic ratio fields; the wrap-around rows at each
    boundary are overwritten with one-sided second-order values.  The
    shifted copies are slices of one copy that wraps 4 cells each side.
    """
    out = []
    n = len(_FD8)
    for axis in range(grid.d):
        v = np.moveaxis(vals, axis, 0)
        m = v.shape[0]
        wrapped = np.concatenate([v[-n:], v, v[:n]])
        der = np.zeros_like(vals)
        view = np.moveaxis(der, axis, 0)
        for k, c in enumerate(_FD8, start=1):
            view += c * (wrapped[n + k:n + k + m] - wrapped[n - k:n - k + m])
        der /= grid.dx
        edge = np.moveaxis(np.gradient(vals, grid.dx, axis=axis), axis, 0)
        view[:n], view[-n:] = edge[:n], edge[-n:]
        out.append(der)
    return out


@lru_cache(maxsize=16)
def _jump_kernel(nu: LevyDensity, grid: Grid, z_extent: int):
    """Jump density folded onto the periodic lattice, and its small-ball moment.

    W[s] sums N(k dx) over the lattice points 0 < |k|_inf <= z_extent M / 2
    with k = s (mod M); W[0] = 0, since those shifts map v onto itself.  One
    profile array (radii in d=2) is folded in lattice order by ``np.add.at``.
    """
    M, dx = grid.M, grid.dx
    K = z_extent * M // 2
    k = np.indices((2 * K + 1,) * grid.d).reshape(grid.d, -1) - K
    k = k[:, np.any(k, axis=0)]
    x = _radial_argument(k * dx)
    W = np.zeros(grid.shape)
    np.add.at(W, tuple(k % M), _checked(nu.profile, x))
    W.flat[0] = 0.0
    W.flags.writeable = False
    return W, nu.small_ball_second_moment(0.5 * dx)


def _correlate(f_hat, g_hat, shape):
    """Circular cross-correlation sum_x f(x) g(x + s) from real FFTs."""
    return _inverse(np.conj(f_hat) * g_hat, np.empty(shape))


def dissipation(
    v,
    mu: WeightedMeasure,
    triplet: LevyTriplet,
    phi: PhiFunction,
    z_extent: int = 2,
):
    """Gaussian and jump dissipation magnitudes of the entropy flow.

    ``v`` is a SpectralField or an array of values on the grid of ``mu``.
    gaussian = int Phi''(v) grad v . sigma grad v dmu (finite-difference
    gradient); jump = int int D(v(x), v(x+z)) N(z) dz dmu(x), the z-integral
    on the grid's own lattice out to |z|_inf <= z_extent * L with periodic
    shifts.  Splitting D(a, b) = Phi(a) - [Phi(b) - b Phi'(b)] - a Phi'(b)
    turns the x-sum at every shift s into sum mu Phi(v) minus the circular
    cross-correlations corr(mu, Phi(v) - v Phi'(v))(s) and
    corr(mu v, Phi'(v))(s), all shifts at once by FFT; these are dotted with
    the jump density folded onto the lattice.  The split is applied to Phi
    recentred at the mu-mean m of v, Phi(x) - Phi(m) - Phi'(m)(x - m) =
    D(x, m), in the variable v - m: D is unchanged and every correlated
    array is O(v - m) instead of O(1), which keeps the cancellation small.
    The excluded half-cell at z = 0 is compensated by the second-order
    Taylor proxy (1/2) Phi''(v) (z . grad v)^2 against the small-ball
    moment of N.
    """
    g = mu.grid
    vals = _values(v)
    cell = g.dx**g.d
    grads = _fd_gradient(vals, g)

    quad = _quadratic_form(triplet.sigma, grads)
    gaussian = float(np.sum(phi.d2phi(vals) * quad * mu.weights) * cell)

    # the zero law's jump part is 0, with no field refused and no transform
    if not _law(triplet.nu).jumps:
        return gaussian, 0.0

    phi._check_base(vals)
    W, m2 = _jump_kernel(triplet.nu, g, z_extent)
    wmu = mu.weights
    m = float(np.sum(vals * wmu) * cell)
    phi_v = phi.bregman(vals, m)
    dphi = phi.dphi(vals) - phi.dphi(m)
    corr = _correlate(_forward(wmu), _forward(phi_v - (vals - m) * dphi), g.shape)
    corr += _correlate(_forward(wmu * (vals - m)), _forward(dphi), g.shape)
    per_shift = float(np.sum(phi_v * wmu)) - corr
    jump = float(np.sum(W * per_shift)) * cell * g.dx**g.d
    # isotropic small-ball proxy: each direction carries 1/d of the moment
    jump += m2 / (2 * g.d) * float(
        np.sum(phi.d2phi(vals) * sum(gr**2 for gr in grads) * wmu)
    ) * cell
    return gaussian, jump


def modified_lsi_check(
    v,
    mu: WeightedMeasure,
    triplet_of_mu: LevyTriplet,
    phi: PhiFunction,
):
    """Entropy against its dissipation bound for an infinitely divisible mu.

    ``triplet_of_mu`` carries the law's own diffusion matrix and Levy
    density (the drift plays no role).  Returns (entropy, rhs, ratio); the
    caller asserts ratio <= 1 + 1e-6.  Entropy without dissipation has
    ratio inf, a failure.
    """
    ent = phi_entropy(v, mu, phi)
    gauss, jump = dissipation(v, mu, triplet_of_mu, phi)
    rhs = gauss + jump
    ratio = 0.0 if ent <= 1e-14 and rhs <= 1e-14 else (ent / rhs if rhs else math.inf)
    return ent, rhs, ratio


@dataclass(frozen=True)
class ProductionReport:
    """Entropy balance at one time.

    ``residual`` is |fd + diss| / (1 + diss) and decides ``passed``;
    ``relative_residual`` is |fd + diss| / diss (inf when only diss is 0).
    """

    residual: float
    finite_difference: float
    gaussian_part: float
    jump_part: float
    passed: bool
    relative_residual: float


def _ratio_field(u: SpectralField, steady: SteadyState) -> np.ndarray:
    # far tails of the steady density sit at spectral-noise level; flooring
    # the denominator there is harmless since those points carry no mu-mass
    den = steady.density.values
    floor = 1e-15 * float(np.max(den))
    return np.clip(u.values / np.clip(den, floor, None), V_FLOOR, None)


def entropy_production_check(
    u0: SpectralField,
    triplet: LevyTriplet,
    phi: PhiFunction,
    t: float,
    dt: Sequence[float],
    steady: SteadyState,
    tol: float = 1e-10,
) -> list[ProductionReport]:
    """Centered finite differences of the entropy against its dissipation.

    Returns a list with one report per step in the sequence ``dt``.  A
    report's residual is |d/dt Ent + gaussian + jump| / (1 + dissipation),
    which passes when below max(1e-4, 10 dt^2 scale); its relative residual
    divides by the dissipation alone.  u0 is evolved once per distinct time
    t +- dt and once to t, where the dissipation is taken once for all steps.
    """
    mu = WeightedMeasure.from_field(steady.density)

    def ratio(tau):
        return _ratio_field(fp_evolve(u0, triplet, tau, tol), steady)

    ent = {tau: phi_entropy(ratio(tau), mu, phi)
           for tau in dict.fromkeys(x for h in dt for x in (t - h, t + h))}
    gauss, jump = dissipation(ratio(t), mu, triplet, phi)
    diss = gauss + jump
    reports = []
    for h in dt:
        fd = (ent[t + h] - ent[t - h]) / (2.0 * h)
        imbalance = abs(fd + diss)
        residual = imbalance / (1.0 + diss)
        scale = max(abs(fd), diss, 1.0)
        reports.append(ProductionReport(
            residual=residual,
            finite_difference=fd,
            gaussian_part=gauss,
            jump_part=jump,
            passed=residual < max(1e-4, 10.0 * h**2 * scale),
            relative_residual=(imbalance / diss if diss
                               else math.inf if imbalance else 0.0),
        ))
    return reports


@dataclass(frozen=True)
class DecayReport:
    times: list
    entropies: list
    fitted_rate: float
    bound_rate: float
    violations: list


def decay_track(
    u0: SpectralField,
    triplet: LevyTriplet,
    phi: Sequence[PhiFunction],
    times: Sequence[float],
    C: float,
    steady: SteadyState,
    tol: float = 1e-10,
) -> list[DecayReport]:
    """Entropy trajectory with a fitted log-linear rate and bound violations.

    A time t violates the bound when Ent(t) exceeds
    exp(-t/C) Ent(0) (1 + 1e-6) by more than the round-off of the two
    entropies (``_entropy_roundoff``, about 1e-14 for v near 1).  Steady
    initial data has Ent(0) = 0 and later entropies at round-off level; they
    violate nothing and, like every entropy below 1e-12 Ent(0) or its own
    round-off, are left out of the rate fit.  A NaN entropy violates the
    bound.  ``fitted_rate`` is NaN when fewer than two entropies are usable.
    ``phi`` is a sequence of PhiFunction, and the result a list with one
    report per Phi: the flow does not depend on Phi, so u0 is evolved and
    divided by u_inf once per time for all of them, one time after another,
    so only one time's ratio is held at once.
    """
    mu = WeightedMeasure.from_field(steady.density)
    times = [0.0] + [t for t in times if t > 0.0]
    per_phi = [([], []) for _ in phi]  # (entropies, round-off floors)
    for t in times:
        v = _ratio_field(fp_evolve(u0, triplet, t, tol) if t > 0 else u0, steady)
        for p, (e, f) in zip(phi, per_phi):
            e.append(phi_entropy(v, mu, p))
            f.append(_entropy_roundoff(v, mu, p))
    reports = []
    for ents, floors in per_phi:
        ent0 = ents[0]
        # phrased so that a NaN entropy (at t or at 0) is a violation
        violations = [
            t
            for t, e, f in zip(times[1:], ents[1:], floors[1:])
            if not e - f <= np.exp(-t / C) * (ent0 + floors[0]) * (1.0 + 1e-6)
        ]
        usable = [
            (t, e) for t, e, f in zip(times, ents, floors)
            if e > max(1e-12 * ent0, f, 1e-300)
        ]
        if len(usable) >= 2:
            ts = np.array([t for t, _ in usable])
            ls = np.log(np.array([e for _, e in usable]))
            fitted = -float(np.polyfit(ts, ls, 1)[0])
        else:
            fitted = np.nan
        reports.append(DecayReport(times=list(times), entropies=ents,
                                   fitted_rate=fitted, bound_rate=1.0 / C,
                                   violations=violations))
    return reports
