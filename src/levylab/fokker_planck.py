"""Levy-Fokker-Planck dynamics with linear confinement F(x) = x.

In Fourier variables the equation du/dt = I[u] + div(u x) becomes a
transport equation along the contracting frequency flow xi -> exp(-t) xi,
solved exactly by

    u^(t, xi) = u0^(exp(-t) xi) * exp( int_0^t psi(exp(-s) xi) ds ).

u0^ at the contracted frequencies exp(-t) xi_k is the trigonometric
interpolant of the grid coefficients, read from ``spectral``, which owns
every transform of the grid (here a chirp-z transform per axis) and the
test of u0's Nyquist edge.

The flow's invariant measure is the infinitely divisible law whose exponent
Psi(xi) = int_0^inf psi(exp(-s) xi) ds is the flow's exponent at t = inf,
and whose Levy density is the radial tail average
N_inf(z) = int_1^inf N(t z) t^{d-1} dt.

One function evaluates the flow's exponent at any t in (0, inf].  The
Gaussian and drift parts integrate in closed form, to
-xi.sigma xi (1 - exp(-2t)) / 2 and i b.xi (1 - exp(-t)).  The jump part a of
psi goes through one radial antiderivative: with
G(r) = int_0^r a(rho) / rho drho, the substitution rho = exp(-s) |xi| gives

    int_0^t a(exp(-s) xi) ds = G(|xi|) - G(exp(-t) |xi|),

which is G(|xi|) at t = inf, since G(0) = 0.  This holds because a depends
on |xi| alone: in d=2 the symbol is radial, and in d=1 a(-xi) = conj a(xi).
G, like every radial quantity of the jump law (the log tail, N_inf, the
drift shift b_A), is read from the law's record in ``levy``, so this module
knows neither how a law is given nor how it is integrated, nor whether it
has jumps: a triplet without them holds the zero law, whose G, N_inf and b_A
are zeros.  No time quadrature enters the flow.  A ``SteadyState`` holds
only what a grid adds to the law, the normalized density and its mass
defect; the law's own figures are read from its record, through
``check_log_tail`` and ``drift_correction``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeDensity
from .levy import (
    LevyDensity,
    LevyTriplet,
    LogTailReport,
    _checked,
    _gauss_drift_exponent,
    _law,
    _radial_argument,
)
from .spectral import Grid, SpectralField, _contracted

__all__ = [
    "fp_evolve",
    "steady_exponent",
    "build_steady_state",
    "SteadyState",
    "limit_levy_density",
    "limit_density",
    "drift_correction",
    "check_log_tail",
    "LogTailReport",
    "check_domination",
    "DominationReport",
    "check_radial_decay",
    "RadialDecayReport",
]

def _exponent(triplet: LevyTriplet, axes, t, tol):
    """int_0^t psi(exp(-s) xi) ds over one array (or number) per axis, for
    t in (0, inf]; t = inf gives Psi."""
    scale = np.exp(-t)
    gauss, drift = _gauss_drift_exponent(triplet, axes)
    # G(k) - G(scale k), or G(k) itself at scale = 0, where G(0) = 0
    k = np.asarray(_radial_argument(axes), dtype=float)
    ks = np.stack([k, scale * k]) if scale else k[None]
    G = _law(triplet.nu, tol).antiderivative(ks, anchored=not scale)
    G = G[0] - G[1] if scale else G[0]
    return gauss * (1.0 - np.exp(-2.0 * t)) / 2.0 + drift * (1.0 - scale) + G


def fp_evolve(
    u0: SpectralField, triplet: LevyTriplet, t: float, tol: float = 1e-10
) -> SpectralField:
    """Evolve the Fokker-Planck flow for time t >= 0.

    Warns with InterpolationDegradation when the initial coefficients have
    not decayed below 1e-12 (relative) at the Nyquist edge.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0:
        return u0
    g = u0.grid
    shifted = _contracted(u0, float(np.exp(-t)))
    exponent = _exponent(triplet, g.freqs(), t, tol)
    return SpectralField(g, g.synthesize(shifted * np.exp(exponent)))


def steady_exponent(triplet: LevyTriplet, xi, tol: float = 1e-10):
    """Psi(xi), the flow's exponent at t = inf, at one frequency, or on a
    mesh given as one array per axis, such as ``Grid.freqs()``.

    The Gaussian and drift parts are half and all of their psi terms; the
    jump part is G(|xi|), a Chebyshev table plus one kernel integral, or
    -|xi|^alpha / alpha for the stable family.
    """
    return _exponent(triplet, np.atleast_1d(np.asarray(xi, dtype=float)), np.inf, tol)


@dataclass(frozen=True)
class SteadyState:
    """Invariant measure of the confined Levy flow on a grid: its density,
    normalized, and how far the synthesized mass was from 1.  The law's own
    figures (the log tail, b_A) stay on its record; see ``check_log_tail``
    and ``drift_correction``."""

    density: SpectralField
    mass_defect: float


def check_log_tail(nu, tol: float = 1e-10) -> LogTailReport:
    """int_{|z| > 1} ln|z| N(z) dz; divergence is a flag, not an error.

    One integral of the radial density, int_1^inf ln(r) rho(r) dr (C / alpha^2
    for the stable family, 0 for the zero law of a triplet without jumps);
    raises NonFiniteDensity if N returns NaN or negative values.  Kept on the
    law's record, so that the steady build's Con1 check and its anchor share
    the integral.
    """
    return _law(nu, tol).log_tail


def limit_levy_density(nu, z, tol: float = 1e-10) -> float:
    """N_inf(z) = int_1^inf N(t z) t^{d-1} dt at one point z, from the law's record."""
    x = _radial_argument(np.atleast_1d(np.asarray(z, dtype=float)))
    if x == 0.0:
        raise ValueError("N_inf is undefined at z = 0")
    return float(_law(nu, tol).tail_average(x))


def limit_density(nu, tol) -> LevyDensity:
    """N_inf as a density: the jump density of the invariant law, from the
    law's record.  A stable law's is the stable density N / alpha (its
    divisor multiplied by alpha), the zero law's the zero law itself, and any
    other's an analytic density whose radial integrals go to QUADPACK."""
    return _law(nu, tol).limit_density()


def drift_correction(nu, tol: float = 1e-10) -> np.ndarray:
    """b_A: the drift shift between the flow's exponent and its Levy form,
    of shape (d,) for nu's dimension d, read from the law's record
    (read-only); zero for an even density, the zero law's included.  Raises
    QuadratureFailure if its integral fails."""
    return _law(nu, tol).drift


def build_steady_state(
    triplet: LevyTriplet, grid: Grid, tol: float = 1e-10
) -> SteadyState:
    """Construct the invariant measure on a grid.

    Raises Con1Violation when the logarithmic tail integral of the jump
    density diverges (from the law's record, before its table is built), and
    NegativeDensity when the inverse transform dips below -1e-6 of its
    maximum (an under-resolved grid).
    """
    vals = grid.synthesize(np.exp(steady_exponent(triplet, grid.freqs(), tol)))
    vmax = float(np.max(vals))
    if float(np.min(vals)) < -1e-6 * vmax:
        raise NegativeDensity(
            f"steady density dips to {np.min(vals):.3e} (max {vmax:.3e}); "
            "the grid under-resolves the invariant measure"
        )
    mass = grid.integrate(vals)
    return SteadyState(
        density=SpectralField(grid, values=np.clip(vals, 0.0, None) / mass),
        mass_defect=abs(mass - 1.0),
    )


@dataclass(frozen=True)
class DominationReport:
    C_est: float
    table: list  # (z, ratio) pairs
    unbounded: bool


def check_domination(nu, tol: float = 1e-10) -> DominationReport:
    """Estimate the best constant C with N_inf <= C N on a log sample grid.

    Flags ``unbounded`` when a sampled ratio exceeds 1e6 or when the ratios
    grow monotonically across at least three decades at either end of the
    grid.  The grid spans |z| in [1e-6, 1e3] at 3 samples per decade, on
    the ray z > 0 and, for a non-even d=1 density, on z < 0 after it, each
    ray judged alone; the profile and N_inf are evaluated on it as arrays.
    The zero law's ratios are all 0.
    """
    rays = (1.0,) if nu.is_even else (1.0, -1.0)
    z = np.concatenate([sign * np.logspace(-6.0, 3.0, 28) for sign in rays])
    n_val = _checked(nu.profile, z)
    n_inf = _law(nu, tol).tail_average(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(n_val > 0, n_inf / n_val, np.where(n_inf > 0, np.inf, 0.0))
    table = [(float(a), float(b)) for a, b in zip(z, ratios)]
    unbounded = bool(np.any(~np.isfinite(ratios)) or np.any(ratios > 1e6))

    def _diverging(seq):
        # monotone growth whose per-step increments do not level off;
        # a ratio converging to a finite C has geometrically shrinking
        # increments, a log divergence keeps them constant
        if not np.all(np.diff(seq) > 0) or seq[-1] < 1.2 * seq[0]:
            return False
        mid = len(seq) // 2
        return seq[-1] - seq[mid] >= 0.5 * (seq[mid] - seq[0])

    # three decades at 3 samples per decade, at both ends of each ray; only
    # on finite ratios, where the differences raise no warning
    for ray in ratios.reshape(len(rays), -1):
        unbounded = unbounded or bool(_diverging(ray[:10][::-1])
                                      or _diverging(ray[-10:]))
    c_est = float(np.max(ratios[np.isfinite(ratios)]))
    return DominationReport(C_est=c_est, table=table, unbounded=unbounded)


@dataclass(frozen=True)
class RadialDecayReport:
    monotone_ok: bool
    max_monotone_violation: float
    max_identity_error: float


def check_radial_decay(
    n_inf, n_density, points, C: float, t_grid=None
) -> RadialDecayReport:
    """Radial decay of N_inf and the divergence identity N = -div(x N_inf).

    (i) along each ray through a sample point, N_inf(t x) t^{d + 1/C} must be
    nonincreasing for t >= 1 and nondecreasing for t <= 1;
    (ii) -d N_inf(x) - x . grad N_inf(x) = N(x), gradient by central
    differences with step 1e-4 |x|.
    """
    if t_grid is None:
        t_grid = np.logspace(-1.0, 1.0, 21)
    d = 1
    # np.max, unlike the built-in max, carries a NaN through to the report
    mono, ident = [0.0], [0.0]
    for x in np.atleast_1d(np.asarray(points, dtype=float)):
        prof = np.array([n_inf(t * x) for t in t_grid])
        weighted = prof * t_grid ** (d + 1.0 / C)
        scale = np.max(np.abs(weighted)) or 1.0
        mono.extend(-np.diff(weighted[t_grid <= 1.0]) / scale)
        mono.extend(np.diff(weighted[t_grid >= 1.0]) / scale)
        h = 1e-4 * abs(x)
        grad = (n_inf(x + h) - n_inf(x - h)) / (2.0 * h)
        lhs = -d * n_inf(x) - x * grad
        rhs = float(n_density(x))
        ident.append(abs(lhs - rhs) / (1.0 + abs(rhs)))
    worst_mono = float(np.max(mono))
    worst_ident = float(np.max(ident))
    return RadialDecayReport(
        monotone_ok=worst_mono <= 1e-9,
        max_monotone_violation=worst_mono,
        max_identity_error=worst_ident,
    )
