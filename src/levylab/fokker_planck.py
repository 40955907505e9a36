"""Levy-Fokker-Planck dynamics with linear confinement F(x) = x.

In Fourier variables the equation du/dt = I[u] + div(u x) becomes a
transport equation along the contracting frequency flow xi -> exp(-t) xi,
solved exactly by

    u^(t, xi) = u0^(exp(-t) xi) * exp( int_0^t psi(exp(-s) xi) ds ).

u0^ at the contracted frequencies exp(-t) xi_k is the trigonometric
interpolant of the grid coefficients, evaluated by a chirp-z transform per
axis.

The flow's invariant measure is the infinitely divisible law with exponent
Psi(xi) = int_0^1 psi(s xi) ds / s, whose Levy density is the radial tail
average N_inf(z) = int_1^inf N(t z) t^{d-1} dt.

Both exponents come from one radial antiderivative of the jump part a of
psi.  With G(r) = int_0^r a(rho) / rho drho, the substitutions
rho = exp(-s) |xi| and rho = s |xi| give

    int_0^t a(exp(-s) xi) ds = G(|xi|) - G(exp(-t) |xi|),
    int_0^1 a(s xi) ds / s   = G(|xi|).

This holds because a depends on |xi| alone: in d=2 the symbol is radial,
and in d=1 a(-xi) = conj a(xi), so G(-r) = conj G(r) covers non-even
densities.  The stable family has G(r) = -r^alpha / alpha in closed form;
any other density is tabulated once per call on Chebyshev points in
log r and integrated exactly.  The Gaussian and drift parts keep their
closed forms.  No time quadrature enters the flow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev

from .errors import (
    Con1Violation,
    InterpolationDegradation,
    NegativeDensity,
    QuadratureFailure,
)
from .levy import (
    LevyTriplet,
    _checked,
    _gauss_drift_exponent,
    _radial_argument,
    _stable_radial_constant,
    jump_symbol,
)
from .quadrature import _SLACK, integrate_scaled, try_integrate
from .spectral import Grid, SpectralField

__all__ = [
    "fp_evolve",
    "steady_exponent",
    "build_steady_state",
    "SteadyState",
    "limit_levy_density",
    "drift_correction",
    "check_log_tail",
    "LogTailReport",
    "check_domination",
    "DominationReport",
    "check_radial_decay",
    "RadialDecayReport",
]

# node counts of the Chebyshev table of a(e^u): 17, 33, 65, ... up to the cap
_CHEB_NODES = 17
_CHEB_MAX_NODES = 1025


def _cheb_coefficients(vals):
    """Chebyshev coefficients of the interpolant through cos(pi j / n) nodes."""
    n = len(vals) - 1
    coeffs = np.fft.fft(np.concatenate([vals, vals[n - 1:0:-1]]))[: n + 1] / n
    coeffs[0] /= 2.0
    coeffs[n] /= 2.0
    return coeffs


def _log_chebyshev_integral(f, r_min, r_max, r, tol):
    """int_{r_min}^r f(rho) drho / rho for r in [r_min, r_max].

    Samples f(e^u) at Chebyshev points in u = log rho, doubling the node
    count (and reusing the old samples) until the trailing quarter of the
    coefficients falls below _SLACK * tol * scale; the interpolant is then
    integrated in closed form.
    """
    a, b = np.log(r_min), np.log(r_max)
    half = 0.5 * (b - a)

    def sample(x):
        return np.array([f(float(np.exp(a + half * (xj + 1.0)))) for xj in x],
                        dtype=complex)

    n = _CHEB_NODES - 1
    vals = sample(np.cos(np.pi * np.arange(n + 1) / n))
    while True:
        coeffs = _cheb_coefficients(vals)
        scale = max(1.0, float(np.max(np.abs(vals))))
        tail = float(np.max(np.abs(coeffs[-(n // 4):])))
        if tail <= _SLACK * tol * scale:
            break
        if 2 * n + 1 > _CHEB_MAX_NODES:
            raise QuadratureFailure(
                f"Chebyshev table of the jump exponent on [{r_min}, {r_max}] "
                f"did not converge with {n + 1} nodes: trailing coefficient "
                f"{tail:.2e} (scale {scale:.2e})",
                achieved_error=tail,
            )
        odd = sample(np.cos(np.pi * np.arange(1, 2 * n, 2) / (2 * n)))
        merged = np.empty(2 * n + 1, dtype=complex)
        merged[0::2] = vals
        merged[1::2] = odd
        vals, n = merged, 2 * n
    x = np.clip((np.log(r) - a) / half - 1.0, -1.0, 1.0)
    return chebyshev.chebval(x, chebyshev.chebint(coeffs, lbnd=-1, scl=half))


def _jump_antiderivative(triplet: LevyTriplet, k, tol, anchored=True):
    """Jump part of G(k) = int_0^|k| a(rho) / rho drho at an array of k.

    ``k`` holds signed frequencies in d=1 (G(-r) = conj G(r)) and radii in
    d=2.  Unanchored values are offset by the unknown G(r_min) of the
    smallest nonzero radius, which cancels in differences; anchoring adds
    it by one adaptive quadrature.
    """
    k = np.asarray(k, dtype=float)
    r = np.abs(k)
    nu = triplet.nu
    if nu is None:
        return np.zeros(k.shape)
    if nu.kind == "stable":
        return -(r**nu.alpha) / nu.alpha
    out = np.zeros(k.shape, dtype=complex)
    pos = r > 0.0
    if not np.any(pos):
        return out
    r_min, r_max = float(np.min(r[pos])), float(np.max(r[pos]))
    if r_max > r_min:
        out[pos] = _log_chebyshev_integral(
            lambda rho: jump_symbol(nu, rho, tol), r_min, r_max, r[pos], tol
        )
    if anchored:
        out[pos] += integrate_scaled(
            lambda s: jump_symbol(nu, s * r_min, tol) / s, (0.0, 1.0), tol
        )
    return np.where(k < 0.0, np.conj(out), out)


def _chirp(M: int, scale: float):
    """exp(i pi scale m^2 / M) for m = 1 - M, ..., M - 1.

    The phase reaches pi M, so a float64 product would carry an absolute
    error of about pi M eps.  It is formed from the exact integer m^2 and
    reduced mod 2 pi in np.longdouble before the exponential (on platforms
    where that is float64, the transform's error grows to about 2e-14 of
    max|coef| at M = 8192).
    """
    m = np.arange(1 - M, M)
    half_turns = np.longdouble(scale) * (m * m) / M
    half_turns -= 2 * np.rint(half_turns / 2)
    return np.exp(1j * np.pi * half_turns.astype(float))


def _nudft_coefficients(u0: SpectralField, scale: float):
    """Continuum-transform values of u0 at the contracted frequencies scale*xi_k.

    With centred indices k, n in [-M/2, M/2) per axis, x_n = n dx and
    scale xi_k x_n = theta k n with theta = 2 pi scale / M, so the values are
    dx^d sum_n exp(i theta k.n) u_n: the exact trigonometric interpolant of
    the grid coefficients, valid because |scale| <= 1 keeps the targets
    inside the resolved band.  The kernel factors over the axes, and on
    each axis k n = (k^2 + n^2 - (k - n)^2) / 2 turns the sum into a
    convolution with the chirp exp(-i theta m^2 / 2), computed by FFTs of
    length 2M (Bluestein's chirp-z transform): O(M^d log M) per call.
    """
    g = u0.grid
    M = g.M
    w = _chirp(M, scale)
    w_grid = w[M // 2 - 1:M // 2 - 1 + M]     # m = -M/2, ..., M/2 - 1
    # conj(w_m) at m mod 2M; slot M lies outside |k - n| <= M - 1
    kernel = np.fft.fft(np.concatenate([np.conj(w[M - 1:]), [0.0],
                                        np.conj(w[:M - 1])]))
    out = u0.values
    for _ in range(g.d):
        # transform the last axis, then move it to the front
        conv = np.fft.ifft(np.fft.fft(out * w_grid, 2 * M) * kernel)
        out = (conv[..., :M] * w_grid).T
    return np.fft.ifftshift(out) * g.dx**g.d


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
    g, M = u0.grid, u0.grid.M
    spec = np.abs(u0.half_spectrum)
    cmax = np.max(spec) or 1.0
    # the slabs k = -M/2 and M/2 - 1 of every axis; a full axis keeps
    # the conjugate of slab M/2 - 1 at k = -(M/2 - 1), row M/2 + 1
    edge_mass = max(float(np.max(spec[..., M // 2 - 1:])),
                    float(np.max(spec[M // 2 - 1:M // 2 + 2])))
    if edge_mass > 1e-12 * cmax:
        warnings.warn(
            f"coefficients at the Nyquist edge are {edge_mass / cmax:.2e} of max; "
            "band-limited interpolation may degrade",
            InterpolationDegradation,
        )
    scale = float(np.exp(-t))
    full = _nudft_coefficients(u0, scale)
    shifted = full[..., : M // 2 + 1]
    if g.d == 2:
        # the row +M/2 of freqs(): u0 is real, so its transform there is
        # the conjugate of row -M/2 at -k2
        shifted = np.vstack([shifted, np.conj(full[M // 2, -np.arange(M // 2 + 1)])])

    axes = g.freqs()
    k = _radial_argument(axes)
    G = _jump_antiderivative(triplet, np.stack([k, scale * k]), tol, anchored=False)
    gauss, drift = _gauss_drift_exponent(triplet, axes)
    J = gauss * (1.0 - np.exp(-2.0 * t)) / 2.0 + drift * (1.0 - np.exp(-t))
    return SpectralField(g, g.synthesize(shifted * np.exp(J + (G[0] - G[1]))))


def steady_exponent(triplet: LevyTriplet, xi, tol: float = 1e-10):
    """Psi(xi) = int_0^1 psi(s xi) ds / s at one frequency, or on a mesh
    given as one array per axis, such as ``Grid.freqs()``.

    The Gaussian and drift parts integrate in closed form (half and identity
    respectively); the jump part is G(|xi|), one adaptive quadrature, or
    -|xi|^alpha / alpha for the stable family.
    """
    axes = np.atleast_1d(np.asarray(xi, dtype=float))
    gauss, drift = _gauss_drift_exponent(triplet, axes)
    k = _radial_argument(axes)
    return 0.5 * gauss + drift + _jump_antiderivative(triplet, [k], tol)[0]


@dataclass(frozen=True)
class SteadyState:
    """Invariant measure of the confined Levy flow."""

    exponent: Callable
    density: SpectralField
    drift_correction: np.ndarray
    mass_defect: float
    log_tail: float


@dataclass(frozen=True)
class LogTailReport:
    value: float
    diverged: bool


def check_log_tail(nu, tol: float = 1e-10) -> LogTailReport:
    """int_{|z| > 1} ln|z| N(z) dz; divergence is a flag, not an error.

    One integral of the radial density, int_1^inf ln(r) rho(r) dr; raises
    NonFiniteDensity if N returns NaN or negative values.  A table's
    integral ends at its last knot, with the knots as breakpoints.
    """
    if nu is None:
        return LogTailReport(0.0, False)
    if nu.kind == "stable":
        # C int_1^inf ln(r) r^{-1-a} dr = C / a^2 for the radial density
        return LogTailReport(_stable_radial_constant(nu.d, nu.alpha) / nu.alpha**2,
                             False)
    rho = nu.radial_density
    interval, points = nu.radial_interval(1.0, np.inf)
    val, div = try_integrate(lambda r: np.log(r) * rho(r), interval, tol, points)
    return LogTailReport(float(val) if val is not None else np.inf, div)


def limit_levy_density(nu, z, tol: float = 1e-10) -> float:
    """N_inf(z) = int_1^inf N(t z) t^{d-1} dt.

    The stable family has N_inf = N / alpha in closed form.  Any other
    density is integrated in s = ln t, relative to N(z) so that the
    tolerance is relative even where N(z) is tiny.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.all(z_arr == 0.0):
        raise ValueError("N_inf is undefined at z = 0")
    d = nu.d
    point = z_arr if d > 1 else float(z_arr[0])
    if nu.kind == "stable":
        return float(nu(point)) / nu.alpha
    scale = float(_checked(nu, point)) or 1.0

    # substitute t = e^s: the integrand becomes smoothly exponentially
    # decaying, which keeps the adaptive error estimate trustworthy across
    # many decades of |z| (the raw power-law tail does not); e^{sd}
    # overflows past s = 709 / d
    def integrand(s):
        if s > 690.0 / d:
            return 0.0
        t = np.exp(s)
        return nu(t * point) / scale * t**d

    # t |z| runs over the radial interval (|z|, inf), cut at a table's end
    # and knots, which map to s = ln(r / |z|)
    rz = float(np.hypot.reduce(z_arr))
    (_, end), radii = nu.radial_interval(rz, np.inf)
    points = None if radii is None else np.log(radii / rz)
    return scale * float(integrate_scaled(integrand, (0.0, np.log(end / rz)), tol,
                                          points))


_TAU_SERIES = tuple((-1) ** (k + 1) * 2 * k / (2 * k + 1) for k in range(1, 11))


def _tau_factor(z):
    """int_0^1 (1 - tau^2) z^2 / ((1 + tau^2 z^2)(1 + z^2)) dtau, z >= 0.

    Equal to arctan(z)/z - 1/(1 + z^2).  That difference cancels for small
    z (1e-12 relative at z = 1e-2, 1e-14 at z = 0.1), so below z = 0.1 the
    series sum_k (-1)^{k+1} 2k z^{2k} / (2k + 1) is summed to k = 10, where
    its truncation error is below z^18 relative.
    """
    z2 = z * z
    if z < 0.1:
        acc = 0.0
        for c in reversed(_TAU_SERIES):
            acc = c + z2 * acc
        return z2 * acc
    return np.arctan(z) / z - 1.0 / (1.0 + z2)


def drift_correction(nu, tol: float = 1e-8) -> np.ndarray:
    """b_A: the drift shift between the flow's exponent and its Levy form.

    Vanishes identically for even densities (odd integrand in z).
    """
    if nu is None:
        return np.zeros(1)
    if nu.is_even:
        return np.zeros(nu.d)
    if nu.d != 1:
        raise NotImplementedError("drift correction implemented for d = 1")
    val = integrate_scaled(
        lambda z: z * _tau_factor(z) * (nu(z) - nu(-z)), (0.0, np.inf), tol
    )
    return np.array([val])


def build_steady_state(
    triplet: LevyTriplet, grid: Grid, tol: float = 1e-10
) -> SteadyState:
    """Construct the invariant measure on a grid.

    Raises Con1Violation when the logarithmic tail integral of the jump
    density diverges, and NegativeDensity when the inverse transform dips
    below -1e-6 of its maximum (an under-resolved grid).
    """
    tail = check_log_tail(triplet.nu, tol)
    if tail.diverged:
        raise Con1Violation(
            "log-tail integral of the jump density diverges; no steady state"
        )
    vals = grid.synthesize(np.exp(steady_exponent(triplet, grid.freqs(), tol)))
    vmax = float(np.max(vals))
    if float(np.min(vals)) < -1e-6 * vmax:
        raise NegativeDensity(
            f"steady density dips to {np.min(vals):.3e} (max {vmax:.3e}); "
            "the grid under-resolves the invariant measure"
        )
    mass = grid.integrate(vals)
    nu = triplet.nu
    return SteadyState(
        exponent=partial(steady_exponent, triplet, tol=tol),
        density=SpectralField(grid, values=np.clip(vals, 0.0, None) / mass),
        drift_correction=np.zeros(triplet.d) if nu is None else drift_correction(nu),
        mass_defect=abs(mass - 1.0),
        log_tail=tail.value,
    )


@dataclass(frozen=True)
class DominationReport:
    C_est: float
    table: list  # (|z|, ratio) pairs
    unbounded: bool


def check_domination(
    nu, sample_points=None, tol: float = 1e-10
) -> DominationReport:
    """Estimate the best constant C with N_inf <= C N on a log sample grid.

    Flags ``unbounded`` when a sampled ratio exceeds 1e6 or when the ratios
    grow monotonically across at least three decades at either end of the
    grid.  The default grid spans |z| in [1e-6, 1e3] along the first
    coordinate ray.
    """
    if nu is None:
        return DominationReport(C_est=0.0, table=[], unbounded=False)
    if sample_points is None:
        sample_points = np.logspace(-6.0, 3.0, 28)
    table = []
    for r in np.asarray(sample_points, dtype=float):
        if nu.d == 1:
            z = r
        else:
            z = np.zeros(nu.d)
            z[0] = r
        n_val = float(nu(z))
        n_inf = limit_levy_density(nu, z, tol)
        ratio = n_inf / n_val if n_val > 0 else (np.inf if n_inf > 0 else 0.0)
        table.append((float(r), float(ratio)))
    ratios = np.array([t[1] for t in table])
    unbounded = bool(np.any(~np.isfinite(ratios)) or np.any(ratios > 1e6))
    if not unbounded and len(ratios) >= 2:
        # three decades at 3 samples per decade
        span = min(10, len(ratios))
        head, tail_r = ratios[:span], ratios[-span:]

        def _diverging(seq):
            # monotone growth whose per-step increments do not level off;
            # a ratio converging to a finite C has geometrically shrinking
            # increments, a log divergence keeps them constant
            if not np.all(np.diff(seq) > 0) or seq[-1] < 1.2 * seq[0]:
                return False
            mid = len(seq) // 2
            return seq[-1] - seq[mid] >= 0.5 * (seq[mid] - seq[0])

        unbounded = bool(_diverging(head[::-1]) or _diverging(tail_r))
    c_est = float(np.max(ratios[np.isfinite(ratios)])) if len(ratios) else 0.0
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
    mono = [0.0]
    ident = [0.0]
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
