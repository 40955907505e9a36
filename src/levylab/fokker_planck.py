"""Levy-Fokker-Planck dynamics with linear confinement F(x) = x.

In Fourier variables the equation du/dt = I[u] + div(u x) becomes a
transport equation along the contracting frequency flow xi -> exp(-t) xi,
solved exactly by

    u^(t, xi) = u0^(exp(-t) xi) * exp( int_0^t psi(exp(-s) xi) ds ).

u0^ at the contracted frequencies exp(-t) xi_k is the trigonometric
interpolant of the grid coefficients, evaluated by a chirp-z transform per
axis.

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
on |xi| alone: in d=2 the symbol is radial, and in d=1 a(-xi) = conj a(xi),
so G(-r) = conj G(r) covers non-even densities.  The stable family has
G(r) = -r^alpha / alpha in closed form.  Otherwise a is tabulated once per
call on Chebyshev points in log r and integrated exactly from the smallest
radius r_min; the difference needs no more, and at t = inf G(r_min) is one
integral of the radial density against a closed-form kernel.  No time
quadrature enters the flow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import chebyshev, polynomial

from .errors import (
    Con1Violation,
    InterpolationDegradation,
    NegativeDensity,
    QuadratureFailure,
)
from .levy import (
    LevyDensity,
    LevyTriplet,
    _big_jump_mass,
    _checked,
    _gauss_drift_exponent,
    _jump_symbols,
    _radial_argument,
    _segmented_tail,
    _stable_radial_constant,
)
from .quadrature import _SLACK, integrate_scaled, try_integrate
from .spectral import Grid, SpectralField

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

    Samples f, which maps an array of radii to its values, at Chebyshev
    points in u = log rho, doubling the node count (and reusing the old
    samples) until the trailing quarter of the coefficients falls below
    _SLACK * tol * scale; the interpolant is then integrated in closed form.
    """
    a, b = np.log(r_min), np.log(r_max)
    half = 0.5 * (b - a)

    def sample(x):
        return np.asarray(f(np.exp(a + half * (x + 1.0))), dtype=complex)

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


# K_d(x) = sum_k (-1)^{k+1} c_k x^{2k}: c_k = 1 / (2k (2k)!) in d=1 (DLMF 6.6.6),
# 1 / (2k 4^k (k!)^2) in d=2; k <= 10 is exact to 1e-18 of the first for x < 1
_KERNEL_SERIES = {
    1: [(-1) ** (k + 1) / (2 * k * math.factorial(2 * k)) for k in range(1, 11)],
    2: [(-1) ** (k + 1) / (2 * k * 4**k * math.factorial(k) ** 2)
        for k in range(1, 11)],
}


def _kernel(d, x):
    """K_d(x) = int_0^x (1 - m(t)) dt / t, m = cos in d=1 and J0 in d=2.

    Cin(x) = gamma + ln x - Ci(x) in d=1 (DLMF 6.2.3), it2j0y0(x)[0] in d=2,
    and the power series below x = 1.
    """
    from scipy import special
    if x < 1.0:
        return x * x * polynomial.polyval(x * x, _KERNEL_SERIES[d])
    if d == 1:
        return np.euler_gamma + np.log(x) - special.sici(x)[1]
    return special.it2j0y0(x)[0]


def _aux_fg(x):
    """(f, g)(x), the auxiliary functions of the sine and cosine integrals:
    Ci = f sin - g cos and si = Si - pi/2 = -f cos - g sin (DLMF 6.2.17-20)."""
    from scipy import special
    si, ci = special.sici(x)
    si -= 0.5 * np.pi
    return ci * np.sin(x) - si * np.cos(x), -ci * np.cos(x) - si * np.sin(x)


def _anchor(nu, r, tol, big):
    """G(r) at one radius r > 0, as one integral against a closed-form kernel.

    Swapping the order of integration gives G(r) = -int_0^inf rho_N(s)
    K_d(r s) ds (Sato 1999, Thm 17.5).  Past s = 1, K_d(x) = gamma + ln(x/d)
    + R_d(x) gives (gamma + ln(r/d)) B + T (the log tail) + int rho(s)
    R_d(r s) ds: R_1 = -Ci = g cos - f sin takes two QAWF calls, and
    R_2(x) = int_x^inf J0(t) dt / t ~ -J1(x)/x is cut at the zeros of
    J1(r s).  A table's tail is one finite integral.  A non-even d=1 density
    adds i int_0^inf dN(z) (Si(r z) - r z h(z)) dz, dN = N(z) - N(-z), with
    Si = pi/2 - f cos - g sin past z = 1.
    """
    from scipy import special
    d, rho, n_diff = nu.d, nu.radial_density, nu.odd_difference

    def qawf(w, fg, trig):
        return integrate_scaled(lambda z: w(z) * _aux_fg(r * z)[fg], (1.0, np.inf),
                                tol, weight=trig, wvar=r)

    def odd(z):
        return (special.sici(r * z)[0] - r * z / (1.0 + z * z)) * n_diff(z)

    if big is None:
        # a table ends at its last knot: one finite integral, split at the knots
        whole, knots = nu.radial_interval(0.0, np.inf)
        G = -integrate_scaled(lambda s: _kernel(d, r * s) * rho(s), whole, tol, knots)
        return G if nu.is_even else G + 1j * integrate_scaled(odd, whole, tol, knots)
    log_tail = check_log_tail(nu, tol)
    if log_tail.diverged:
        raise Con1Violation("the log tail of the jump density diverges")
    if d == 1:
        osc = qawf(rho, 1, "cos") - qawf(rho, 0, "sin")
    else:
        osc = _segmented_tail(
            lambda s: (_kernel(2, r * s) - np.euler_gamma - np.log(0.5 * r * s))
            * rho(s), special.jn_zeros(1, 100 + int(r / np.pi)) / r, tol)
    G = -integrate_scaled(lambda s: _kernel(d, r * s) * rho(s), (0.0, 1.0), tol)
    G -= (np.euler_gamma + np.log(r / d)) * big + log_tail.value + osc
    if nu.is_even:
        return G
    im = integrate_scaled(odd, (0.0, 1.0), tol) + integrate_scaled(
        lambda z: (0.5 * np.pi - r * z / (1.0 + z * z)) * n_diff(z), (1.0, np.inf), tol)
    return G + 1j * (im - qawf(n_diff, 0, "cos") - qawf(n_diff, 1, "sin"))


def _jump_antiderivative(triplet: LevyTriplet, k, scale, tol):
    """G(k) - G(scale k) for the jump part of G(k) = int_0^|k| a(rho) / rho drho.

    ``k`` is an array of signed frequencies in d=1 (G(-r) = conj G(r)) and of
    radii in d=2, and 0 <= scale <= 1.  A Chebyshev table of a gives G up to
    the constant G(r_min), r_min the smallest nonzero radius, which cancels
    in the difference.  Only at scale = 0, where G(0) = 0 leaves G(k) itself,
    is G(r_min) added, as one kernel integral.  The xi-independent integrals
    of a are computed once per call, the unit-ball moment only for a table.
    """
    k = np.asarray(k, dtype=float)
    nu = triplet.nu
    if nu is None:
        return np.zeros(k.shape)
    ks = np.stack([k, scale * k]) if scale else k[None]
    r = np.abs(ks)
    if nu.kind == "stable":
        G = -(r**nu.alpha) / nu.alpha
    else:
        G = np.zeros(ks.shape, dtype=complex)
        pos = r > 0.0
        if np.any(pos):
            r_min, r_max = float(np.min(r[pos])), float(np.max(r[pos]))
            big = _big_jump_mass(nu, tol)
            if r_max > r_min:
                moments = (nu.small_ball_second_moment(1.0), big)
                G[pos] = _log_chebyshev_integral(
                    lambda rho: _jump_symbols(nu, rho, tol, moments), r_min, r_max,
                    r[pos], tol
                )
            if not scale:
                G[pos] += _anchor(nu, r_min, tol, big)
            G = np.where(ks < 0.0, np.conj(G), G)
    return G[0] - G[1] if scale else G[0]


def _exponent(triplet: LevyTriplet, axes, t, tol):
    """int_0^t psi(exp(-s) xi) ds over one array (or number) per axis, for
    t in (0, inf]; t = inf gives Psi."""
    scale = np.exp(-t)
    gauss, drift = _gauss_drift_exponent(triplet, axes)
    G = _jump_antiderivative(triplet, _radial_argument(axes), scale, tol)
    return gauss * (1.0 - np.exp(-2.0 * t)) / 2.0 + drift * (1.0 - scale) + G


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
    """Invariant measure of the confined Levy flow."""

    density: SpectralField
    drift_correction: np.ndarray
    mass_defect: float
    log_tail: float


@dataclass(frozen=True)
class LogTailReport:
    value: float
    diverged: bool


@lru_cache(maxsize=16)
def check_log_tail(nu, tol: float = 1e-10) -> LogTailReport:
    """int_{|z| > 1} ln|z| N(z) dz; divergence is a flag, not an error.

    One integral of the radial density, int_1^inf ln(r) rho(r) dr; raises
    NonFiniteDensity if N returns NaN or negative values.  A table's
    integral ends at its last knot, with the knots as breakpoints.  Cached
    per (nu, tol), so that a steady build and its anchor share the integral.
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


def _radial_tails(nu, sign, radii, tol):
    """T(r) = int_r^inf n(rho) rho^{d-1} drho at an array of radii r > 0, for
    n = n+ (sign 1) or n- (sign -1): reverse cumulative sums of pieces.

    An analytic piece (a, b) is one QUADPACK integral relative to
    f(a) min(b - a, a), so that the tolerance is relative where n is tiny;
    the edges are the radii, infinity and the powers of ten in (r, 1], so
    that no finite piece spans more than a decade.  A table is linear between
    its knots and zero past the last: with the knots as edges, the two-point
    Gauss-Legendre rule, whose nodes lie inside each piece, is exact there,
    jumps at knots included.
    """
    def f(rho):
        return _checked(nu.profile, sign * rho) * rho ** (nu.d - 1)

    r0 = np.min(radii)
    if nu.knots is None:
        decades = 10.0 ** np.arange(np.floor(np.log10(r0)) + 1.0, 1.0)
        edges = np.append(np.union1d(radii, decades[decades > r0]), np.inf)
        pieces = []
        for a, b in zip(edges[:-1], edges[1:]):
            scale = f(a) * min(b - a, a) or 1.0
            pieces.append(scale * integrate_scaled(lambda rho: f(rho) / scale,
                                                   (a, b), tol))
    else:
        knots = np.asarray(nu.knots)
        edges = np.union1d(radii, knots[knots > r0])
        half = 0.5 * np.diff(edges)
        mid, off = edges[:-1] + half, half / np.sqrt(3.0)
        pieces = half * (f(mid - off) + f(mid + off))
    tails = np.append(np.cumsum(np.asarray(pieces)[::-1])[::-1], 0.0)
    return tails[np.searchsorted(edges, radii)]


def _tail_average(nu, x, tol):
    """N_inf(z) = int_1^inf N(t z) t^{d-1} dt = |z|^{-d} int_{|z|}^inf n(rho)
    rho^{d-1} drho (Sato 1999, Thm 17.5) at nonzero x, a float or an array of
    signed z in d=1 (n- at x < 0) and radii in d=2: N / alpha for the stable
    family, one cumulative integral over the sorted radii otherwise."""
    if nu.kind == "stable":
        return _checked(nu.profile, x) / nu.alpha
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    for sign in (1.0, -1.0):
        side = sign * x > 0.0
        if np.any(side):
            r = np.abs(x[side])
            out[side] = _radial_tails(nu, sign, r, tol) / r**nu.d
    return out if out.ndim else float(out)


def limit_levy_density(nu, z, tol: float = 1e-10) -> float:
    """N_inf(z) = int_1^inf N(t z) t^{d-1} dt at one point z (``_tail_average``)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x = z[0] if nu.d == 1 else np.hypot.reduce(z)
    if x == 0.0:
        raise ValueError("N_inf is undefined at z = 0")
    return float(_tail_average(nu, x, tol))


def limit_density(nu, tol) -> LevyDensity:
    """N_inf as a density: the jump density of the invariant law."""
    return LevyDensity(kind="analytic", d=nu.d, is_even=nu.is_even,
                       func=partial(_tail_average, nu, tol=tol))


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
        return z2 * polynomial.polyval(z2, _TAU_SERIES)
    return np.arctan(z) / z - 1.0 / (1.0 + z2)


def drift_correction(nu, tol: float = 1e-8) -> np.ndarray:
    """b_A: the drift shift between the flow's exponent and its Levy form.

    Vanishes identically for even densities (odd integrand in z).  A
    table's integral ends at its last knot, with the knots as breakpoints.
    """
    if nu is None:
        return np.zeros(1)
    if nu.is_even:
        return np.zeros(nu.d)
    interval, points = nu.radial_interval(0.0, np.inf)
    val = integrate_scaled(
        lambda z: z * _tau_factor(z) * nu.odd_difference(z), interval, tol, points
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
    grid.  The default grid spans |z| in [1e-6, 1e3]; the profile and N_inf
    are evaluated on it as arrays.
    """
    if nu is None:
        return DominationReport(C_est=0.0, table=[], unbounded=False)
    if sample_points is None:
        sample_points = np.logspace(-6.0, 3.0, 28)
    r = np.asarray(sample_points, dtype=float)
    n_val = _checked(nu.profile, r)
    n_inf = _tail_average(nu, r, tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(n_val > 0, n_inf / n_val, np.where(n_inf > 0, np.inf, 0.0))
    table = [(float(a), float(b)) for a, b in zip(r, ratios)]
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
