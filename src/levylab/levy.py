"""Levy triplets, Levy measures and characteristic exponents.

A Levy operator is described by (sigma, b, nu): a nonnegative symmetric
diffusion matrix, a drift vector and a jump density N(z) >= 0 on R^d \\ {0}
with int min(1, |z|^2) N(z) dz finite.  Its characteristic exponent is

    psi(xi) = -xi.sigma xi + i b.xi + a(xi),
    a(xi) = int (exp(i z.xi) - 1 - i (z.xi) h(z)) N(z) dz,  h(z) = 1/(1+|z|^2).

The alpha-stable family is normalized so that psi(xi) = -|xi|^alpha exactly
(decaying sign: the heat multiplier is exp(t psi)); the density constant is
the closed form c(d, alpha) = 2^alpha Gamma((d+alpha)/2) / (pi^{d/2}
|Gamma(-alpha/2)|) (Kwasnicki, "Ten equivalent definitions of the fractional
Laplace operator", Fract. Calc. Appl. Anal. 20, 2017).

A density is a radial profile, evaluated on arrays: n(r) in d=2, so that
N(z) = n(|z|) is isotropic by construction, and n+(r) = N(r), n-(r) = N(-r)
in d=1.  Every radial integral of N is one integral of the radial density
rho(r) = |S^{d-1}| r^{d-1} n(r) of |z| (the polar form of a Levy measure;
Sato, "Levy Processes and Infinitely Divisible Distributions", 1999): the
small-jump moment, the big-jump mass, the log tail and the even part of
a(xi); its odd part is n+ - n-.  The dimension enters a(xi) only through the
spherical mean of exp(i z.xi), cos(r |xi|) in d=1 and J0(r |xi|) in d=2; for
the stable family rho(r) = |S^{d-1}| c(d, alpha) r^{-1-alpha} gives every
such integral in closed form.  ``scipy.special`` is imported only where it is called.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import InvalidAlpha, NonFiniteDensity
from .quadrature import integrate_scaled, try_integrate

__all__ = [
    "LevyDensity",
    "LevyTriplet",
    "DensityReport",
    "stable_density",
    "validate_levy_density",
    "jump_symbol",
    "characteristic_exponent",
    "dual_triplet",
    "triplet_from_config",
]

# small-jump exclusion radius; the excluded ball is compensated with the
# second-order Taylor term -xi^2/2 * int_{|z|<eps} z^2 N dz
_EPS_BALL = 1e-8


def _j0(x):
    from scipy import special
    return special.j0(x)


def _taylor_remainder(mean, d, c4, c6, c8):
    """x -> m(x) - 1 + x^2 / (2d) for the spherical mean m in dimension d,
    evaluated without cancellation near x = 0: below |x| = 1e-2 by its series
    x^4 / c4 (1 - x^2 / c6 (1 - x^2 / c8))."""

    def remainder(x):
        x = np.asarray(x, dtype=float)
        x2 = x * x
        series = x2 * x2 / c4 * (1.0 - x2 / c6 * (1.0 - x2 / c8))
        with np.errstate(invalid="ignore"):
            direct = mean(x) - 1.0 + x2 / (2 * d)
        out = np.where(np.abs(x) < 1e-2, series, direct)
        return out if out.ndim else float(out)

    return remainder


def _segmented_tail(f, cuts, tol):
    """int_1^inf f(r) dr, segmented at the cuts past r = 1, between which f
    alternates in sign; the segment series is resummed by repeated averaging
    of partial sums."""
    edges = np.concatenate(([1.0], cuts[cuts > 1.0]))
    terms = [integrate_scaled(f, (a, b), tol) for a, b in zip(edges[:-1], edges[1:])]
    lead, rest = terms[0], np.asarray(terms[1:])
    row = np.cumsum(rest)
    for _ in range(min(12, len(row) - 1)):
        row = 0.5 * (row[:-1] + row[1:])
    return lead + float(row[-1])


def _j0_tail(g, q, tol):
    """int_1^inf J0(q r) g(r) dr for decaying g, cut at the zeros of J0(q r);
    at most int(q/pi) + 1 of them lie below r = 1, so 99 or more remain."""
    from scipy import special
    if q <= 0.0:
        raise ValueError("oscillation frequency must be positive")
    cuts = special.jn_zeros(0, 100 + int(q / np.pi)) / q
    return _segmented_tail(lambda r: special.j0(q * r) * g(r), cuts, tol)


def _cos_tail(g, q, tol):
    """int_1^inf cos(q r) g(r) dr for decaying g, by QAWF."""
    return integrate_scaled(g, (1.0, np.inf), tol, weight="cos", wvar=q)


# per dimension d: the spherical mean m of exp(i r theta.xi) over |theta| = 1
# as a function of x = r |xi|, m with its Taylor polynomial 1 - x^2 / (2d)
# removed, and the tail int_1^inf m(q r) g(r) dr
_SPHERICAL_MEAN = {
    1: (np.cos, _taylor_remainder(np.cos, 1, 24.0, 30.0, 56.0), _cos_tail),
    2: (_j0, _taylor_remainder(_j0, 2, 64.0, 36.0, 64.0), _j0_tail),
}


def _checked(density, z):
    """density(z), raising NonFiniteDensity unless every value lies in [0, inf).

    QUADPACK evaluates integrands one float node at a time, so a float value
    (np.float64 included) is checked by comparison; NaN fails it too.
    """
    v = density(z)
    if isinstance(v, float):
        ok = 0.0 <= v < np.inf
    else:
        arr = np.asarray(v, dtype=float)
        ok = bool(np.all((arr >= 0.0) & (arr < np.inf)))
    if not ok:
        raise NonFiniteDensity(f"density returned {v!r} at z={z!r}")
    return v


@lru_cache(maxsize=None)
def _stable_norm_constant(d: int, alpha: float) -> float:
    """c(d, alpha) such that the density c |z|^{-d-alpha} has symbol -|xi|^alpha."""
    from scipy import special
    return float(
        2.0**alpha * special.gamma(0.5 * (d + alpha))
        / (np.pi ** (0.5 * d) * abs(special.gamma(-0.5 * alpha)))
    )


def _stable_radial_constant(d: int, alpha: float) -> float:
    """C with radial density C r^{-1-alpha} for c(d, alpha) |z|^{-d-alpha}.

    C = |S^{d-1}| c(d, alpha), with |S^{d-1}| = 2 pi^{d/2} / Gamma(d/2),
    exactly 2 in d=1 and 2 pi in d=2.
    """
    from scipy import special
    sphere = 2.0 * np.pi ** (0.5 * d) / special.gamma(0.5 * d)
    return sphere * _stable_norm_constant(d, alpha)


@dataclass(frozen=True)
class LevyDensity:
    """Jump density N(z) >= 0 on R^d \\ {0}, held as a radial profile n.

    ``kind`` is one of "stable", "analytic", "tabulated".  For the stable
    kind n(r) = c(d, alpha) r^{-d-alpha} with the family constant fixed by
    the symbol normalization.  Otherwise ``func`` is n: it maps a float, or
    an array of signed z in d=1 (where n is N) and of radii in d=2, to values
    of the same shape, and is refused when built if it maps no array so.  A
    tabulated density keeps the sorted radii |z| of its table's ``knots``;
    it is zero beyond the last.  Only a d=1 density may be non-even.
    """

    kind: str
    d: int = 1
    func: Optional[Callable] = None
    alpha: Optional[float] = None
    is_even: bool = True
    knots: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("stable", "analytic", "tabulated"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.kind == "stable":
            if self.alpha is None or not (0.0 < self.alpha < 2.0):
                raise InvalidAlpha(
                    f"stable density needs alpha in (0, 2), got {self.alpha}"
                )
        elif self.func is None:
            raise ValueError("analytic/tabulated density needs a callable")
        else:
            # two radii: an anisotropic d=2 func reads them as one point z
            try:
                with np.errstate(all="ignore"):
                    shape = np.shape(self.func(np.array([0.5, 2.0])))
            except (TypeError, ValueError, IndexError) as exc:
                shape = exc
            if shape != (2,):
                raise ValueError("a density func must map an array (of signed z in "
                                 f"d=1, radii in d=2) to one of its shape; got {shape!r}")
        if not self.is_even and self.d != 1:
            raise ValueError("a non-even density is supported in d=1 only")

    def profile(self, x):
        """n at x, a float or an array: signed z in d=1 (n+(x) at x > 0,
        n-(-x) at x < 0, so that n is N itself), radii in d=2."""
        if self.kind == "stable":
            c = _stable_norm_constant(self.d, self.alpha)
            return c * abs(x) ** (-self.d - self.alpha)
        return self.func(x)

    def __call__(self, z):
        """N(z) = n(|z|), z signed in d=1 and a last axis of coordinates in d=2."""
        return self.profile(z if self.d == 1 else np.linalg.norm(z, axis=-1))

    def radial_density(self, r):
        """rho(r) = |S^{d-1}| r^{d-1} n(r) at r > 0, a float or an array.

        The density of |z| under N: int f(|z|) N(z) dz = int_0^inf f(r) rho(r)
        dr.  In d=1 it is n+(r) + n-(r); in d=2 it is 2 pi r n(r).  Raises
        NonFiniteDensity unless n lies in [0, inf) at every radius.
        """
        if self.d == 1:
            return _checked(self.profile, r) + _checked(self.profile, -r)
        return 2.0 * np.pi * r * _checked(self.profile, r)

    def odd_difference(self, z):
        """n+(z) - n-(z) at z > 0 in d=1, each value checked as in
        ``radial_density``; zero for an even density."""
        return _checked(self.profile, z) - _checked(self.profile, -z)

    def radial_interval(self, a, b):
        """The interval of a radial integral over (a, b), and its breakpoints.

        A table is zero past its last knot radius R: the interval ends at
        min(b, R) (at least a), and the knot radii inside it are the QUADPACK
        breakpoints.  Any other density keeps (a, b), with none.
        """
        if self.knots is None:
            return (a, b), None
        r = np.asarray(self.knots)
        b = max(a, min(b, r[-1]))
        return (a, b), r[(r > a) & (r < b)]

    def small_ball_second_moment(self, eps, tol=1e-12):
        """int_{|z| <= eps} |z|^2 N(z) dz (closed form for the stable kind)."""
        if self.kind == "stable":
            C = _stable_radial_constant(self.d, self.alpha)
            return C * eps ** (2.0 - self.alpha) / (2.0 - self.alpha)
        rho = self.radial_density
        interval, points = self.radial_interval(0.0, eps)
        val, div = try_integrate(lambda r: r * r * rho(r), interval, tol, points)
        if div:
            raise NonFiniteDensity("second moment diverges inside the unit ball")
        return val


def stable_density(alpha: float, d: int = 1) -> LevyDensity:
    return LevyDensity(kind="stable", d=d, alpha=alpha, is_even=True)


@dataclass(frozen=True)
class DensityReport:
    small_jump: float
    big_jump: float
    small_jump_diverged: bool
    big_jump_diverged: bool

    @property
    def ok(self):
        return not (self.small_jump_diverged or self.big_jump_diverged)


def validate_levy_density(nu: LevyDensity, tol: float = 1e-10) -> DensityReport:
    """Estimate int_{|z|<=1} |z|^2 N dz and int_{|z|>1} N dz.

    Divergent integrals are reported with a flag instead of raising;
    NonFiniteDensity is raised if N returns NaN or negative values.
    """
    if nu.kind == "stable":
        # closed forms for the radial density C r^{-1-alpha}
        C = _stable_radial_constant(nu.d, nu.alpha)
        return DensityReport(C / (2.0 - nu.alpha), C / nu.alpha, False, False)
    rho = nu.radial_density
    interval, points = nu.radial_interval(0.0, 1.0)
    small, sdiv = try_integrate(lambda r: r * r * rho(r), interval, tol, points)
    interval, points = nu.radial_interval(1.0, np.inf)
    big, bdiv = try_integrate(rho, interval, tol, points)
    # the integrands are nonnegative, so a negative estimate can only be an
    # extrapolation artifact of a divergent endpoint singularity
    if small is not None and small < 0:
        sdiv = True
    if big is not None and big < 0:
        bdiv = True
    return DensityReport(small, big, sdiv, bdiv)


def _h(z2):
    return 1.0 / (1.0 + z2)


def jump_symbol(nu: LevyDensity, xi, tol: float = 1e-10):
    """Quadrature value of a(xi) = int (e^{iz.xi} - 1 - i z.xi h(z)) N(z) dz.

    The real part is one integral against the radial density rho of |z|,
    int_0^inf (m(r |xi|) - 1) rho(r) dr, where m is the spherical mean of
    e^{iz.xi}: cos in d=1, J0 in d=2.  The epsilon-ball around z = 0 is
    excluded; on (eps, 1) the Taylor term -(r |xi|)^2 / (2d) of m - 1 is
    subtracted so the integrand stays bounded at the origin, and restored in
    closed form through the unit-ball second moment.  The oscillatory tail
    goes to QAWF with a cosine weight in d=1 and to a J0 zero-segmented
    series in d=2.  For even densities the imaginary part vanishes; the odd
    part of a non-even density is supported in d=1 only.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    k = float(xi[0]) if nu.d == 1 else float(np.hypot.reduce(xi))
    if k == 0.0:
        return 0.0 if nu.is_even else 0.0 + 0.0j
    moments = (nu.small_ball_second_moment(1.0), _big_jump_mass(nu, tol))
    return _jump_symbols(nu, [k], tol, moments)[0].item()


def _big_jump_mass(nu: LevyDensity, tol):
    """B = int_1^inf rho dr; None for a table, whose far part is one integral."""
    return None if nu.knots is not None else integrate_scaled(
        nu.radial_density, (1.0, np.inf), tol)


def _jump_symbols(nu: LevyDensity, ks, tol, moments):
    """a at each nonzero k of ks (signed xi in d=1, |xi| in d=2), sharing
    moments = (int_0^1 r^2 rho dr, ``_big_jump_mass``); see ``jump_symbol``."""
    m2, big = moments
    mean, kernel, tail = _SPHERICAL_MEAN[nu.d]
    # a table is zero past its last knot: its far part is one finite
    # integral of (m - 1) rho, and its imaginary part one over (eps, inf),
    # split at the knots
    rho, n_diff = nu.radial_density, nu.odd_difference
    near, near_points = nu.radial_interval(_EPS_BALL, 1.0)
    far, far_points = nu.radial_interval(1.0, np.inf)
    whole, whole_points = nu.radial_interval(_EPS_BALL, np.inf)

    out = np.empty(len(ks), dtype=float if nu.is_even else complex)
    for j, s in enumerate(ks):
        q = abs(s)
        head = integrate_scaled(lambda r: kernel(r * q) * rho(r), near, tol,
                                near_points)
        moment = -0.5 / nu.d * q * q * m2
        if big is None:
            big_part = integrate_scaled(lambda r: (mean(r * q) - 1.0) * rho(r), far,
                                        tol, far_points)
        else:
            big_part = tail(rho, q, tol) - big
        out[j] = head + moment + big_part
        if nu.is_even:
            continue
        # imaginary part: int sin(zs) dN - s int z h(z) dN with dN = n_diff

        def imag_integrand(z):
            dn = n_diff(z)
            return np.sin(z * s) * dn - s * z * _h(z * z) * dn

        if big is None:
            out[j] += 1j * integrate_scaled(imag_integrand, whole, tol, whole_points)
            continue
        imag_head = integrate_scaled(imag_integrand, (_EPS_BALL, 1.0), tol)
        sgn = 1.0 if s > 0 else -1.0
        tail_sin = integrate_scaled(n_diff, (1.0, np.inf), tol, weight="sin", wvar=q)
        tail_h = integrate_scaled(
            lambda z: s * z * _h(z * z) * n_diff(z), (1.0, np.inf), tol
        )
        out[j] += 1j * (imag_head + sgn * tail_sin - tail_h)
    return out


@dataclass(frozen=True)
class LevyTriplet:
    """Parameters (sigma, b, nu) of a Levy operator."""

    sigma: np.ndarray
    b: np.ndarray
    nu: Optional[LevyDensity] = None
    d: int = 1

    def __post_init__(self):
        sig = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "sigma", 0.5 * (sig + sig.T))
        object.__setattr__(self, "b", b)
        if sig.shape != (self.d, self.d) or b.shape != (self.d,):
            raise ValueError("sigma/b shapes inconsistent with dimension d")
        if self.nu is not None and self.nu.d != self.d:
            raise ValueError("density dimension does not match triplet")
        eigs = np.linalg.eigvalsh(self.sigma)
        if np.min(eigs) < -1e-12:
            raise ValueError(f"sigma is not positive semi-definite: eigs {eigs}")


def _radial_argument(axes):
    """What a(xi) depends on, from one array (or number) per axis.

    xi itself in d=1, where a(-xi) = conj a(xi) covers non-even densities;
    |xi| in d=2, where a is radial.
    """
    if len(axes) == 1:
        return axes[0]
    return np.sqrt(sum(a**2 for a in axes))


def _quadratic_form(sigma, axes):
    """xi.sigma xi for symmetric sigma, over one array (or number) per axis.

    Summed row by row as sigma_ii xi_i^2 + 2 sigma_ij xi_i xi_j (j > i).
    """
    total = 0.0
    for i, a in enumerate(axes):
        total = total + sigma[i, i] * a**2
        for j in range(i + 1, len(axes)):
            total = total + 2.0 * sigma[i, j] * a * axes[j]
    return total


def _gauss_drift_exponent(triplet: LevyTriplet, axes):
    """-xi.sigma xi and i b.xi, over one array (or number) per axis."""
    drift = sum(bi * a for bi, a in zip(triplet.b, axes))
    return -_quadratic_form(triplet.sigma, axes), 1j * drift


def characteristic_exponent(triplet: LevyTriplet, xi, tol: float = 1e-10):
    """psi(xi) = -xi.sigma xi + i b.xi + a(xi) at one frequency xi."""
    axes = np.atleast_1d(np.asarray(xi, dtype=float))
    gauss, drift = _gauss_drift_exponent(triplet, axes)
    nu, r = triplet.nu, _radial_argument(axes)
    if nu is None:
        jump = 0.0
    elif nu.kind == "stable":
        jump = -(np.abs(r) ** nu.alpha)
    else:
        jump = jump_symbol(nu, r, tol)
    return gauss + drift + jump


def dual_triplet(triplet: LevyTriplet) -> LevyTriplet:
    """Adjoint parameters (-b, sigma, nu-check) with nu-check(z) = nu(-z)."""
    nu = triplet.nu
    if nu is not None and not nu.is_even:
        # a non-even density is analytic or tabulated, never stable
        nu = replace(nu, func=lambda z, _n=nu: _n.profile(-z))
    return LevyTriplet(sigma=triplet.sigma, b=-triplet.b, nu=nu, d=triplet.d)


def _tabulated_density(path, d):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    try:
        float(rows[0][0])
        data = rows
    except ValueError:
        data = rows[1:]
    z = np.array([float(r[0]) for r in data])
    n = np.array([float(r[1]) for r in data])
    order = np.argsort(z)
    z, n = z[order], n[order]
    radial = np.all(z > 0)

    def func(x):
        return np.interp(np.abs(x) if radial else x, z, n, left=0.0, right=0.0)

    return LevyDensity(kind="tabulated", d=d, func=func, is_even=radial,
                       knots=tuple(np.unique(np.abs(z)).tolist()))


_TRIPLET_KEYS = {"d", "sigma", "b", "nu"}
_NU_KEYS = {"kind", "alpha", "table_path"}


def triplet_from_config(cfg: dict) -> LevyTriplet:
    """Build a triplet from a structured configuration.

    Keys: ``sigma`` (scalar or matrix), ``b`` (scalar or vector), ``d`` (an
    int), ``nu`` (null, or {kind, alpha, table_path}).  Other keys raise ValueError.
    """
    unknown = set(cfg) - _TRIPLET_KEYS
    if unknown:
        raise ValueError(f"unknown triplet keys: {sorted(unknown)}")
    d = cfg.get("d", 1)
    if type(d) is not int:
        raise ValueError(f"triplet d must be an integer, got {d!r}")
    sigma = np.asarray(cfg.get("sigma", np.zeros((d, d))), dtype=float)
    if sigma.ndim == 0:
        sigma = sigma * np.eye(d)
    b = np.atleast_1d(np.asarray(cfg.get("b", np.zeros(d)), dtype=float))
    nu_cfg = cfg.get("nu")
    nu = None
    if nu_cfg:
        unknown = set(nu_cfg) - _NU_KEYS
        if unknown:
            raise ValueError(f"unknown nu keys: {sorted(unknown)}")
        kind = nu_cfg["kind"]
        if kind == "stable":
            nu = stable_density(float(nu_cfg["alpha"]), d)
        elif kind == "tabulated":
            nu = _tabulated_density(nu_cfg["table_path"], d)
        else:
            raise ValueError(f"config cannot describe density kind {kind!r}")
    return LevyTriplet(sigma=sigma, b=b, nu=nu, d=d)
