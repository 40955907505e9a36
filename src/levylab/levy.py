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

Every radial integral of N is one integral of the radial density of |z|,
rho(r) = r^{d-1} int_{|theta|=1} N(r theta) dtheta (the polar form of a Levy
measure; Sato, "Levy Processes and Infinitely Divisible Distributions",
1999): the small-jump moment, the big-jump mass, the log tail and the even
part of a(xi).  The dimension enters a(xi) only through the spherical mean
of exp(i z.xi), cos(r |xi|) in d=1 and J0(r |xi|) in d=2; for the stable
family rho(r) = |S^{d-1}| c(d, alpha) r^{-1-alpha} gives every such integral
in closed form.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy import special

from .errors import InvalidAlpha, NonFiniteDensity
from .quadrature import integrate_scaled, try_integrate

__all__ = [
    "LevyDensity",
    "LevyTriplet",
    "Symbol",
    "DensityReport",
    "stable_density",
    "validate_levy_density",
    "jump_symbol",
    "characteristic_exponent",
    "dual_triplet",
    "stable_symbol",
    "sum_symbols",
    "triplet_from_config",
]

# small-jump exclusion radius; the excluded ball is compensated with the
# second-order Taylor term -xi^2/2 * int_{|z|<eps} z^2 N dz
_EPS_BALL = 1e-8

# midpoint-rule nodes of the circle integral in d=2: (cos th, sin th) rows
_theta = 2.0 * np.pi * (np.arange(64) + 0.5) / 64
_CIRCLE = np.stack([np.cos(_theta), np.sin(_theta)], axis=-1)
_CIRCLE.flags.writeable = False
del _theta


def _cosm1p(u):
    """cos(u) - 1 + u^2/2, evaluated without cancellation near u = 0."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-2
    u2 = u * u
    series = u2 * u2 / 24.0 * (1.0 - u2 / 30.0 * (1.0 - u2 / 56.0))
    with np.errstate(invalid="ignore"):
        direct = np.cos(u) - 1.0 + 0.5 * u2
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def _j0m1p(x):
    """J0(x) - 1 + x^2/4, evaluated without cancellation near x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-2
    x2 = x * x
    series = x2 * x2 / 64.0 * (1.0 - x2 / 36.0 * (1.0 - x2 / 64.0))
    with np.errstate(invalid="ignore"):
        direct = special.j0(x) - 1.0 + 0.25 * x2
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def _j0_tail(g, q, tol):
    """int_1^inf J0(q r) g(r) dr for decaying g.

    The interval is segmented at the zeros of J0(q r); the alternating
    segment series is resummed by repeated averaging of partial sums.  At
    most int(q/pi) + 1 of the zeros lie below r = 1, so at least 99 segments
    remain.
    """
    if q <= 0.0:
        raise ValueError("oscillation frequency must be positive")
    cuts = special.jn_zeros(0, 100 + int(q / np.pi)) / q
    edges = np.concatenate(([1.0], cuts[cuts > 1.0]))

    def f(r):
        return special.j0(q * r) * g(r)

    terms = [integrate_scaled(f, (a, b), tol) for a, b in zip(edges[:-1], edges[1:])]
    lead, rest = terms[0], np.asarray(terms[1:])
    row = np.cumsum(rest)
    for _ in range(min(12, len(row) - 1)):
        row = 0.5 * (row[:-1] + row[1:])
    return lead + float(row[-1])


def _cos_tail(g, q, tol):
    """int_1^inf cos(q r) g(r) dr for decaying g, by QAWF."""
    return integrate_scaled(g, (1.0, np.inf), tol, weight="cos", wvar=q)


# per dimension d: the spherical mean of exp(i r theta.xi) over |theta| = 1,
# as a function of x = r |xi| with its Taylor polynomial 1 - x^2 / (2d)
# removed, and the tail int_1^inf (spherical mean at q r) g(r) dr
_SPHERICAL_MEAN = {1: (_cosm1p, _cos_tail), 2: (_j0m1p, _j0_tail)}


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
    return float(
        2.0**alpha * special.gamma(0.5 * (d + alpha))
        / (np.pi ** (0.5 * d) * abs(special.gamma(-0.5 * alpha)))
    )


def _stable_radial_constant(d: int, alpha: float) -> float:
    """C with radial density C r^{-1-alpha} for c(d, alpha) |z|^{-d-alpha}.

    C = |S^{d-1}| c(d, alpha), with |S^{d-1}| = 2 pi^{d/2} / Gamma(d/2),
    exactly 2 in d=1 and 2 pi in d=2.
    """
    sphere = 2.0 * np.pi ** (0.5 * d) / special.gamma(0.5 * d)
    return sphere * _stable_norm_constant(d, alpha)


@dataclass(frozen=True)
class LevyDensity:
    """Jump density N(z) >= 0 on R^d \\ {0}.

    ``kind`` is one of "stable", "analytic", "tabulated".  For the stable
    kind the density is c(d, alpha) |z|^{-d-alpha} with the family constant
    fixed by the symbol normalization.  ``func`` maps |z|-vectors (or scalars
    in d=1) to density values.
    """

    kind: str
    d: int = 1
    func: Optional[Callable] = None
    alpha: Optional[float] = None
    is_even: bool = True

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

    def __call__(self, z):
        if self.kind == "stable":
            c = _stable_norm_constant(self.d, self.alpha)
            r = self._radius(z)
            return c * r ** (-self.d - self.alpha)
        return self.func(z)

    def _radius(self, z):
        if isinstance(z, float):
            return np.float64(abs(z))
        z = np.asarray(z, dtype=float)
        if self.d == 1 or z.ndim == 0:
            return np.abs(z)
        return np.sqrt(np.sum(z**2, axis=-1))

    def radial_density(self, r):
        """rho(r) = r^{d-1} int_{|theta|=1} N(r theta) dtheta at a float r > 0.

        The density of |z| under N: int f(|z|) N(z) dz = int_0^inf f(r) rho(r)
        dr.  In d=1 it is N(r) + N(-r); in d=2 the circle integral is the
        64-node midpoint rule, exact for radially symmetric densities.
        Raises NonFiniteDensity unless N lies in [0, inf) at every node.
        """
        if self.d == 1:
            return _checked(self, r) + _checked(self, -r)
        return float(np.mean(_checked(self, r * _CIRCLE))) * 2.0 * np.pi * r

    def small_ball_second_moment(self, eps, tol=1e-12):
        """int_{|z| <= eps} |z|^2 N(z) dz (closed form for the stable kind)."""
        if self.kind == "stable":
            C = _stable_radial_constant(self.d, self.alpha)
            return C * eps ** (2.0 - self.alpha) / (2.0 - self.alpha)
        rho = self.radial_density
        val, div = try_integrate(lambda r: r * r * rho(r), (0.0, eps), tol)
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
        return DensityReport(
            small_jump=C / (2.0 - nu.alpha),
            big_jump=C / nu.alpha,
            small_jump_diverged=False,
            big_jump_diverged=False,
        )
    rho = nu.radial_density
    small, sdiv = try_integrate(lambda r: r * r * rho(r), (0.0, 1.0), tol)
    big, bdiv = try_integrate(rho, (1.0, np.inf), tol)
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
    if not nu.is_even and nu.d != 1:
        raise NotImplementedError("d=2 jump symbols require an even density")
    # |xi|; a one-axis reduction returns xi itself, so |xi| is exact in d=1
    q = abs(float(np.hypot.reduce(xi)))
    if q == 0.0:
        return 0.0 if nu.is_even else 0.0 + 0.0j
    kernel, tail = _SPHERICAL_MEAN[nu.d]
    rho = nu.radial_density
    eps = _EPS_BALL
    head = integrate_scaled(lambda r: kernel(r * q) * rho(r), (eps, 1.0), tol)
    moment = -0.5 / nu.d * q * q * nu.small_ball_second_moment(1.0)
    tail_flat = integrate_scaled(rho, (1.0, np.inf), tol)
    real = head + moment + tail(rho, q, tol) - tail_flat
    if nu.is_even:
        return real
    # imaginary part: int sin(zs) dN - s int z h(z) dN with dN = N(z) - N(-z)
    s = float(xi[0])

    def n_diff(z):
        return _checked(nu, z) - _checked(nu, -z)

    def imag_head_integrand(z):
        dn = n_diff(z)
        return np.sin(z * s) * dn - s * z * _h(z * z) * dn

    imag_head = integrate_scaled(imag_head_integrand, (eps, 1.0), tol)
    sgn = 1.0 if s > 0 else -1.0
    tail_sin = integrate_scaled(
        n_diff, (1.0, np.inf), tol, weight="sin", wvar=abs(s)
    )
    tail_h = integrate_scaled(
        lambda z: s * z * _h(z * z) * n_diff(z), (1.0, np.inf), tol
    )
    return real + 1j * (imag_head + sgn * tail_sin - tail_h)


@dataclass(frozen=True)
class Symbol:
    """A characteristic exponent xi -> psi(xi), evaluable at any frequency."""

    eval: Callable
    homogeneity: Optional[float] = None

    def __call__(self, xi):
        return self.eval(xi)


def stable_symbol(alpha: float) -> Symbol:
    """psi(xi) = -|xi|^alpha, the decaying-sign alpha-stable exponent."""
    if not (0.0 < alpha <= 2.0):
        raise InvalidAlpha(f"alpha must lie in (0, 2], got {alpha}")

    def ev(xi):
        xi = np.asarray(xi, dtype=float)
        r = np.abs(xi) if xi.ndim <= 1 else np.sqrt(np.sum(xi**2, axis=-1))
        return -(r**alpha)

    return Symbol(eval=ev, homogeneity=alpha)


def sum_symbols(symbols) -> Symbol:
    """Pointwise sum; homogeneity survives only when shared by all terms."""
    symbols = list(symbols)
    if not symbols:
        raise ValueError("need at least one symbol")
    if len(symbols) == 1:
        return symbols[0]
    hs = {s.homogeneity for s in symbols}
    h = hs.pop() if len(hs) == 1 else None

    def ev(xi):
        return sum(s.eval(xi) for s in symbols)

    return Symbol(eval=ev, homogeneity=h)


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

    @property
    def is_stable_jump(self):
        return self.nu is not None and self.nu.kind == "stable"

    def jump_exponent(self, xi, tol=1e-10):
        """a(xi), given xi in d=1 and |xi| in d=2 (``_radial_argument``).

        Vectorized closed form for the stable family.
        """
        if self.nu is None:
            return np.zeros(np.shape(xi))
        if self.is_stable_jump:
            return stable_symbol(self.nu.alpha).eval(xi)
        return jump_symbol(self.nu, xi, tol)


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
    return gauss + drift + triplet.jump_exponent(_radial_argument(axes), tol)


def dual_triplet(triplet: LevyTriplet) -> LevyTriplet:
    """Adjoint parameters (-b, sigma, nu-check) with nu-check(z) = nu(-z)."""
    nu = triplet.nu
    if nu is not None and not nu.is_even:
        orig = nu
        nu = LevyDensity(
            kind="analytic" if orig.kind != "tabulated" else "tabulated",
            d=orig.d,
            func=lambda z, _f=orig: _f(-np.asarray(z, dtype=float)),
            alpha=orig.alpha,
            is_even=False,
        )
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

    def func(zz):
        zz = np.asarray(zz, dtype=float)
        if radial and d > 1:
            zz = np.sqrt(np.sum(zz**2, axis=-1))
        r = np.abs(zz) if radial else zz
        return np.interp(r, z, n, left=0.0 if radial else 0.0, right=0.0)

    return LevyDensity(kind="tabulated", d=d, func=func, is_even=radial)


def triplet_from_config(cfg: dict) -> LevyTriplet:
    """Build a triplet from a structured configuration.

    Keys: ``sigma`` (scalar or matrix), ``b`` (scalar or vector), ``d``,
    ``nu`` (null, or {kind, alpha, table_path, even}).
    """
    d = int(cfg.get("d", 1))
    sigma = np.asarray(cfg.get("sigma", np.zeros((d, d))), dtype=float)
    if sigma.ndim == 0:
        sigma = sigma * np.eye(d)
    b = np.atleast_1d(np.asarray(cfg.get("b", np.zeros(d)), dtype=float))
    nu_cfg = cfg.get("nu")
    nu = None
    if nu_cfg:
        kind = nu_cfg["kind"]
        if kind == "stable":
            nu = stable_density(float(nu_cfg["alpha"]), d)
        elif kind == "tabulated":
            nu = _tabulated_density(nu_cfg["table_path"], d)
        else:
            raise ValueError(f"config cannot describe density kind {kind!r}")
    return LevyTriplet(sigma=sigma, b=b, nu=nu, d=d)
