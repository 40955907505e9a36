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
Laplace operator", Fract. Calc. Appl. Anal. 20, 2017), with Gamma from
``math``.

A density is a radial profile, evaluated on arrays: n(r) in d=2, so that
N(z) = n(|z|) is isotropic by construction, and n+(r) = N(r), n-(r) = N(-r)
in d=1.  Every radial integral of N is one integral of the radial density
rho(r) = |S^{d-1}| r^{d-1} n(r) of |z| (the polar form of a Levy measure;
Sato, "Levy Processes and Infinitely Divisible Distributions", 1999): the
small-jump moment, the big-jump mass, the log tail and the even part of
a(xi); its odd part is n+ - n-.  The dimension enters a(xi) only through the
spherical mean of exp(i z.xi), cos(r |xi|) in d=1 and J0(r |xi|) in d=2; for
the stable family rho(r) = |S^{d-1}| c(d, alpha) r^{-1-alpha} gives every
such integral in closed form.

A law's radial quantities live on one record per (density, tolerance),
made by ``_law``, and nowhere else: the moment over |z| <= eps, the
big-jump mass, the log tail, a on an array of radii, its radial
antiderivative G, the invariant law's Levy density N_inf and the flow's
drift shift b_A.  The base ``_Law`` derives them from a few primitives of
its leaf; ``_StableLaw`` fills the record in closed form (Sato 1999, Thm
17.5), and its N_inf = N / alpha is a stable density again, with a stable
record; ``_TableLaw`` fills it by one fixed Gauss-Legendre rule,
``_QuadLaw``, for an analytic density, by QUADPACK, which no other record
reaches, and ``_NoJumps`` with zeros.  No jumps is a law like the others: a
triplet built with nu = None holds the zero density of its dimension, whose
record is ``_NoJumps``, so no reader of a triplet asks whether it has a
density.  A moment or mass estimated negative reads as divergent, since its
integrand is nonnegative.  Each xi-independent integral is computed on first
use and kept.  An anchored G reads the log tail first and raises
Con1Violation when it diverges, the one place the package does.

A record's G(r) = int_0^r a(rho) / rho drho (in closed form for the stable
law) tabulates a once per call on Chebyshev points in log r and integrates
the interpolant exactly from the smallest radius r_min; a difference
G(r) - G(r') needs no more, and G(r_min) itself, the anchor, is one
integral of the radial density against a closed-form kernel.  In d=1
a(-xi) = conj a(xi), so G(-r) = conj G(r) covers non-even densities.
``scipy.special`` is bound at the first use of each of its functions, and
serves only J0, ``jn_zeros``, ``sici`` and ``it2j0y0``: the stable and zero
records call none of them, so a run on those laws loads no SciPy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import chebyshev, legendre, polynomial

from .errors import Con1Violation, InvalidAlpha, NonFiniteDensity, QuadratureFailure
from .quadrature import _SLACK, integrate_scaled, try_integrate

__all__ = [
    "LevyDensity",
    "LevyTriplet",
    "stable_density",
    "jump_symbol",
    "characteristic_exponent",
    "dual_triplet",
]

# small-jump exclusion radius; the excluded ball is compensated with the
# second-order Taylor term -xi^2/2 * int_{|z|<eps} z^2 N dz
_EPS_BALL = 1e-8


@lru_cache(maxsize=None)
def _special():
    """``scipy.special``, imported at its first use and then kept."""
    from scipy import special
    return special


def _j0(x):
    return _special().j0(x)


def _taylor_remainder(mean, d, c4, c6, c8):
    """x -> m(x) - 1 + x^2 / (2d) for the spherical mean m in dimension d,
    evaluated without cancellation near x = 0: below |x| = 1e-2 by its series
    x^4 / c4 (1 - x^2 / c6 (1 - x^2 / c8)).  Scalar nodes only: its one
    caller is the QUADPACK head integrand, which passes one float per node."""

    def remainder(x):
        x2 = x * x
        if abs(x) < 1e-2:
            return x2 * x2 / c4 * (1.0 - x2 / c6 * (1.0 - x2 / c8))
        return mean(x) - 1.0 + x2 / (2 * d)

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
    cuts = _special().jn_zeros(0, 100 + int(q / np.pi)) / q
    return _segmented_tail(lambda r: _special().j0(q * r) * g(r), cuts, tol)


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
    return float(2.0**alpha * math.gamma(0.5 * (d + alpha)) / (
        math.pi ** (0.5 * d) * abs(math.gamma(-0.5 * alpha))))


@dataclass(frozen=True)
class LevyDensity:
    """Jump density N(z) >= 0 on R^d \\ {0}, held as a radial profile n.

    ``kind`` is one of "stable", "analytic", "tabulated", "zero".  For the
    stable kind n(r) = c(d, alpha) r^{-d-alpha} / divisor with the family
    constant fixed by the symbol normalization, so that a = -|xi|^alpha /
    divisor; the divisor, finite and positive, is 1 but on the N_inf of a
    stable law (N / alpha) and is refused on any other kind.  The zero kind,
    the density of a triplet without jumps, is n = 0 and reads nothing else.
    Otherwise ``func`` is n: it maps a float, or an array of signed z in d=1 (where n
    is N) and of radii in d=2, to values of the same shape, and is refused
    when built if it maps no array so.  A tabulated density keeps the sorted
    radii |z| of its table's ``knots``; it is linear between them and zero
    beyond the last.  Only a d=1 density may be non-even; a d=1 ``func``
    left at ``is_even=True`` is probed at z = +-0.5 and +-2 and refused
    unless N(-z) = N(z) there to rtol 1e-12 (NaN matching NaN, for the
    quadrature to refuse as NonFiniteDensity).  A ``func`` that cannot be
    hashed is refused too, since the law's record is cached by density.
    """

    kind: str
    d: int = 1
    func: Optional[Callable] = None
    alpha: Optional[float] = None
    is_even: bool = True
    knots: Optional[tuple] = None
    divisor: float = 1.0

    def __post_init__(self):
        if self.kind not in ("stable", "analytic", "tabulated", "zero"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if not 0.0 < self.divisor < np.inf:
            raise ValueError(f"a density's divisor must be finite and positive, got "
                             f"{self.divisor!r}")
        if self.divisor != 1.0 and self.kind != "stable":
            raise ValueError("only a stable density takes a divisor")
        if self.kind == "stable":
            if self.alpha is None or not (0.0 < self.alpha < 2.0):
                raise InvalidAlpha(
                    f"stable density needs alpha in (0, 2), got {self.alpha}"
                )
        elif self.kind != "zero":
            if self.func is None or self.kind == "tabulated" and not self.knots:
                raise ValueError("a non-stable density needs a callable, a table its "
                                 "knots")
            try:
                hash(self.func)
            except TypeError:
                raise ValueError("a density func must be hashable: the law's record "
                                 "is cached by its density") from None
            # two radii: an anisotropic d=2 func reads them as one point z
            probe = np.array([0.5, 2.0])
            with np.errstate(all="ignore"):
                try:
                    values = self.func(probe)
                    shape = np.shape(values)
                except (TypeError, ValueError, IndexError) as exc:
                    shape = exc
                if shape != (2,):
                    raise ValueError("a density func must map an array (of signed z "
                                     f"in d=1, radii in d=2) to one of its shape; got "
                                     f"{shape!r}")
                if self.d == 1 and self.is_even and not np.allclose(
                        self.func(-probe), values, rtol=1e-12, atol=0.0, equal_nan=True):
                    raise ValueError("a d=1 density left at is_even=True must have "
                                     "N(-z) = N(z); pass is_even=False")
        if not self.is_even and self.d != 1:
            raise ValueError("a non-even density is supported in d=1 only")

    def profile(self, x):
        """n at x, a float or an array: signed z in d=1 (n+(x) at x > 0,
        n-(-x) at x < 0, so that n is N itself), radii in d=2."""
        if self.kind == "stable":
            c = _stable_norm_constant(self.d, self.alpha)
            return c * abs(x) ** (-self.d - self.alpha) / self.divisor
        if self.kind == "zero":
            return np.zeros(np.shape(x))
        return self.func(x)

    def __call__(self, z):
        """N(z) = n(|z|), z signed in d=1 and a last axis of coordinates in d=2."""
        return self.profile(
            z if self.d == 1 else _radial_argument(np.moveaxis(z, -1, 0)))

    def radial_density(self, r):
        """rho(r) = |S^{d-1}| r^{d-1} n(r) at r > 0, a float or an array.

        The density of |z| under N: int f(|z|) N(z) dz = int_0^inf f(r) rho(r)
        dr.  In d=1 it is n+(r) + n-(r), taken as 2 n(r) for an even density,
        so one evaluation per radius; in d=2 it is 2 pi r n(r).  Raises
        NonFiniteDensity unless n lies in [0, inf) at every radius.
        """
        if self.d != 1:
            return 2.0 * np.pi * r * _checked(self.profile, r)
        if self.is_even:
            return 2.0 * _checked(self.profile, r)
        return _checked(self.profile, r) + _checked(self.profile, -r)

    def odd_difference(self, z):
        """n+(z) - n-(z) at z > 0 in d=1, each value checked as in
        ``radial_density``; zero for an even density."""
        return _checked(self.profile, z) - _checked(self.profile, -z)

    def small_ball_second_moment(self, eps, tol=1e-12):
        """int_{|z| <= eps} |z|^2 N(z) dz (closed form for the stable kind),
        read from the law's record; raises NonFiniteDensity where the record
        finds it divergent, a negative estimate included."""
        val, div = _law(self, tol).moment(eps)
        if div:
            raise NonFiniteDensity("second moment diverges inside the unit ball")
        return val


def stable_density(alpha: float, d: int = 1) -> LevyDensity:
    return LevyDensity(kind="stable", d=d, alpha=alpha, is_even=True)


def _h(z2):
    return 1.0 / (1.0 + z2)


def jump_symbol(nu: LevyDensity, xi, tol: float = 1e-10):
    """a(xi) = int (e^{iz.xi} - 1 - i z.xi h(z)) N(z) dz, read from the law's
    record: -|xi|^alpha in closed form for the stable kind, by quadrature
    otherwise.

    The quadrature value's real part is one integral against the radial
    density rho of |z|, int_0^inf (m(r |xi|) - 1) rho(r) dr, where m is the
    spherical mean of e^{iz.xi}: cos in d=1, J0 in d=2.  The epsilon-ball
    around z = 0 is excluded; on (eps, 1) the Taylor term -(r |xi|)^2 / (2d)
    of m - 1 is subtracted so the integrand stays bounded at the origin, and
    restored in closed form through the unit-ball second moment.  The
    oscillatory tail goes to QAWF with a cosine weight in d=1 and to a J0
    zero-segmented series in d=2.  For even densities the imaginary part
    vanishes; the odd part of a non-even density is supported in d=1 only.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    k = float(_radial_argument(xi))
    if k == 0.0:
        return 0.0 if nu.is_even else 0.0 + 0.0j
    return _law(nu, tol).symbol([k])[0].item()


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
    if x < 1.0:
        return x * x * polynomial.polyval(x * x, _KERNEL_SERIES[d])
    if d == 1:
        return np.euler_gamma + np.log(x) - _special().sici(x)[1]
    return _special().it2j0y0(x)[0]


def _aux_fg(x):
    """(f, g)(x), the auxiliary functions of the sine and cosine integrals:
    Ci = f sin - g cos and si = Si - pi/2 = -f cos - g sin (DLMF 6.2.17-20)."""
    si, ci = _special().sici(x)
    si -= 0.5 * np.pi
    return ci * np.sin(x) - si * np.cos(x), -ci * np.cos(x) - si * np.sin(x)


@dataclass(frozen=True)
class LogTailReport:
    value: float
    diverged: bool


_TAU_SERIES = tuple((-1) ** (k + 1) * 2 * k / (2 * k + 1) for k in range(1, 11))


def _tau_factor(z):
    """int_0^1 (1 - tau^2) z^2 / ((1 + tau^2 z^2)(1 + z^2)) dtau, z >= 0.

    Equal to arctan(z)/z - 1/(1 + z^2).  That difference cancels for small
    z (1e-12 relative at z = 1e-2, 1e-14 at z = 0.1), so below z = 0.1 the
    series sum_k (-1)^{k+1} 2k z^{2k} / (2k + 1) is summed to k = 10, where
    its truncation error is below z^18 relative.  z is a float or an array.
    """
    z2 = z * z
    # the series at min(z^2, 0.01) stays finite where it is not taken
    series = z2 * polynomial.polyval(np.minimum(z2, 0.01), _TAU_SERIES)
    return np.where(z < 0.1, series, np.arctan(z) / z - 1.0 / (1.0 + z2))


class _Law:
    """The radial quantities of one jump law at one tolerance, derived from
    its record's primitives.

    Made by ``_law``, once per (density, tolerance), as one of four leaves:
    ``_StableLaw`` in closed form, ``_TableLaw`` by a fixed rule,
    ``_QuadLaw`` by QUADPACK and ``_NoJumps``, the zero law, with zeros.  A
    leaf gives ``_integral`` (for the moments, the mass, the log tail and
    b_A), ``symbol`` and ``_anchor`` (for G) and ``_pieces`` (for N_inf), or
    replaces a derivation by its closed form; so each leaf reaches only its
    own way of integrating.  The log tail and b_A are computed on first use
    and kept, so that every table of a, every anchor and every steady build
    of the law shares them.  ``jumps`` is False on the zero law alone.
    """

    jumps = True

    def __init__(self, nu, tol):
        self.nu, self.tol = nu, tol

    def moment(self, eps):
        """(int_{|z| <= eps} |z|^2 N(z) dz, diverged).  The integrand is
        nonnegative, so a negative estimate can only be an extrapolation
        artifact of a divergent endpoint singularity: it reads as divergent,
        here and in ``mass``."""
        rho = self.nu.radial_density
        val, div = self._integral(lambda r: r * r * rho(r), 0.0, eps)
        return val, bool(div or val < 0)

    def mass(self):
        """(int_{|z| > 1} N(z) dz, diverged); a negative estimate is divergent."""
        val, div = self._integral(self.nu.radial_density, 1.0, np.inf)
        return val, bool(div or val < 0)

    @cached_property
    def log_tail(self):
        """int_1^inf ln(r) rho(r) dr as a LogTailReport; see ``check_log_tail``."""
        rho = self.nu.radial_density
        val, div = self._integral(lambda r: np.log(r) * rho(r), 1.0, np.inf)
        return LogTailReport(float(val) if val is not None else np.inf, div)

    @cached_property
    def drift(self):
        """b_A = int_0^inf z tau(z) dN(z) dz, dN = n+ - n-, the drift shift
        between the flow's exponent and its Levy form, as a read-only array;
        zero for an even density (odd integrand in z).  Raises
        QuadratureFailure if the integral fails."""
        nu = self.nu
        b = np.zeros(nu.d)
        if not nu.is_even:
            val, failed = self._integral(
                lambda z: z * _tau_factor(z) * nu.odd_difference(z), 0.0, np.inf)
            if failed:
                raise QuadratureFailure(f"drift correction integral failed: {val!r}",
                                        value=val)
            b = np.array([val])
        b.flags.writeable = False
        return b

    def antiderivative(self, ks, anchored=False):
        """G(k) = int_0^|k| a(rho) / rho drho at an array ks.

        ``ks`` holds signed frequencies in d=1 (G(-r) = conj G(r)) and radii
        in d=2.  A Chebyshev table of a gives G up to the constant G(r_min),
        r_min the smallest nonzero radius of ks, which cancels in a
        difference; ``anchored`` adds it, as one kernel integral.  G anchored
        is the steady exponent, so it raises Con1Violation, before any table,
        when the log tail diverges and the law has no steady state.
        """
        if anchored and self.log_tail.diverged:
            raise Con1Violation("the log-tail integral of the jump density diverges; "
                                "no steady state")
        r = np.abs(ks)
        G = np.zeros(ks.shape, dtype=complex)
        pos = r > 0.0
        if np.any(pos):
            r_min, r_max = float(np.min(r[pos])), float(np.max(r[pos]))
            if r_max > r_min:
                G[pos] = _log_chebyshev_integral(self.symbol, r_min, r_max, r[pos],
                                                 self.tol)
            if anchored:
                G[pos] += self._anchor(r_min)
            G = np.where(ks < 0.0, np.conj(G), G)
        return G

    def tail_average(self, x):
        """N_inf(z) = int_1^inf N(t z) t^{d-1} dt = |z|^{-d} int_{|z|}^inf n(rho)
        rho^{d-1} drho (Sato 1999, Thm 17.5) at nonzero x, a float or an array of
        signed z in d=1 (n- at x < 0) and radii in d=2: one reverse cumulative
        sum of the pieces between the sorted radii, for n+ and n- apart."""
        x, d = np.asarray(x, dtype=float), self.nu.d
        out = np.zeros(x.shape)
        for sign in (1.0, -1.0):
            side = sign * x > 0.0
            if np.any(side):
                r = np.abs(x[side])
                edges, pieces = self._pieces(
                    lambda t: _checked(self.nu.profile, sign * t) * t ** (d - 1), r)
                tails = np.append(np.cumsum(pieces[::-1])[::-1], 0.0)
                out[side] = tails[np.searchsorted(edges, r)] / r**d
        return out if out.ndim else float(out)

    def limit_density(self):
        """N_inf as a density: the jump density of the invariant law, an
        analytic one whose profile is ``tail_average`` (the stable leaf gives
        a stable density, the zero leaf the zero law)."""
        return LevyDensity(kind="analytic", d=self.nu.d, is_even=self.nu.is_even,
                           func=self.tail_average)


class _QuadLaw(_Law):
    """An analytic density's record, by QUADPACK: every integral of the law
    is an adaptive one, and B and the unit-ball moment, which every value of
    a shares, are computed on first use and kept."""

    def _integral(self, f, a, b):
        """(int_a^b f(r) dr, diverged) for an integrand f of the radius."""
        return try_integrate(f, (a, b), self.tol)

    @cached_property
    def unit_moment(self):
        """int_0^1 r^2 rho dr, which restores the Taylor term of a."""
        return self.nu.small_ball_second_moment(1.0)

    @cached_property
    def big(self):
        """B = int_1^inf rho dr."""
        return integrate_scaled(self.nu.radial_density, (1.0, np.inf), self.tol)

    def symbol(self, ks):
        """a at each nonzero k of ks (signed xi in d=1, |xi| in d=2), sharing
        the unit-ball moment and B; see ``jump_symbol``."""
        nu, tol, m2, big = self.nu, self.tol, self.unit_moment, self.big
        mean, kernel, tail = _SPHERICAL_MEAN[nu.d]
        rho, n_diff, near = nu.radial_density, nu.odd_difference, (_EPS_BALL, 1.0)
        out = np.empty(len(ks), dtype=float if nu.is_even else complex)
        for j, s in enumerate(ks):
            q = abs(s)
            head = integrate_scaled(lambda r: kernel(r * q) * rho(r), near, tol)
            moment = -0.5 / nu.d * q * q * m2
            out[j] = head + moment + (tail(rho, q, tol) - big)
            if nu.is_even:
                continue
            # imaginary part: int sin(zs) dN - s int z h(z) dN with dN = n_diff

            def imag_integrand(z):
                dn = n_diff(z)
                return np.sin(z * s) * dn - s * z * _h(z * z) * dn

            imag_head = integrate_scaled(imag_integrand, (_EPS_BALL, 1.0), tol)
            sgn = 1.0 if s > 0 else -1.0
            tail_sin = integrate_scaled(n_diff, (1.0, np.inf), tol, weight="sin", wvar=q)
            tail_h = integrate_scaled(
                lambda z: s * z * _h(z * z) * n_diff(z), (1.0, np.inf), tol
            )
            out[j] += 1j * (imag_head + sgn * tail_sin - tail_h)
        return out

    def _anchor(self, r):
        """G(r) at one radius r > 0, as one integral against a closed-form kernel.

        Swapping the order of integration gives G(r) = -int_0^inf rho_N(s)
        K_d(r s) ds (Sato 1999, Thm 17.5).  Past s = 1, K_d(x) = gamma + ln(x/d)
        + R_d(x) gives (gamma + ln(r/d)) B + T (the log tail) + int rho(s)
        R_d(r s) ds: R_1 = -Ci = g cos - f sin takes two QAWF calls, and
        R_2(x) = int_x^inf J0(t) dt / t ~ -J1(x)/x is cut at the zeros of
        J1(r s).  A non-even d=1 density adds i int_0^inf dN(z) (Si(r z) - r z
        h(z)) dz, dN = N(z) - N(-z), with Si = pi/2 - f cos - g sin past z = 1.
        """
        nu, tol, big = self.nu, self.tol, self.big
        d, rho, n_diff = nu.d, nu.radial_density, nu.odd_difference

        def qawf(w, fg, trig):
            return integrate_scaled(lambda z: w(z) * _aux_fg(r * z)[fg], (1.0, np.inf),
                                    tol, weight=trig, wvar=r)

        def odd(z):
            return (_special().sici(r * z)[0] - r * z / (1.0 + z * z)) * n_diff(z)

        if d == 1:
            osc = qawf(rho, 1, "cos") - qawf(rho, 0, "sin")
        else:
            osc = _segmented_tail(
                lambda s: (_kernel(2, r * s) - np.euler_gamma - np.log(0.5 * r * s))
                * rho(s), _special().jn_zeros(1, 100 + int(r / np.pi)) / r, tol)
        G = -integrate_scaled(lambda s: _kernel(d, r * s) * rho(s), (0.0, 1.0), tol)
        G -= (np.euler_gamma + np.log(r / d)) * big + self.log_tail.value + osc
        if nu.is_even:
            return G
        im = integrate_scaled(odd, (0.0, 1.0), tol) + integrate_scaled(
            lambda z: (0.5 * np.pi - r * z / (1.0 + z * z)) * n_diff(z), (1.0, np.inf), tol)
        return G + 1j * (im - qawf(n_diff, 0, "cos") - qawf(n_diff, 1, "sin"))

    def _pieces(self, f, radii):
        """The edges of a tail integral at the radii, and int f over each piece:
        the radii, infinity and the powers of ten in (r, 1], so that no finite
        piece spans a decade; a piece (a, b) is one QUADPACK integral relative
        to f(a) min(b - a, a), so that the tolerance is relative where n is tiny."""
        r0 = np.min(radii)
        decades = 10.0 ** np.arange(np.floor(np.log10(r0)) + 1.0, 1.0)
        edges = np.append(np.union1d(radii, decades[decades > r0]), np.inf)
        pieces = []
        for a, b in zip(edges[:-1], edges[1:]):
            scale = f(a) * min(b - a, a) or 1.0
            pieces.append(scale * integrate_scaled(lambda rho: f(rho) / scale,
                                                   (a, b), self.tol))
        return edges, np.asarray(pieces)


# a table's rule: 12 Gauss-Legendre points on each panel, a panel no longer than
# 6 / q where the integrand oscillates at frequency q, so that the error term
# (q h / 2)^24 / 24! stays below 1e-12 (Davis & Rabinowitz 1984, 2.7)
_GL_POINTS = 12
# a table's a sums over blocks of this many radii, so that its (radii x nodes)
# matrices stay a few MiB however many radii a grid asks for
_SYMBOL_BLOCK = 64
# the n-point nodes and weights on (-1, 1), built at first use: leggauss loads LAPACK
_legendre = lru_cache(maxsize=None)(legendre.leggauss)


def _gauss(edges, n=_GL_POINTS):
    """Nodes and weights, as (pieces, n) arrays, of the n-point Gauss-Legendre
    rule on each piece between consecutive edges."""
    x, w = _legendre(n)
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (1.0 + x), half * w


def _rule(a, b, q, cuts=()):
    """Flat nodes and weights of the rule on (a, b), cut at the cuts inside it
    and into panels no longer than 6 / q."""
    cuts = np.asarray(cuts, dtype=float)
    edges = np.union1d(np.arange(a, b, 6.0 / q), cuts[(cuts > a) & (cuts < b)])
    x, w = _gauss(np.append(edges, b))
    return x.ravel(), w.ravel()


class _StableLaw(_Law):
    """The stable law's record, in closed form.

    Its radial density is C r^{-1-alpha}, C = |S^{d-1}| c(d, alpha) / D with
    |S^0| = 2, |S^1| = 2 pi and D the density's divisor, so the moment over
    |z| <= eps is C eps^{2-alpha} / (2 - alpha), B = C / alpha, the log tail
    C / alpha^2, a = -|k|^alpha / D, G = -|k|^alpha / alpha / D and N_inf =
    N / alpha, the stable density of divisor D alpha.
    """

    def __init__(self, nu, tol):
        super().__init__(nu, tol)
        self.C = (2.0 if nu.d == 1 else 2.0 * np.pi) * _stable_norm_constant(
            nu.d, nu.alpha) / nu.divisor
        self.log_tail = LogTailReport(self.C / nu.alpha**2, False)

    def moment(self, eps):
        return self.C * eps ** (2.0 - self.nu.alpha) / (2.0 - self.nu.alpha), False

    def mass(self):
        return self.C / self.nu.alpha, False

    def symbol(self, ks):
        return -(np.abs(ks) ** self.nu.alpha) / self.nu.divisor

    def antiderivative(self, ks, anchored=False):
        return -(np.abs(ks) ** self.nu.alpha) / self.nu.alpha / self.nu.divisor

    def tail_average(self, x):
        return _checked(self.limit_density().profile, x)

    def limit_density(self):
        return replace(self.nu, divisor=self.nu.divisor * self.nu.alpha)


class _TableLaw(_Law):
    """A table's record, by the rule on the pieces between its knots, past the
    last of which, R, it is zero; q = 1 where nothing oscillates.  a is an
    array sum per block of radii, of (m(k r) - 1) rho(r) and i (sin(k z) -
    k z h(z)) dN(z); the anchor G(r) is the rule on (0, r), where a oscillates at
    frequency at most R.  N_inf's pieces take the two-point rule, exact there."""

    def _integral(self, f, a, b):
        x, w = _rule(a, max(a, min(b, self.nu.knots[-1])), 1.0, self.nu.knots)
        return np.dot(w, f(x)), False

    def symbol(self, ks):
        nu, ks, B = self.nu, np.asarray(ks, dtype=float), _SYMBOL_BLOCK
        r, w = _rule(0.0, nu.knots[-1], np.max(np.abs(ks)), nu.knots)
        even, odd, h = (w * nu.radial_density(r),
                        None if nu.is_even else w * nu.odd_difference(r), _h(r * r))

        def block(k):
            kr = k[:, None] * r
            out = (_SPHERICAL_MEAN[nu.d][0](kr) - 1.0) @ even
            return out if nu.is_even else out + 1j * ((np.sin(kr) - kr * h) @ odd)

        return np.concatenate([block(ks[j:j + B]) for j in range(0, len(ks), B)])

    def _anchor(self, r):
        x, w = _rule(0.0, r, self.nu.knots[-1])
        return np.dot(w, self.symbol(x) / x)

    def _pieces(self, f, radii):
        knots = np.asarray(self.nu.knots)
        edges = np.union1d(radii, knots[knots > np.min(radii)])
        x, w = _gauss(edges, 2)
        return edges, np.sum(w * f(x), axis=1)


class _NoJumps(_Law):
    """The zero law's record, of a triplet without jumps: every integral is
    0, and a, G and N_inf are real zeros, so nothing is integrated or
    tabulated; its invariant law has no jumps either."""

    jumps = False

    def _integral(self, f, a, b):
        return 0.0, False

    def symbol(self, ks, anchored=False):
        return np.zeros(np.shape(ks))

    # a, G (anchored or not) and N_inf are the same real zeros
    antiderivative = tail_average = symbol

    def limit_density(self):
        return self.nu


@lru_cache(maxsize=16)
def _law(nu: LevyDensity, tol=1e-10) -> _Law:
    """The record of nu's radial quantities at tolerance tol, one per pair;
    what holds at every tolerance, such as ``jumps``, may be read at the
    default."""
    return {"stable": _StableLaw, "tabulated": _TableLaw, "analytic": _QuadLaw,
            "zero": _NoJumps}[nu.kind](nu, tol)


@dataclass(frozen=True)
class LevyTriplet:
    """Parameters (sigma, b, nu) of a Levy operator.

    nu = None, no jumps, is held as the zero density of dimension d, so that
    ``nu`` is always a LevyDensity and its record answers for it.
    """

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
        object.__setattr__(self, "nu", LevyDensity(kind="zero", d=self.d)
                           if self.nu is None else self.nu)
        if self.nu.d != self.d:
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
    return gauss + drift + jump_symbol(triplet.nu, _radial_argument(axes), tol)


def dual_triplet(triplet: LevyTriplet) -> LevyTriplet:
    """Adjoint parameters (-b, sigma, nu-check) with nu-check(z) = nu(-z)."""
    nu = triplet.nu
    if not nu.is_even:
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
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(n)) and np.all(n >= 0)):
        raise ValueError(f"density table {path} needs finite knots and finite, "
                         "nonnegative values")
    order = np.argsort(z)
    z, n = z[order], n[order]
    radial = np.all(z > 0)

    def func(x):
        return np.interp(np.abs(x) if radial else x, z, n, left=0.0, right=0.0)

    return LevyDensity(kind="tabulated", d=d, func=func, is_even=radial,
                       knots=tuple(np.unique(np.abs(z)).tolist()))
