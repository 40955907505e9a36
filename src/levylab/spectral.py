"""Uniform periodic grids and Fourier transforms.

The forward transform approximates the continuum integral
``F(w)(xi) = int exp(+i x.xi) w(x) dx`` (probabilistic sign, + in the
forward kernel) on the box [-L, L]^d with periodic wrap-around.  Every
transform of the package lives here, so the sign convention, the
half-spectrum mesh of ``Grid.freqs`` with its d=2 alias row, and the dx, dxi
scalings are fixed in a single place: the grid transforms, the Parseval sum
of a half spectrum, and the flow's transform of a field at contracted
frequencies scale * xi, which also tests the field's Nyquist edge.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import InterpolationDegradation, InvalidExponent

__all__ = ["Grid", "SpectralField", "apply_multiplier", "lp_norm"]


def _is_power_of_two(m):
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L]^d with M points per dimension.

    Grid points are x_j = -L + j dx with dx = 2L/M; the discrete frequencies
    are xi_k = pi k / L for k in {-M/2, ..., M/2 - 1} (stored in FFT order).
    """

    d: int
    L: float
    M: int
    _symbols: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"only d in {{1, 2}} is supported, got {self.d}")
        if self.L <= 0:
            raise ValueError("box half-width L must be positive")
        if not _is_power_of_two(self.M) or self.M < 8:
            raise ValueError("M must be a power of two >= 8")

    @property
    def dx(self):
        return 2.0 * self.L / self.M

    @property
    def dxi(self):
        return np.pi / self.L

    @property
    def x1(self):
        """1-D coordinate axis."""
        return -self.L + self.dx * np.arange(self.M)

    @property
    def xi1(self):
        """1-D frequency axis in FFT order: pi k / L."""
        return 2.0 * np.pi * np.fft.fftfreq(self.M, d=self.dx)

    @property
    def shape(self):
        return (self.M,) * self.d

    def coords(self):
        """Meshgrid coordinate arrays, one per dimension."""
        return np.meshgrid(*(self.x1,) * self.d, indexing="ij")

    def open_coords(self):
        """``coords`` as an open mesh (``np.ix_``): arrays that broadcast to it."""
        return np.ix_(*(self.x1,) * self.d)

    def freqs(self):
        """Frequency arrays on the ``rfftn`` half-spectrum mesh, one per dimension.

        The last axis holds k = 0, ..., M/2 (k = M/2 as -M/2, from ``xi1``).
        In d=2 the first axis, in FFT order, ends with an extra row k = +M/2:
        the alias of row -M/2 that ``synthesize`` averages in.
        """
        rows = np.append(self.xi1, -self.xi1[self.M // 2])
        return np.meshgrid(*(rows,) * (self.d - 1), self.xi1[: self.M // 2 + 1],
                           indexing="ij")

    @property
    def half_shape(self):
        """Shape of the ``rfftn`` half spectrum: (M,)*(d-1) + (M//2+1,)."""
        return (self.M,) * (self.d - 1) + (self.M // 2 + 1,)

    def symbol(self, alpha):
        """|xi|^alpha on the ``rfftn`` half-spectrum mesh (``freqs`` without its
        extra row), cached read-only per alpha: a power of the cached |xi|."""
        if alpha not in self._symbols:
            s = (self.symbol(1.0) if alpha != 1.0 else
                 np.sqrt(sum(a[: self.M] ** 2 for a in self.freqs()))) ** alpha
            s.flags.writeable = False
            self._symbols[alpha] = s
        return self._symbols[alpha]

    @cached_property
    def _phase(self):
        # exp(-i L xi_k) = (-1)^k per axis; outer product over dimensions
        axis = (-1.0) ** np.arange(self.M)
        p = reduce(np.multiply.outer, (axis,) * self.d)
        p.flags.writeable = False
        return p

    def forward(self, values):
        """Discrete approximation of int exp(+i x.xi) w(x) dx at grid freqs."""
        c = np.fft.ifftn(values)
        c *= self.M**self.d
        c *= self._phase
        c *= self.dx**self.d
        return c

    def inverse(self, coefficients):
        """Exact inverse of :meth:`forward` on the grid."""
        w = np.fft.fftn(coefficients * self._phase)
        w *= (self.dxi / (2.0 * np.pi)) ** self.d
        return w

    def synthesize(self, spectrum):
        """Real grid values whose continuum transform is ``spectrum`` on ``freqs()``.

        The inverse of ``forward`` for a real field, by one ``irfftn``.  Like
        the real part of a full inverse, it pairs each coefficient with the
        conjugate of its mirror at -xi; but row -M/2 of a full axis stands for
        both +-M/2, so in d=2 the extra row +M/2 is averaged into it for
        k2 < M/2 (the column k2 = M/2 pairs within itself).
        """
        M = self.M
        s = np.conj(spectrum)
        if self.d == 2:
            s[M // 2, :-1] = 0.5 * (s[M // 2, :-1] + s[M, :-1])
            s = s[:M]
        s *= self._phase[..., : M // 2 + 1]
        return _inverse(s, np.empty(self.shape)) / self.dx**self.d

    def integrate(self, values):
        """Riemann sum of a grid function (exact = trapezoid, periodic)."""
        return np.sum(values) * self.dx**self.d


class SpectralField:
    """Values of a real function on a periodic grid.

    ``half_spectrum``, the unscaled ``rfftn`` that every Fourier multiplier
    and the flow read, is cached read-only on first use.  ``coefficients`` is
    ``Grid.forward`` of the values on the full mesh, recomputed per call.  No
    run reads it, nor ``Grid.forward`` and ``Grid.inverse``: they stay because
    the benchmark (``perfbench``) checks and wraps them, and leave with its
    next change.
    """

    def __init__(self, grid: Grid, values):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != grid.shape:
            raise ValueError("values shape does not match grid")
        self._half = None

    @classmethod
    def from_function(cls, grid: Grid, f):
        return cls(grid, values=f(*grid.coords()))

    @property
    def coefficients(self):
        return self.grid.forward(self.values)

    @property
    def half_spectrum(self):
        """Unscaled ``rfftn`` of the values, on the mesh of ``Grid.symbol``;
        read-only, so that an in-place ``_inverse`` of it raises."""
        if self._half is None:
            self._half = _forward(self.values)
            self._half.flags.writeable = False
        return self._half

    def with_values(self, values):
        return SpectralField(self.grid, values=values)

    def mass(self):
        return self.grid.integrate(self.values)

    def to_csv(self, path):
        """Write (coordinates, value) rows with 17 significant digits."""
        coords = self.grid.coords()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow([f"x{i}" for i in range(self.grid.d)] + ["value"])
            flat = [c.ravel() for c in coords] + [self.values.ravel()]
            for row in zip(*flat):
                w.writerow([f"{v:.17g}" for v in row])

    @classmethod
    def from_csv(cls, grid: Grid, path):
        """Read the rows of ``to_csv``; ValueError unless each has d + 1
        columns and the coordinates lie within 1e-12 L of ``grid.coords()``."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        coords = np.stack([c.ravel() for c in grid.coords()], axis=1)
        if [len(r) for r in rows] != [grid.d + 1] * len(coords):
            raise ValueError(f"{grid} takes {len(coords)} rows of {grid.d + 1} columns")
        table = np.array(rows, dtype=float)
        if not np.all(np.abs(table[:, :-1] - coords) <= 1e-12 * grid.L):
            raise ValueError(f"the coordinates are not those of {grid}")
        return cls(grid, values=table[:, -1].reshape(grid.shape))


def apply_multiplier(f: SpectralField, m) -> SpectralField:
    """Apply the real Fourier multiplier ``m`` to a field.

    ``m`` is a real array on the ``rfftn`` half-spectrum mesh of
    ``Grid.symbol``, such as a function of it; it is taken as even,
    m(-xi) = m(xi), so a real field stays real by construction.  The result
    is ``irfftn`` of the field's cached half spectrum times ``m``: the phase
    and the dx, dxi scalings of ``Grid.forward`` and ``Grid.inverse`` cancel
    between the two transforms.  A complex ``m`` raises TypeError, one of
    any other shape (a full-mesh array, say) ValueError.
    """
    if np.iscomplexobj(m):
        raise TypeError("the multiplier must be a real array")
    g = f.grid
    if np.shape(m) != g.half_shape:
        raise ValueError(f"the multiplier must have the rfftn half-spectrum shape "
                         f"{g.half_shape}, got {np.shape(m)}")
    return SpectralField(g, values=_inverse(f.half_spectrum * m, np.empty(g.shape)))


def _forward(values):
    """Bitwise ``np.fft.rfftn(values)``, the d=2 first-axis ``fft`` done in place."""
    h = np.fft.rfft(values)
    return h if h.ndim == 1 else np.fft.fft(h, axis=0, out=h)


def _inverse(spectrum, out):
    """``np.fft.irfftn`` of a half spectrum into the real grid array ``out``,
    bitwise.  In d=2 the first-axis ``ifft`` runs in place in ``spectrum``:
    pass scratch (the same on every call reuses it), never a ``half_spectrum``."""
    if out.ndim == 2:
        np.fft.ifft(spectrum, axis=0, out=spectrum)
    return np.fft.irfft(spectrum, n=out.shape[-1], out=out)


def _parseval(grid, p):
    """int p dxi / (2 pi)^d times dx^{2d}, p on the ``rfftn`` half-spectrum
    mesh, taken as even: the half sums to the full mesh with weight 2 on
    every column but the first and the last, which pair within themselves."""
    total = 2.0 * np.sum(p) - np.sum(p[..., 0]) - np.sum(p[..., -1])
    return float(total * grid.dx ** (2 * grid.d) * (grid.dxi / (2.0 * np.pi)) ** grid.d)


def _unit_phase(half_turns):
    """exp(i pi x) for an np.longdouble array x of half turns, reduced mod 2
    before the exponential, so that a phase far past 2 pi keeps its
    long-double accuracy (on platforms where that is float64, the
    transform's error grows to about 2e-14 of max|coef| at M = 8192)."""
    half_turns -= 2 * np.rint(half_turns / 2)
    return np.exp(1j * np.pi * half_turns.astype(float))


def _chirp(M: int, scale: float):
    """exp(i pi scale m^2 / M) for m = 1 - M, ..., M - 1.

    The phase reaches pi M, so a float64 product would carry an absolute
    error of about pi M eps; it is formed from the exact integer m^2.  It is
    even in m, so it is evaluated for m = 0, ..., M - 1 and mirrored.
    """
    m = np.arange(M)
    half = _unit_phase(np.longdouble(scale) * (m * m) / M)
    return np.concatenate([half[:0:-1], half])


def _contracted(u0: SpectralField, scale: float):
    """Continuum-transform values of the real field u0 at the contracted
    frequencies scale * xi, on the mesh of ``Grid.freqs()``.

    Warns with InterpolationDegradation when u0's coefficients have not
    decayed below 1e-12 (relative) at the Nyquist edge.  With centred indices
    k, n in [-M/2, M/2) per axis, x_n = n dx and scale xi_k x_n = theta k n
    with theta = 2 pi scale / M, so the values are dx^d sum_n exp(i theta
    k.n) u_n: the exact trigonometric interpolant of the grid coefficients,
    valid because |scale| <= 1 keeps the targets inside the resolved band.
    The kernel factors over the axes, and on each axis k n = (k^2 + n^2 -
    (k - n)^2) / 2 turns the sum into a convolution with the chirp
    exp(-i theta m^2 / 2), computed by FFTs of length 2M (Bluestein's
    chirp-z transform; Rabiner, Schafer & Rader 1969): O(M^d log M) per call.
    """
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
    # the centred index of each slot in FFT order; freqs()'s last axis is
    # k = 0, ..., M/2 - 1, -M/2, the first slots of that order
    order = np.fft.ifftshift(np.arange(M))
    half = out[..., order[: M // 2 + 1]]
    if g.d == 2:
        # the alias row +M/2: u0 is real, so its transform there is the
        # conjugate of row -M/2 (centred row 0) at -k2.  No centred index
        # reaches k2 = +M/2, so its corner (+M/2, -M/2) is summed directly:
        # theta k.n = pi scale (n1 - n2) there
        half = np.vstack([half[order], np.conj(out[0, M // 2::-1])])
        e = _unit_phase(np.longdouble(scale) * np.arange(-(M // 2), M // 2))
        half[-1, -1] = e @ u0.values @ np.conj(e)
    return half * g.dx**g.d


def lp_norm(f: SpectralField, p) -> float:
    """Riemann-sum L^p norm; max |f| for p = inf."""
    return _riemann_norm(f.values, p, f.grid)


def _riemann_norm(values, p, grid, out=None):
    """``lp_norm`` of grid values, taking |values|^p in ``out`` (a real grid
    array, overwritten) or, without one, in a fresh array.  Where p = 2^k for
    a k >= 1, |values|^p is values * values squared k - 1 more times in
    place, with neither ``abs`` nor libm ``pow``; any other p takes
    ``|values| ** p``."""
    if p < 1:
        raise InvalidExponent(f"L^p norm needs p >= 1, got {p}")
    if p == np.inf:
        return float(np.max(np.abs(values, out=out)))
    mantissa, exponent = math.frexp(p)  # p = 2^(exponent - 1) when mantissa is 1/2
    if mantissa == 0.5 and exponent > 1:
        v = np.multiply(values, values, out=out)
        for _ in range(exponent - 2):
            np.multiply(v, v, out=v)
    else:
        v = np.abs(values, out=out)
        v **= p
    return float(np.sum(v) * grid.dx**grid.d) ** (1.0 / p)
