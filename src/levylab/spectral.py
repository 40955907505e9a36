"""Uniform periodic grids and Fourier transforms.

The forward transform approximates the continuum integral
``F(w)(xi) = int exp(+i x.xi) w(x) dx`` (probabilistic sign, + in the
forward kernel) on the box [-L, L]^d with periodic wrap-around.  All other
modules go through this one wrapper so the sign convention is fixed in a
single place.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import InvalidExponent

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

    def freqs(self):
        """Meshgrid frequency arrays in FFT order, one per dimension (read-only)."""
        return self._freq_mesh

    @cached_property
    def _freq_mesh(self):
        axes = np.meshgrid(*(self.xi1,) * self.d, indexing="ij")
        for a in axes:
            a.flags.writeable = False
        return axes

    def symbol(self, alpha):
        """|xi|^alpha on the frequency mesh, cached read-only per alpha."""
        if alpha not in self._symbols:
            s = np.sqrt(sum(a**2 for a in self._freq_mesh)) ** alpha
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

    def integrate(self, values):
        """Riemann sum of a grid function (exact = trapezoid, periodic)."""
        return np.sum(values) * self.dx**self.d


class SpectralField:
    """A function on a periodic grid with lazily synchronized Fourier data."""

    def __init__(self, grid: Grid, values=None, coefficients=None):
        if values is None and coefficients is None:
            raise ValueError("need values or coefficients")
        self.grid = grid
        self._values = None if values is None else np.asarray(values, dtype=float)
        self._coefficients = (
            None if coefficients is None else np.asarray(coefficients, dtype=complex)
        )
        if self._values is not None and self._values.shape != grid.shape:
            raise ValueError("values shape does not match grid")
        if self._coefficients is not None and self._coefficients.shape != grid.shape:
            raise ValueError("coefficient shape does not match grid")

    @classmethod
    def from_function(cls, grid: Grid, f):
        return cls(grid, values=f(*grid.coords()))

    @property
    def values(self):
        if self._values is None:
            self._values = self.grid.inverse(self._coefficients).real.copy()
        return self._values

    @property
    def coefficients(self):
        if self._coefficients is None:
            self._coefficients = self.grid.forward(self._values)
        return self._coefficients

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
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        vals = np.array([float(r[-1]) for r in rows[1:]])
        return cls(grid, values=vals.reshape(grid.shape))


def apply_multiplier(f: SpectralField, m) -> SpectralField:
    """Apply the real Fourier multiplier ``m`` to a field.

    ``m`` is a real array on the grid's frequency mesh, such as a function
    of ``Grid.symbol``.  A real multiplier that depends on |xi| alone is
    Hermitian, so a real field stays real; the real part of the inverse is
    returned.  A complex ``m`` raises TypeError.
    """
    if np.iscomplexobj(m):
        raise TypeError("the multiplier must be a real array")
    g = f.grid
    out = SpectralField(g, coefficients=f.coefficients * m)
    # a copy, so the complex inverse is not kept alive behind a view
    out._values = g.inverse(out.coefficients).real.copy()
    return out


def lp_norm(f: SpectralField, p) -> float:
    """Riemann-sum L^p norm; max |f| for p = inf."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise InvalidExponent(f"L^p norm needs p >= 1, got {p}")
    g = f.grid
    return float(np.sum(np.abs(f.values) ** p) * g.dx**g.d) ** (1.0 / p)
