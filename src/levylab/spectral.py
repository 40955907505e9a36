"""Uniform periodic grids and Fourier transforms.

The forward transform approximates the continuum integral
``F(w)(xi) = int exp(+i x.xi) w(x) dx`` (probabilistic sign, + in the
forward kernel) on the box [-L, L]^d with periodic wrap-around.  All other
modules go through this one wrapper so the sign convention is fixed in a
single place.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import InvalidExponent, NonHermitianSymbol

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

    def freq_norm(self):
        axes = self.freqs()
        return np.sqrt(sum(a**2 for a in axes))

    @cached_property
    def _phase(self):
        # exp(-i L xi_k) = (-1)^k per axis; outer product over dimensions
        axis = (-1.0) ** np.arange(self.M)
        p = reduce(np.multiply.outer, (axis,) * self.d)
        p.flags.writeable = False
        return p

    def forward(self, values):
        """Discrete approximation of int exp(+i x.xi) w(x) dx at grid freqs."""
        c = np.fft.ifftn(values) * (self.M**self.d)
        return c * self._phase * (self.dx**self.d)

    def inverse(self, coefficients):
        """Exact inverse of :meth:`forward` on the grid."""
        scale = (self.dxi / (2.0 * np.pi)) ** self.d
        return np.fft.fftn(coefficients * self._phase) * scale

    def integrate(self, values):
        """Riemann sum of a grid function (exact = trapezoid, periodic)."""
        return np.sum(values) * self.dx**self.d


# relative imaginary mass above which a real-input multiplier result warns
_HERMITIAN_TOL = 1e-8


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
            self._values = self.grid.inverse(self._coefficients).real
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
    """Apply the Fourier multiplier ``m(xi)`` to a field.

    ``m`` is called with the grid frequency meshes (one array per dimension)
    and must return a complex array of the grid shape.  When the input is
    real and ``m`` is Hermitian the result is real up to round-off; a real
    input producing imaginary mass above 1e-8 (relative) triggers a
    NonHermitianSymbol warning, and the real part is returned regardless.
    """
    g = f.grid
    mult = np.asarray(m(*g.freqs()), dtype=complex)
    new_coeff = f.coefficients * mult
    out = SpectralField(g, coefficients=new_coeff)
    w = g.inverse(new_coeff)
    scale = np.max(np.abs(w.real)) or 1.0
    if np.max(np.abs(w.imag)) > _HERMITIAN_TOL * scale:
        warnings.warn(
            "real field acquired imaginary mass "
            f"{np.max(np.abs(w.imag)):.3e} under a non-Hermitian multiplier",
            NonHermitianSymbol,
        )
    out._values = w.real
    return out


def lp_norm(f: SpectralField, p) -> float:
    """Riemann-sum L^p norm; max |f| for p = inf."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise InvalidExponent(f"L^p norm needs p >= 1, got {p}")
    g = f.grid
    return float(np.sum(np.abs(f.values) ** p) * g.dx**g.d) ** (1.0 / p)
