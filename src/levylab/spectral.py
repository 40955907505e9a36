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

    @property
    def half_shape(self):
        """Shape of the ``rfftn`` half spectrum: (M,)*(d-1) + (M//2+1,)."""
        return (self.M,) * (self.d - 1) + (self.M // 2 + 1,)

    def symbol(self, alpha):
        """|xi|^alpha on the ``rfftn`` half-spectrum mesh, cached read-only per alpha.

        The last axis holds the frequencies pi k / L for k = 0, ..., M/2; its
        last column, k = M/2, takes |xi| from ``xi1``, whose entry there is
        -M/2 (the same magnitude).  Every multiplier of the heat lane is built
        from this array; ``freqs`` stays on the full mesh for the flow.
        """
        if alpha not in self._symbols:
            half = self.xi1[: self.M // 2 + 1]
            axes = np.meshgrid(*(self.xi1,) * (self.d - 1), half, indexing="ij")
            s = np.sqrt(sum(a**2 for a in axes)) ** alpha
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
    """A function on a periodic grid with lazily synchronized Fourier data.

    Two transforms of the values are cached on first use: ``half_spectrum``,
    the unscaled ``rfftn`` that every Fourier multiplier reads, and
    ``coefficients``, the full complex coefficients of ``Grid.forward``,
    which serve only the Fokker-Planck flow and the entropy code.
    """

    def __init__(self, grid: Grid, values=None, coefficients=None):
        if values is None and coefficients is None:
            raise ValueError("need values or coefficients")
        self.grid = grid
        self._half = None
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

    @property
    def half_spectrum(self):
        """Unscaled ``rfftn`` of the values, on the mesh of ``Grid.symbol``."""
        if self._half is None:
            self._half = np.fft.rfftn(self.values)
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
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        vals = np.array([float(r[-1]) for r in rows[1:]])
        return cls(grid, values=vals.reshape(grid.shape))


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
        raise ValueError(
            f"the multiplier must have the rfftn half-spectrum shape "
            f"{g.half_shape}, got {np.shape(m)}"
        )
    return SpectralField(g, values=np.fft.irfftn(
        f.half_spectrum * m, s=g.shape, axes=range(g.d)))


def lp_norm(f: SpectralField, p) -> float:
    """Riemann-sum L^p norm; max |f| for p = inf."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise InvalidExponent(f"L^p norm needs p >= 1, got {p}")
    g = f.grid
    return float(np.sum(np.abs(f.values) ** p) * g.dx**g.d) ** (1.0 / p)
