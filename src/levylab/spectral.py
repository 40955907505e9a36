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
        """|xi|^alpha on the ``rfftn`` half-spectrum mesh, cached read-only per alpha.

        The mesh is that of ``freqs`` without its extra row.
        """
        if alpha not in self._symbols:
            s = np.sqrt(sum(a[: self.M] ** 2 for a in self.freqs())) ** alpha
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
        return np.fft.irfftn(s, s=self.shape, axes=range(self.d)) / self.dx**self.d

    def integrate(self, values):
        """Riemann sum of a grid function (exact = trapezoid, periodic)."""
        return np.sum(values) * self.dx**self.d


class SpectralField:
    """Values of a real function on a periodic grid.

    ``half_spectrum``, the unscaled ``rfftn`` that every Fourier multiplier
    and the flow read, is cached on first use.  ``coefficients`` is
    ``Grid.forward`` of the values on the full mesh, recomputed per call: a
    view for tests and diagnostics that no code path of the package reads.
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
