"""Deterministic batteries of smooth, nonnegative, boundary-decayed fields.

A battery is built one field at a time, so its first field does not depend
on how many fields follow it.
"""

from __future__ import annotations

import numpy as np

from .spectral import Grid, SpectralField, apply_multiplier

__all__ = ["generate_test_fields", "gaussian_field", "band_limit"]

FAMILIES = ("gaussians", "bumps", "mixtures", "perturbed-steady")


def gaussian_field(grid: Grid, variance=1.0, center=0.0) -> SpectralField:
    """Normalized isotropic Gaussian density on the grid.

    ``center`` is a number (the same on every axis) or one number per axis.
    """
    # sqrt of the d-th power, not a (d/2)-th power: exactly sqrt(2 pi v) in
    # d=1 and 2 pi v in d=2, which pow(x, 0.5) is not always
    norm = np.sqrt((2.0 * np.pi * variance) ** grid.d)
    return SpectralField(grid, values=_gaussian(grid, variance, center, norm))


def _gaussian(grid: Grid, variance, center, norm=1.0) -> np.ndarray:
    """exp(-|x - c|^2 / 2 variance) / norm on the grid, as the outer product of
    one exponential per axis (the first divided by ``norm``) on the open mesh."""
    c = np.broadcast_to(np.asarray(center, dtype=float), (grid.d,))
    e = [np.exp(-((x - ci) ** 2) / (2.0 * variance))
         for x, ci in zip(grid.open_coords(), c)]
    e[0] /= norm
    return e[0] if grid.d == 1 else e[0] * e[1]


def _bump(grid: Grid, rng) -> np.ndarray:
    """exp(-|x - c|^2 / 2w^2) on the grid, for c (the same on every axis) drawn
    from U(-2, 2) and then w from U(0.8, 2)."""
    c, w = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.8, 2.0))
    return _gaussian(grid, w**2, c)


def band_limit(f: SpectralField) -> SpectralField:
    """Zero coefficients beyond 0.8 Nyquist so differentiation is exact."""
    mask = (f.grid.symbol(1.0) <= 0.8 * np.pi / f.grid.dx).astype(float)
    return apply_multiplier(f, mask)


def _iter_fields(grid: Grid, seed: int, family: str, steady=None):
    """Yield the fields of ``generate_test_fields`` one at a time, in order.

    Each is band-limited and clipped at 0 when reached, after its own random
    draws: ``next`` of this generator is ``generate_test_fields(...)[0]``.
    Between yields the generator holds no field, so a consumer that drops
    each field before asking for the next holds one at a time.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown field family {family!r}")
    if family == "perturbed-steady" and steady is None:
        raise ValueError("perturbed-steady needs the steady density field")
    rng = np.random.default_rng(seed)
    for k in range(9 if family == "gaussians" else 6):
        yield _field(grid, rng, family, k, steady)


def _field(grid: Grid, rng, family: str, k: int, steady):
    """The k-th field of a battery, drawing from ``rng``."""
    if family == "gaussians":
        vals = gaussian_field(grid, (0.25, 1.0, 4.0)[k // 3],
                              (-2.0, 0.0, 2.0)[k % 3]).values
    elif family == "bumps":
        vals = 0.0
        for _ in range(rng.integers(1, 4)):
            var = float(rng.uniform(0.3, 2.5))
            center = float(rng.uniform(-3.0, 3.0))
            amp = float(rng.uniform(0.3, 1.0))
            vals += amp * gaussian_field(grid, var, center).values
    elif family == "mixtures":
        w = rng.dirichlet(np.ones(3))
        vals = sum(wi * gaussian_field(grid, float(rng.uniform(0.4, 3.0)),
                                       float(rng.uniform(-2.5, 2.5))).values
                   for wi in w)
    else:
        vals = steady.values * (1.0 + 0.3 * _bump(grid, rng))
        vals /= np.sum(vals) * grid.dx**grid.d
    f = band_limit(SpectralField(grid, values=vals))
    np.clip(f.values, 0.0, None, out=f.values)
    return f


def generate_test_fields(grid: Grid, seed: int, family: str, steady=None):
    """Seeded battery of band-limited, nonnegative, boundary-decayed fields.

    ``family`` is one of gaussians | bumps | mixtures | perturbed-steady;
    the last needs the steady-state density field.
    """
    return list(_iter_fields(grid, seed, family, steady))
