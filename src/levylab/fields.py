"""Deterministic batteries of smooth, nonnegative, boundary-decayed fields."""

from __future__ import annotations

import numpy as np

from .spectral import Grid, SpectralField, apply_multiplier

__all__ = ["generate_test_fields", "gaussian_field", "band_limit"]

FAMILIES = ("gaussians", "bumps", "mixtures", "perturbed-steady")


def gaussian_field(grid: Grid, variance=1.0, center=0.0) -> SpectralField:
    """Normalized isotropic Gaussian density on the grid.

    ``center`` is a number (the same on every axis) or one number per axis.
    """
    c = np.broadcast_to(np.asarray(center, dtype=float), (grid.d,))
    r2 = sum((x - ci) ** 2 for x, ci in zip(grid.coords(), c))
    # sqrt of the d-th power, not a (d/2)-th power: exactly sqrt(2 pi v) in
    # d=1 and 2 pi v in d=2, which pow(x, 0.5) is not always
    vals = np.exp(-r2 / (2.0 * variance)) / np.sqrt((2.0 * np.pi * variance) ** grid.d)
    return SpectralField(grid, values=vals)


def band_limit(f: SpectralField, fraction: float = 0.8) -> SpectralField:
    """Zero coefficients beyond fraction * Nyquist so differentiation is exact."""
    cut = fraction * np.pi / f.grid.dx

    def mask(*axes):
        r = np.sqrt(sum(a**2 for a in axes))
        return (r <= cut).astype(float)

    return apply_multiplier(f, mask)


def _nonneg(f: SpectralField) -> SpectralField:
    return f.with_values(np.clip(f.values, 0.0, None))


def generate_test_fields(grid: Grid, seed: int, family: str, steady=None):
    """Seeded battery of band-limited, nonnegative, boundary-decayed fields.

    ``family`` is one of gaussians | bumps | mixtures | perturbed-steady;
    the last needs the steady-state density field.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown field family {family!r}")
    rng = np.random.default_rng(seed)
    fields = []
    if family == "gaussians":
        for var in (0.25, 1.0, 4.0):
            for center in (-2.0, 0.0, 2.0):
                fields.append(gaussian_field(grid, var, center))
    elif family == "bumps":
        for _ in range(6):
            parts = rng.integers(1, 4)
            f = None
            for _ in range(parts):
                var = float(rng.uniform(0.3, 2.5))
                center = float(rng.uniform(-3.0, 3.0))
                amp = float(rng.uniform(0.3, 1.0))
                g = gaussian_field(grid, var, center)
                f = g.with_values(amp * g.values) if f is None else f.with_values(
                    f.values + amp * g.values
                )
            fields.append(f)
    elif family == "mixtures":
        for _ in range(6):
            w = rng.dirichlet(np.ones(3))
            vals = sum(
                wi * gaussian_field(grid, float(rng.uniform(0.4, 3.0)),
                                    float(rng.uniform(-2.5, 2.5))).values
                for wi in w
            )
            fields.append(SpectralField(grid, values=vals))
    else:
        if steady is None:
            raise ValueError("perturbed-steady needs the steady density field")
        for _ in range(6):
            center = float(rng.uniform(-2.0, 2.0))
            width = float(rng.uniform(0.8, 2.0))
            r2 = sum((x - center) ** 2 for x in grid.coords())
            bump = np.exp(-r2 / (2.0 * width**2))
            vals = steady.values * (1.0 + 0.3 * bump)
            vals = vals / (np.sum(vals) * grid.dx**grid.d)
            fields.append(SpectralField(grid, values=vals))
    return [_nonneg(band_limit(f)) for f in fields]
