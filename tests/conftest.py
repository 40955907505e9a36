import itertools
import sys

import numpy as np
import pytest
from scipy import integrate

from levylab import Grid, SpectralField
from levylab.levy import _checked

# populated by tests/test_acceptance.py; printed once at the end of the run
ACCEPTANCE_RESULTS = []


def record_criterion(index, label, passed, detail=""):
    ACCEPTANCE_RESULTS.append((index, label, bool(passed), detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for index, label, passed, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        extra = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {index:2d} {label}: {verdict}{extra}")


@pytest.fixture(scope="session")
def grid1():
    """Default 1-D working grid."""
    return Grid(1, 20.0, 512)


@pytest.fixture(scope="session")
def coarse_grid():
    return Grid(1, 20.0, 256)


def gaussian(grid, var=1.0, center=0.0):
    norm = 1.0 / np.sqrt(2.0 * np.pi * var)
    return SpectralField.from_function(
        grid, lambda x: norm * np.exp(-((x - center) ** 2) / (2.0 * var))
    )


def radial_gaussian(grid, variance, center):
    """Values of the normalized isotropic Gaussian, exp(-r^2 / 2v) on the
    full meshgrid: ``fields.gaussian_field`` before it became separable."""
    c = np.broadcast_to(np.asarray(center, dtype=float), (grid.d,))
    r2 = sum((x - ci) ** 2 for x, ci in zip(grid.coords(), c))
    return np.exp(-r2 / (2.0 * variance)) / np.sqrt((2.0 * np.pi * variance) ** grid.d)


def count_transforms(monkeypatch):
    """Count the calls of ``spectral._forward`` and ``spectral._inverse``, in
    every module that holds them, and of ``Grid.forward`` and ``Grid.inverse``;
    returns the dict of counts, which the calls keep up to date."""
    from levylab import spectral

    targets = [(Grid, "forward"), (Grid, "inverse")]
    for name in ("_forward", "_inverse"):
        real = getattr(spectral, name)
        targets += [(module, name) for key, module in list(sys.modules.items())
                    if key.startswith("levylab") and getattr(module, name, None) is real]
    counts = dict.fromkeys(["_forward", "_inverse", "forward", "inverse"], 0)
    for owner, name in targets:
        def counting(*args, _real=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


def full_freqs(grid):
    """The full frequency mesh in FFT order, one array per dimension, from xi1."""
    return np.meshgrid(*(grid.xi1,) * grid.d, indexing="ij")


def log_tail_table(path):
    """Write e^{-z} z^{-1.5} at 400 even knots on [0.01, 30] as a density table.

    Its log tail is finite: the table is zero past its last knot.
    """
    z = np.linspace(0.01, 30.0, 400)
    np.savetxt(path, np.column_stack([z, np.exp(-z) * z**-1.5]), delimiter=",",
               fmt="%.17g")
    return path


def one_sided_table(path):
    """Write a 23-knot d=1 table as a density table: e^{-z} z^{-1.5} for z > 0
    and 0.3 e^{z} |z|^{-0.5} for z < 0, zero past z = 10 and z = -8."""
    zp, zn = np.linspace(0.05, 10.0, 12), -np.linspace(0.05, 8.0, 12)[::-1]
    n = np.concatenate([0.3 * np.exp(zn) * np.abs(zn) ** -0.5,
                        np.exp(-zp) * zp**-1.5])
    np.savetxt(path, np.column_stack([np.concatenate([zn, zp]), n]), delimiter=",",
               fmt="%.17g")
    return path


# Densities on the array contract: each maps a float, or an array of signed z
# (d=1) or of radii (d=2), to values of the same shape.

def box(z):
    """The unit-box density 1{|z| <= 1}: compound Poisson, unit rate."""
    return 1.0 * (np.abs(z) <= 1.0)


def right_exponential(z):
    """e^{-z} 1{z > 0}: jumps to the right only."""
    return np.exp(-np.abs(z)) * (z > 0)


def log_divergent(z):
    """1 / (|z| ln^2 |z|) past |z| = e and 0 below: finite mass, with a log
    tail that diverges like ln ln."""
    r = np.maximum(np.abs(z), np.e)
    return (np.abs(z) >= np.e) / (r * np.log(r) ** 2)


# Oracles: the per-point routes that the array evaluations replaced.

def loop_jump_kernel(nu, grid, z_extent=2):
    """The lattice fold of ``entropy._jump_kernel``, one N(z) call per point."""
    M, dx = grid.M, grid.dx
    K = z_extent * M // 2
    W = np.zeros(grid.shape)
    for k in itertools.product(range(-K, K + 1), repeat=grid.d):
        if any(k):
            z = k[0] * dx if grid.d == 1 else np.array(k) * dx
            W[tuple(i % M for i in k)] += float(nu(z))
    W.flat[0] = 0.0
    return W


def knot_interval(nu, a, b):
    """The interval of a radial integral over (a, b), and its breakpoints.

    A table is zero past its last knot radius R: the interval ends at
    min(b, R) (at least a), and the knot radii inside it are the breakpoints.
    Any other density keeps (a, b), with none.
    """
    if nu.knots is None:
        return (a, b), None
    r = np.asarray(nu.knots)
    b = max(a, min(b, r[-1]))
    return (a, b), r[(r > a) & (r < b)]


def qagp(g, interval, tol, points):
    """int g over the interval by QUADPACK to abs and rel tol, with the
    breakpoints (QAGP) where there are any: the route a table's integrals
    took before its fixed rule."""
    val, err, *_ = integrate.quad(g, *interval, epsabs=tol, epsrel=tol,
                                  limit=400 + (0 if points is None else len(points)),
                                  points=points, full_output=1)
    assert np.isfinite(val) and err <= 50.0 * max(tol, tol * abs(val)), (interval, err)
    return val


def log_t_limit_density(nu, z, tol=1e-10):
    """N_inf(z) = int_1^inf N(t z) t^{d-1} dt by QUADPACK in s = ln t,
    relative to N(z), with a table's end and knots mapped to s."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    d = nu.d
    point = z_arr if d > 1 else float(z_arr[0])
    scale = float(nu(point)) or 1.0

    def integrand(s):
        # e^{sd} overflows past s = 709 / d
        if s > 690.0 / d:
            return 0.0
        t = np.exp(s)
        return nu(t * point) / scale * t**d

    rz = float(np.hypot.reduce(z_arr))
    (_, end), radii = knot_interval(nu, rz, np.inf)
    points = None if radii is None else np.log(radii / rz)
    return scale * float(qagp(integrand, (0.0, np.log(end / rz)), tol, points))


def two_call_radial_density(nu, r):
    """``LevyDensity.radial_density`` with both rays evaluated in d=1,
    n+(r) + n-(r), even for an even density."""
    if nu.d == 1:
        return _checked(nu.profile, r) + _checked(nu.profile, -r)
    return 2.0 * np.pi * r * _checked(nu.profile, r)


def array_taylor_remainder(mean, d, c4, c6, c8):
    """``levy._taylor_remainder`` on arrays: both branches everywhere, the
    series chosen below |x| = 1e-2 by ``np.where``; a float for a float."""

    def remainder(x):
        x = np.asarray(x, dtype=float)
        x2 = x * x
        series = x2 * x2 / c4 * (1.0 - x2 / c6 * (1.0 - x2 / c8))
        with np.errstate(invalid="ignore"):
            direct = mean(x) - 1.0 + x2 / (2 * d)
        out = np.where(np.abs(x) < 1e-2, series, direct)
        return out if out.ndim else float(out)

    return remainder
