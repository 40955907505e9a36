import itertools

import numpy as np
import pytest

from levylab import Grid, SpectralField
from levylab.quadrature import integrate_scaled

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
    (_, end), radii = nu.radial_interval(rz, np.inf)
    points = None if radii is None else np.log(radii / rz)
    return scale * float(integrate_scaled(integrand, (0.0, np.log(end / rz)), tol,
                                          points))
