import numpy as np
import pytest

from levylab import Grid, SpectralField

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
