import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from levylab import Grid, SpectralField, apply_multiplier
from levylab import entropy, levy
from levylab.levy import _checked
from levylab.spectral import _parseval

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


def fractional_laplacian(f, alpha):
    """g_alpha[f], the multiplier |xi|^alpha of ``Grid.symbol`` (so that
    -g_alpha generates the heat semigroup)."""
    return apply_multiplier(f, f.grid.symbol(alpha))


def half_operator_norm(f, alpha):
    """int (g_{alpha/2}[f])^2 dx = sum |xi|^alpha |f^(xi)|^2 dxi^d / (2 pi)^d,
    by ``spectral``'s Parseval sum over the half spectrum, as ``lsi_gap``
    takes the Dirichlet energy of each exponent (bitwise)."""
    g = f.grid
    return _parseval(g, g.symbol(alpha) * np.abs(f.half_spectrum) ** 2)


def characteristic_exponent(triplet, xi):
    """psi(xi) = -xi.sigma xi + i b.xi + a(xi) at one frequency xi, from the
    Gaussian and drift form the flow's exponent uses and ``jump_symbol``."""
    axes = np.atleast_1d(np.asarray(xi, dtype=float))
    gauss, drift = levy._gauss_drift_exponent(triplet, axes)
    return gauss + drift + levy.jump_symbol(triplet.nu, levy._radial_argument(axes))


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


def count_integrals(monkeypatch):
    """Record the interval (a, b) of every integral of the adaptive rule that
    ``levy`` asks ``quadrature`` for, one per piece of an ``integrate_pieces``
    call; returns the list, which the calls keep up to date."""
    calls = []

    def one(real):
        return lambda g, interval, tol=1e-10: calls.append(tuple(interval)) or real(
            g, interval, tol)

    pieces = levy.integrate_pieces
    monkeypatch.setattr(levy, "integrate_scaled", one(levy.integrate_scaled))
    monkeypatch.setattr(levy, "try_integrate", one(levy.try_integrate))
    monkeypatch.setattr(levy, "integrate_pieces", lambda g, a, b, scale, tol=1e-10: (
        calls.extend(zip(a.tolist(), b.tolist())) or pieces(g, a, b, scale, tol)))
    return calls


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


def traced_peak(call):
    """The peak of traced memory, in bytes, while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def roll_fd_gradient(vals, grid):
    """``entropy._fd_gradient`` by 16 ``np.roll`` copies per axis: the form
    before its shifts became slices of one wrapped copy."""
    out = []
    for axis in range(grid.d):
        der = np.zeros_like(vals)
        for k, c in enumerate(entropy._FD8, start=1):
            der += c * (np.roll(vals, -k, axis=axis) - np.roll(vals, k, axis=axis))
        der /= grid.dx
        edge = np.gradient(vals, grid.dx, axis=axis)
        sl_lo = [slice(None)] * vals.ndim
        sl_lo[axis] = slice(0, 4)
        sl_hi = [slice(None)] * vals.ndim
        sl_hi[axis] = slice(-4, None)
        der[tuple(sl_lo)] = edge[tuple(sl_lo)]
        der[tuple(sl_hi)] = edge[tuple(sl_hi)]
        out.append(der)
    return out


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


def qagp(g, interval, tol, points=None, weight=None, wvar=None):
    """int g over the interval by QUADPACK to abs and rel tol, with the
    breakpoints (QAGP) where there are any: the route a table's integrals
    took before its fixed rule; or with scipy's oscillatory weight (QAWF on
    [a, inf)), the route of an analytic law's tails before its fixed rule."""
    val, err, *_ = integrate.quad(g, *interval, epsabs=tol, epsrel=tol,
                                  limit=400 + (0 if points is None else len(points)),
                                  points=points, weight=weight, wvar=wvar,
                                  full_output=1)
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


def scalar_taylor_remainder(mean, d, c4, c6, c8):
    """The Taylor remainder x -> m(x) - 1 + x^2 / (2d) one float at a time,
    by the series below |x| = 1e-2: the kernel of a's head when QUADPACK
    evaluated it node by node."""

    def remainder(x):
        x2 = x * x
        if abs(x) < 1e-2:
            return x2 * x2 / c4 * (1.0 - x2 / c6 * (1.0 - x2 / c8))
        return mean(x) - 1.0 + x2 / (2 * d)

    return remainder


def segmented_tail(f, cuts, tol):
    """int_1^inf f by QUADPACK between the cuts past 1, the segment series
    resummed by 12 rounds of repeated averaging of its partial sums."""
    edges = np.concatenate(([1.0], cuts[cuts > 1.0]))
    terms = [qagp(f, (a, b), tol) for a, b in zip(edges[:-1], edges[1:])]
    row = np.cumsum(terms[1:])
    for _ in range(min(12, len(row) - 1)):
        row = 0.5 * (row[:-1] + row[1:])
    return terms[0] + float(row[-1])


_ORACLE_MEAN = {1: (np.cos, scalar_taylor_remainder(np.cos, 1, 24.0, 30.0, 56.0)),
                2: (special.j0, scalar_taylor_remainder(special.j0, 2, 64.0, 36.0, 64.0))}


def quadpack_symbol(nu, ks, tol=1e-10):
    """a at each nonzero k of ks by QUADPACK, k by k: the route of the analytic
    record before its fixed rule.  A head on (1e-8, 1) with the Taylor term
    restored through the unit-ball moment, and a tail by QAWF in d=1 and by
    segments between the zeros of J0(k r) in d=2; a non-even density adds its
    odd part, with a QAWF sine tail."""
    rho, n_diff = nu.radial_density, nu.odd_difference
    m2 = nu.small_ball_second_moment(1.0)
    big = qagp(rho, (1.0, np.inf), tol)
    mean, remainder = _ORACLE_MEAN[nu.d]
    out = []
    for s in ks:
        q = abs(s)
        if nu.d == 1:
            tail = qagp(rho, (1.0, np.inf), tol, weight="cos", wvar=q)
        else:
            tail = segmented_tail(lambda r: special.j0(q * r) * rho(r),
                                  special.jn_zeros(0, 100 + int(q / np.pi)) / q, tol)
        a = qagp(lambda r: remainder(r * q) * rho(r), (1e-8, 1.0), tol)
        a += -0.5 / nu.d * q * q * m2 + tail - big
        if not nu.is_even:
            def szh(z):
                return s * z / (1.0 + z * z)

            head = qagp(lambda z: (np.sin(z * s) - szh(z)) * n_diff(z), (1e-8, 1.0), tol)
            a += 1j * (head
                       + np.sign(s) * qagp(n_diff, (1.0, np.inf), tol, weight="sin", wvar=q)
                       - qagp(lambda z: szh(z) * n_diff(z), (1.0, np.inf), tol))
        out.append(a)
    return np.array(out)


def quadpack_anchor(nu, r, tol=1e-10):
    """G(r) = -int_0^inf rho(s) K_d(r s) ds by QUADPACK: the route of the
    analytic record before its fixed rule.  The head on (0, 1) against K_d
    itself; past s = 1 the log terms through B and the log tail, and R_d by
    two QAWF calls in d=1 and by segments between the zeros of J1(r s) in
    d=2; a non-even density adds its Si part."""
    d, rho, n_diff = nu.d, nu.radial_density, nu.odd_difference
    big = qagp(rho, (1.0, np.inf), tol)

    def qawf(w, fg, trig):
        return qagp(lambda z: w(z) * levy._aux_fg(r * z)[fg], (1.0, np.inf), tol,
                    weight=trig, wvar=r)

    if d == 1:
        osc = qawf(rho, 1, "cos") - qawf(rho, 0, "sin")
    else:
        osc = segmented_tail(
            lambda s: (levy._kernel(2, r * s) - np.euler_gamma - np.log(0.5 * r * s))
            * rho(s), special.jn_zeros(1, 100 + int(r / np.pi)) / r, tol)
    G = -qagp(lambda s: levy._kernel(d, r * s) * rho(s), (0.0, 1.0), tol)
    G -= (np.euler_gamma + np.log(r / d)) * big + levy._law(nu, tol).log_tail.value + osc
    if nu.is_even:
        return G
    im = (qagp(lambda z: (special.sici(r * z)[0] - r * z / (1.0 + z * z)) * n_diff(z),
               (0.0, 1.0), tol)
          + qagp(lambda z: (0.5 * np.pi - r * z / (1.0 + z * z)) * n_diff(z),
                 (1.0, np.inf), tol))
    return G + 1j * (im - qawf(n_diff, 0, "cos") - qawf(n_diff, 1, "sin"))
