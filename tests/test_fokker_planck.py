"""Confined Levy flow, invariant measures, and structural conditions."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import special
from scipy.special import exp1

from levylab import (
    LevyDensity,
    LevyTriplet,
    SpectralField,
    build_steady_state,
    check_domination,
    gaussian_field,
    check_log_tail,
    check_radial_decay,
    drift_correction,
    fp_evolve,
    jump_symbol,
    limit_density,
    limit_levy_density,
    stable_density,
    steady_exponent,
    triplet_from_config,
)
from levylab import fokker_planck, levy
from levylab.errors import (
    Con1Violation,
    InterpolationDegradation,
    QuadratureFailure,
)
from levylab.levy import _stable_norm_constant
from levylab.quadrature import integrate_scaled
from levylab.spectral import Grid, _contracted

from conftest import (
    box,
    gaussian,
    knot_interval,
    log_divergent,
    log_t_limit_density,
    log_tail_table,
    one_sided_table,
    qagp,
    right_exponential,
    traced_peak,
)


def stable_triplet(alpha, d=1):
    return LevyTriplet(
        sigma=np.zeros((d, d)), b=np.zeros(d), nu=stable_density(alpha, d), d=d
    )


def diffusion_triplet(d=1):
    return LevyTriplet(sigma=np.eye(d), b=np.zeros(d), nu=None, d=d)


@pytest.fixture(scope="module")
def cauchy_steady(grid1):
    return build_steady_state(stable_triplet(1.0), grid1)


@pytest.fixture(scope="module")
def gauss_steady(grid1):
    return build_steady_state(diffusion_triplet(), grid1)


class TestFpEvolve:
    def test_ou_variance_oracle(self, grid1):
        # v(t) = 1 + (v0 - 1) e^{-2t}: variance 4 reaches 1.75 at t = ln 2
        out = fp_evolve(gaussian(grid1, var=4.0), diffusion_triplet(), np.log(2.0))
        exact = gaussian(grid1, var=1.75)
        assert np.max(np.abs(out.values - exact.values)) < 1e-8

    def test_zero_time_identity(self, grid1):
        f = gaussian(grid1)
        out = fp_evolve(f, stable_triplet(1.5), 0.0)
        np.testing.assert_array_equal(out.values, f.values)

    def test_long_time_convergence_to_steady(self):
        # the flow contracts toward the invariant law at rate e^{-t}
        g = Grid(1, 80.0, 2048)
        tr = stable_triplet(1.0)
        steady = build_steady_state(tr, g)
        u = fp_evolve(gaussian(g, var=1.0, center=1.0), tr, 16.0)
        dist = np.sum(np.abs(u.values - steady.density.values)) * g.dx
        assert dist < 1e-6

    def test_mass_conservation(self, grid1):
        f = gaussian(grid1, var=0.5, center=-1.0)
        out = fp_evolve(f, stable_triplet(0.8), 1.3)
        assert out.mass() == pytest.approx(f.mass(), rel=1e-12)

    def test_flow_property_diffusion(self, grid1):
        u0 = gaussian(grid1, var=4.0)
        tr = diffusion_triplet()
        two = fp_evolve(fp_evolve(u0, tr, 0.3), tr, 0.7)
        one = fp_evolve(u0, tr, 1.0)
        assert np.max(np.abs(two.values - one.values)) < 1e-8

    def test_flow_property_stable(self, grid1):
        # heavy-tailed steady laws limit off-grid interpolation accuracy;
        # the composition error shrinks like 1/L under box refinement
        u0 = gaussian(grid1, var=1.0)
        tr = stable_triplet(1.0)
        two = fp_evolve(fp_evolve(u0, tr, 0.3), tr, 0.7)
        one = fp_evolve(u0, tr, 1.0)
        assert np.max(np.abs(two.values - one.values)) < 1e-3

    def test_nyquist_warning(self, grid1):
        rng = np.random.default_rng(3)
        noisy = SpectralField(grid1, values=rng.standard_normal(grid1.shape))
        with pytest.warns(InterpolationDegradation):
            fp_evolve(noisy, diffusion_triplet(), 0.5)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_nyquist_warning_2d(self, axis):
        # a smooth bump times (-1)^j along one axis: all of its coefficient
        # mass sits at that axis' Nyquist edge
        g = Grid(2, 10.0, 64)
        smooth = gaussian_field(g, 1.0)
        sign = (-1.0) ** np.arange(g.M)
        alternating = smooth.values * (1.0 + 0.5 * np.expand_dims(sign, 1 - axis))
        with pytest.warns(InterpolationDegradation):
            fp_evolve(SpectralField(g, values=alternating), diffusion_triplet(2), 0.5)

    def test_nyquist_warning_for_a_slab_outside_the_half_spectrum(self):
        # a plane wave at k = (M/2 + 1, 3) = (-(M/2 - 1), 3): its mirror in
        # slab M/2 - 1 sits at (M/2 - 1, -3), outside the rfftn half
        # spectrum, so only the half spectrum's row M/2 + 1 shows it
        g = Grid(2, 10.0, 64)
        x, y = g.coords()
        wave = np.cos(g.dxi * ((g.M // 2 + 1 - g.M) * x + 3 * y))
        with pytest.warns(InterpolationDegradation):
            fp_evolve(SpectralField(g, values=wave), diffusion_triplet(2), 0.5)

    @pytest.mark.filterwarnings("error::levylab.errors.InterpolationDegradation")
    def test_no_nyquist_warning_for_smooth_2d_field(self):
        fp_evolve(gaussian_field(Grid(2, 10.0, 64), 1.0), diffusion_triplet(2), 0.5)


def dense_nudft(u0, scale):
    """The dense O(M^2) / O(M^3) contracted-frequency kernel on the mesh of
    ``Grid.freqs()``, alias row included, as an oracle."""
    g = u0.grid
    *first, last = g.freqs()

    def kernel(xi):
        return np.exp(1j * np.outer(scale * xi, g.x1)) * g.dx

    if g.d == 1:
        return kernel(last) @ u0.values
    return kernel(first[0][:, 0]) @ u0.values @ kernel(last[0]).T


def integrate_parts(g, interval, tol=1e-10):
    """int g over interval for a complex g, its real and imaginary parts
    apart: ``integrate_scaled`` takes real integrands only."""
    return (integrate_scaled(lambda s: np.real(g(s)), interval, tol)
            + 1j * integrate_scaled(lambda s: np.imag(g(s)), interval, tol))


def non_even_field(g):
    """A smooth, localized field with no symmetry about any axis."""
    X = g.coords()
    bump = np.exp(-sum((x - c) ** 2 for x, c in zip(X, (0.7, -1.1))) / 3.0)
    return SpectralField(g, values=bump * (1.0 + 0.3 * X[0] - 0.2 * X[-1] ** 2))


class TestContractedTransform:
    # the coarse grids leave u0 unresolved at their Nyquist edge
    @pytest.mark.filterwarnings("ignore::levylab.errors.InterpolationDegradation")
    @pytest.mark.parametrize("t", [0.01, 0.5, 2.0])
    @pytest.mark.parametrize("d, M", [(1, 16), (1, 512), (1, 1024), (2, 16), (2, 64)])
    def test_matches_dense_kernel(self, d, M, t):
        u0 = non_even_field(Grid(d, 20.0, M))
        want = dense_nudft(u0, np.exp(-t))
        got = _contracted(u0, np.exp(-t))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("t", [0.25, 1.0])
    def test_ou_closed_form_2d(self, t):
        # anisotropic sigma with a nonzero off-diagonal, a drift and an
        # off-centre u0: the flow stays Gaussian, with mean
        # e^{-t} m0 + b (1 - e^{-t}) and covariance e^{-2t} V0 + sigma (1 - e^{-2t})
        g = Grid(2, 10.0, 64)
        sigma = np.array([[1.0, 0.3], [0.3, 0.6]])
        b = np.array([0.4, -0.2])
        m0 = np.array([1.0, -0.5])
        V0 = np.array([[0.8, 0.2], [0.2, 1.0]])

        def normal(mean, cov):
            x = np.stack(g.coords(), axis=-1) - mean
            q = np.einsum("...i,ij,...j->...", x, np.linalg.inv(cov), x)
            return np.exp(-0.5 * q) / (2.0 * np.pi * np.sqrt(np.linalg.det(cov)))

        tr = LevyTriplet(sigma=sigma, b=b, nu=None, d=2)
        out = fp_evolve(SpectralField(g, values=normal(m0, V0)), tr, t)
        s = np.exp(-t)
        exact = normal(s * m0 + b * (1.0 - s), s * s * V0 + sigma * (1.0 - s * s))
        assert np.max(np.abs(out.values - exact)) < 1e-12


def radial_triplet(func, d):
    nu = LevyDensity(kind="analytic", d=d, func=func, is_even=True)
    return LevyTriplet(sigma=np.zeros((d, d)), b=np.zeros(d), nu=nu, d=d)


def opaque_cauchy_triplet(d=1):
    # the Cauchy density behind an analytic wrapper takes the quadrature route
    return radial_triplet(stable_density(1.0, d).profile, d)


@pytest.mark.filterwarnings("ignore::levylab.errors.InterpolationDegradation")
class TestQuadratureRoute:
    """Tabulated G(r) against the stable closed form and per-frequency oracles."""

    def test_steady_state_1d(self):
        g = Grid(1, 8.0, 16)
        quad = build_steady_state(opaque_cauchy_triplet(), g)
        exact = build_steady_state(stable_triplet(1.0), g)
        np.testing.assert_allclose(
            quad.density.values, exact.density.values, rtol=0, atol=1e-9
        )

    def test_flow_1d(self):
        g = Grid(1, 8.0, 16)
        u0 = gaussian(g, var=1.0, center=0.5)
        quad = fp_evolve(u0, opaque_cauchy_triplet(), 0.5)
        exact = fp_evolve(u0, stable_triplet(1.0), 0.5)
        np.testing.assert_allclose(
            quad.coefficients, exact.coefficients, rtol=0, atol=1e-9
        )

    def test_flow_2d(self):
        g = Grid(2, 8.0, 16)
        u0 = SpectralField.from_function(
            g, lambda x, y: np.exp(-(x * x + y * y) / 2.0) / (2.0 * np.pi)
        )
        quad = fp_evolve(u0, opaque_cauchy_triplet(2), 0.5)
        exact = fp_evolve(u0, stable_triplet(1.0, 2), 0.5)
        np.testing.assert_allclose(
            quad.coefficients, exact.coefficients, rtol=0, atol=1e-9
        )

    def test_non_even_flow_exponent_matches_time_integral(self):
        # one-sided density: the exponent at -xi is the conjugate of +xi
        nu = LevyDensity(
            kind="analytic", d=1,
            func=right_exponential, is_even=False,
        )
        tr = LevyTriplet(sigma=np.zeros((1, 1)), b=np.zeros(1), nu=nu, d=1)
        g = Grid(1, 8.0, 16)
        t = 0.5
        u0 = gaussian(g, var=0.3)
        out = fp_evolve(u0, tr, t)
        half = _contracted(u0, np.exp(-t))
        # u0 is real: its contracted transform at -xi_5 is the conjugate of xi_5's
        for k, shifted in ((5, half[5]), (-5, np.conj(half[5]))):
            exponent = np.log(out.coefficients[k] / shifted)
            oracle = integrate_parts(
                lambda s: jump_symbol(nu, np.exp(-s) * g.xi1[k]), (0.0, t)
            )
            assert abs(exponent - oracle) < 1e-8

    def test_unconverged_table_raises(self, monkeypatch):
        # the unit-box density needs 129 nodes on this grid
        nu = LevyDensity(
            kind="analytic", d=1,
            func=box, is_even=True,
        )
        tr = LevyTriplet(sigma=np.zeros((1, 1)), b=np.zeros(1), nu=nu, d=1)
        monkeypatch.setattr(levy, "_CHEB_MAX_NODES", 33)
        with pytest.raises(QuadratureFailure):
            fp_evolve(gaussian(Grid(1, 20.0, 512)), tr, 0.5)


class TestStationarity:
    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
    def test_gaussian_steady_is_fixed(self, t, gauss_steady):
        out = fp_evolve(gauss_steady.density, diffusion_triplet(), t)
        drift = np.sum(np.abs(out.values - gauss_steady.density.values))
        assert drift * gauss_steady.density.grid.dx < 1e-12

    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
    def test_cauchy_steady_is_fixed_coarsely(self, t, cauchy_steady):
        # the kink of e^{-|xi|} at 0 caps the interpolation accuracy here
        out = fp_evolve(cauchy_steady.density, stable_triplet(1.0), t)
        drift = np.sum(np.abs(out.values - cauchy_steady.density.values))
        assert drift * cauchy_steady.density.grid.dx < 0.05


class TestBuildSteadyState:
    def test_gaussian_oracle(self, gauss_steady, grid1):
        exact = np.exp(-grid1.x1**2 / 2.0) / np.sqrt(2.0 * np.pi)
        assert np.max(np.abs(gauss_steady.density.values - exact)) < 1e-12
        assert steady_exponent(diffusion_triplet(), 1.0) == pytest.approx(-0.5)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_stable_exponent_closed_form(self, alpha):
        tr = stable_triplet(alpha)
        for xi in (0.1, 1.0, 4.0, 10.0):
            assert steady_exponent(tr, xi) == pytest.approx(
                -abs(xi) ** alpha / alpha, abs=1e-12
            )

    def test_one_log_tail_and_no_unused_moment(self, monkeypatch):
        # 41 QUADPACK calls per build integrate the log tail twice, and 6 per
        # one-frequency exponent integrate the unit-ball moment with no table
        calls = []
        quad = integrate.quad
        monkeypatch.setattr(integrate, "quad",
                            lambda *a, **k: calls.append(1) or quad(*a, **k))
        tr = opaque_cauchy_triplet()
        levy._law.cache_clear()
        build_steady_state(tr, Grid(1, 8.0, 16))
        # the QUADPACK value of int_1^inf ln(r) 2 / (pi r^2) dr = 2 / pi, to the
        # bit (1 ulp below the correctly rounded 2 / pi, with c(1, 1) the
        # correctly rounded 1 / pi), read from the law's record with no further call
        assert check_log_tail(tr.nu).value == float.fromhex("0x1.45f306dc9c882p-1")
        assert len(calls) <= 40
        calls.clear()
        levy._law.cache_clear()
        steady_exponent(tr, 0.7)
        assert len(calls) <= 5

    @pytest.mark.filterwarnings("ignore::levylab.errors.InterpolationDegradation")
    def test_one_integral_per_law(self, monkeypatch):
        # a steady build and two flows share the law's record: B and the log
        # tail are its only unweighted QUADPACK integrals over (1, inf), and
        # the unit-ball moment and the anchor's head its only ones over (0, 1)
        calls = []
        quad = integrate.quad
        monkeypatch.setattr(integrate, "quad", lambda f, a, b, **k: calls.append(
            (a, b, k.get("weight"))) or quad(f, a, b, **k))
        tr = opaque_cauchy_triplet()
        levy._law.cache_clear()
        steady = build_steady_state(tr, Grid(1, 8.0, 16))
        for t in (0.5, 1.0):
            fp_evolve(steady.density, tr, t)
        assert calls.count((1.0, np.inf, None)) == 2
        assert calls.count((0.0, 1.0, None)) == 2

    def test_cauchy_density_coarse(self, cauchy_steady, grid1):
        cauchy = 1.0 / (np.pi * (1.0 + grid1.x1**2))
        assert np.max(np.abs(cauchy_steady.density.values - cauchy)) < 5e-3

    def test_unit_mass_and_small_defect(self, cauchy_steady, grid1):
        assert cauchy_steady.density.mass() == pytest.approx(1.0, abs=1e-10)
        assert abs(cauchy_steady.mass_defect) < 1e-6

    def test_quadrature_exponent_matches_stable_route(self, grid1):
        # the analytic wrapper forces the quadrature route
        nu = LevyDensity(
            kind="analytic", d=1, func=stable_density(1.0, 1), is_even=True
        )
        tr = LevyTriplet(sigma=np.zeros((1, 1)), b=np.zeros(1), nu=nu, d=1)
        for xi in (0.1, 1.0, 10.0):
            assert steady_exponent(tr, xi) == pytest.approx(-abs(xi), abs=1e-9)

    def test_quadrature_exponent_matches_stable_route_2d(self):
        # the d=2 radial route (J0 tail) at one frequency with |xi| = 1
        got = steady_exponent(opaque_cauchy_triplet(2), np.array([0.6, -0.8]))
        assert abs(got - (-1.0)) <= 1e-12

    def test_anisotropic_gaussian_and_drift_2d(self):
        # Psi = -xi.sigma xi / 2 + i b.xi without jumps
        sigma = np.array([[0.7, 0.3], [0.3, 0.4]])
        b = np.array([0.2, -0.5])
        tr = LevyTriplet(sigma=sigma, b=b, nu=None, d=2)
        x0, x1 = 1.3, -0.4
        want = -0.5 * (sigma[0, 0] * x0**2 + 2.0 * sigma[0, 1] * x0 * x1
                       + sigma[1, 1] * x1**2) + 1j * (b[0] * x0 + b[1] * x1)
        got = steady_exponent(tr, np.array([x0, x1]))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_divergent_log_tail_rejected(self, coarse_grid):
        nu = LevyDensity(
            kind="analytic", d=1,
            func=log_divergent, is_even=True,
        )
        tr = LevyTriplet(sigma=np.zeros((1, 1)), b=np.zeros(1), nu=nu, d=1)
        with pytest.raises(Con1Violation):
            build_steady_state(tr, coarse_grid)

    def test_steady_law_triplet_consistency(self, grid1):
        # exp(Psi) must match the Levy-Khinchine form with density N/alpha
        tr = stable_triplet(1.0)
        n_inf = LevyDensity(
            kind="analytic", d=1,
            func=lambda z, n=tr.nu: n(z) / 1.0, is_even=True,
        )
        for xi in (0.5, 2.0, 7.0):
            lhs = np.exp(steady_exponent(tr, xi))
            rhs = np.exp(jump_symbol(n_inf, xi))
            assert lhs == pytest.approx(rhs, abs=1e-7)


def nested_steady_exponent(nu, xi, tol=1e-10):
    """Psi(xi) = int_0^1 a(s xi) ds / s by quadrature over jump_symbol: the
    nested route the kernel identity replaced, kept as an oracle."""
    return integrate_parts(lambda s: jump_symbol(nu, s * xi, tol) / s, (0.0, 1.0), tol)


def one_sided_triplet(tmp_path):
    """The jumps of ``one_sided_table``, a 23-knot d=1 table."""
    path = one_sided_table(tmp_path / "one_sided.csv")
    return triplet_from_config(
        {"d": 1, "nu": {"kind": "tabulated", "table_path": str(path)}})


class TestSteadyAnchor:
    """G(r) at one radius, by one integral against a closed-form kernel."""

    @pytest.mark.parametrize("r", [np.pi / 160, np.pi / 8, 3.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("d", [1, 2])
    def test_stable_density_given_as_analytic(self, d, alpha, r):
        tr = radial_triplet(stable_density(alpha, d).profile, d)
        xi = r if d == 1 else r * np.array([0.6, -0.8])
        want = -(r**alpha) / alpha
        assert abs(steady_exponent(tr, xi) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("xi", [0.5, -0.5, 3.0, -3.0])
    def test_non_even_density_matches_nested_quadrature(self, xi):
        nu = LevyDensity(
            kind="analytic", d=1,
            func=right_exponential, is_even=False,
        )
        tr = LevyTriplet(sigma=np.zeros((1, 1)), b=np.zeros(1), nu=nu, d=1)
        got = steady_exponent(tr, xi)
        assert abs(got - nested_steady_exponent(nu, xi)) <= 1e-9
        assert abs(got.imag) > 0.1

    @pytest.mark.parametrize("d", [1, 2])
    def test_table_matches_nested_quadrature(self, d, tmp_path):
        # a table's anchor is its fixed rule on (0, r) over its own symbol
        z = np.linspace(0.05, 10.0, 40)
        path = tmp_path / "nu.csv"
        np.savetxt(path, np.column_stack([z, np.exp(-z) * z**-1.5]), delimiter=",")
        tr = triplet_from_config(
            {"d": d, "nu": {"kind": "tabulated", "table_path": str(path)}})
        xi = 0.5 if d == 1 else np.array([0.3, -0.4])
        got = steady_exponent(tr, xi)
        assert abs(got - nested_steady_exponent(tr.nu, xi)) <= 1e-12

    @pytest.mark.parametrize("xi", [0.5, -0.5, 3.0, -3.0])
    def test_one_sided_table_matches_nested_quadrature(self, xi, tmp_path):
        # on the mesh {xi / 6, xi} both the Chebyshev table of a and the
        # anchor at xi / 6 enter
        tr = one_sided_triplet(tmp_path)
        assert not tr.nu.is_even and len(tr.nu.knots) <= 60
        got = steady_exponent(tr, [np.array([xi / 6.0, xi])])[1]
        assert abs(got - nested_steady_exponent(tr.nu, xi)) <= 1e-9

    @pytest.mark.parametrize("r", [0.3, 1.0, 4.0])
    def test_non_stable_2d_derivative_is_the_symbol(self, r):
        # r G'(r) = a(r): a five-point stencil in log r, whose O(h^4)
        # truncation and the anchor's 1e-10 error divided by h stay below
        # 1e-7 at h = 0.02
        tr = radial_triplet(lambda rad: np.exp(-rad) * rad**-2.5, 2)
        h = 0.02
        G = [steady_exponent(tr, np.array([r * np.exp(j * h), 0.0]))
             for j in (-2, -1, 1, 2)]
        deriv = (G[0] - 8.0 * G[1] + 8.0 * G[2] - G[3]) / (12.0 * h)
        a = jump_symbol(tr.nu, np.array([r, 0.0]))
        assert abs(deriv - a) <= 1e-7 * max(1.0, abs(a))

    def test_one_frequency_makes_no_jump_symbol_call(self, monkeypatch):
        # with no table to build, only the anchor runs, and it never calls a
        calls = []
        for owner, name in ((levy, "jump_symbol"), (levy._QuadLaw, "symbol"),
                            (fokker_planck, "jump_symbol")):
            original = getattr(owner, name, None)
            if original is not None:
                monkeypatch.setattr(owner, name, lambda *a, _f=original, **k:
                                    calls.append(a) or _f(*a, **k))
        for d in (1, 2):
            tr = radial_triplet(stable_density(1.5, d).profile, d)
            steady_exponent(tr, 0.7 if d == 1 else np.array([0.6, -0.8]))
        assert calls == []

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_steady_state_on_a_wide_box(self, alpha):
        # criterion 9's box, where the nested anchor failed to converge
        g = Grid(1, 160.0, 1024)
        quad = build_steady_state(radial_triplet(stable_density(alpha, 1), 1), g)
        exact = build_steady_state(stable_triplet(alpha), g)
        np.testing.assert_allclose(
            quad.density.values, exact.density.values, rtol=0, atol=1e-9
        )


class TestLimitLevyDensity:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("z", [0.03, 1.0, 30.0])
    def test_stable_scaling(self, alpha, z):
        nu = stable_density(alpha, 1)
        assert limit_levy_density(nu, z) == pytest.approx(
            nu(z) / alpha, rel=1e-6
        )

    def test_compact_support_vanishes(self):
        nu = LevyDensity(
            kind="analytic", d=1,
            func=box, is_even=True,
        )
        assert limit_levy_density(nu, 2.0) == 0.0

    @pytest.mark.parametrize("r", [1e-2, 1.0, 1e3])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("d", [1, 2])
    def test_stable_closed_form(self, d, alpha, r):
        # N_inf = N / alpha, by the closed form and by the quadrature route
        # for the same density given as analytic
        nu = stable_density(alpha, d)
        opaque = LevyDensity(kind="analytic", d=d, func=nu.profile, is_even=True)
        z = r if d == 1 else r * np.array([0.6, 0.8])
        want = float(nu(z)) / alpha
        for density in (nu, opaque):
            got = limit_levy_density(density, z)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_exponential_density(self):
        nu = LevyDensity(
            kind="analytic", d=1,
            func=lambda z: np.exp(-abs(z)) / abs(z), is_even=True,
        )
        # int_1^inf e^{-2t}/(2t) dt = E1(2)/2
        assert limit_levy_density(nu, 2.0) == pytest.approx(
            exp1(2.0) / 2.0, abs=1e-8
        )

    @pytest.mark.parametrize("name, d", [
        ("cauchy", 1), ("exp-power", 1), ("exp-power", 2), ("one-sided", 1),
        ("table", 1), ("table", 2),
    ])
    def test_matches_the_log_t_oracle(self, name, d, tmp_path):
        # the tail integral of the profile, one point at a time and as one
        # cumulative array, against QUADPACK in s = ln t relative to N(z)
        if name == "table":
            nu = triplet_from_config({"d": d, "nu": {
                "kind": "tabulated",
                "table_path": str(log_tail_table(tmp_path / "nu.csv"))}}).nu
        else:
            func = {"cauchy": stable_density(1.0, 1),
                    "exp-power": lambda r: np.exp(-np.abs(r)) * np.abs(r) ** -1.5,
                    "one-sided": right_exponential}[name]
            nu = LevyDensity(kind="analytic", d=d, func=func,
                             is_even=name != "one-sided")
        r = np.concatenate([np.logspace(-6.0, 3.0, 10), [0.01, 0.5, 29.9, 30.0]])
        x = np.concatenate([r, -r]) if name == "one-sided" else r
        points = x if d == 1 else [v * np.array([0.6, 0.8]) for v in x]
        want = np.array([log_t_limit_density(nu, z) for z in points])
        single = np.array([limit_levy_density(nu, z) for z in points])
        np.testing.assert_allclose(single, want, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(levy._law(nu, 1e-10).tail_average(x), want,
                                   rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_limit_density_is_n_over_alpha_for_the_stable_law(self, d):
        nu = stable_density(1.5, d)
        r = np.array([0.1, 1.0, 7.0])
        mu_nu = limit_density(nu, 1e-10)
        np.testing.assert_array_equal(mu_nu.profile(r), nu.profile(r) / 1.5)
        assert mu_nu.d == d and mu_nu.is_even


def _drift_nested(nu, tol=1e-8):
    """drift_correction with its tau-integral done by quadrature too."""

    def tau_factor(z):
        z2 = z * z
        return integrate_scaled(
            lambda tau: (1.0 - tau**2) * z2 / ((1.0 + tau**2 * z2) * (1.0 + z2)),
            (0.0, 1.0), tol * 1e-2,
        )

    interval, points = knot_interval(nu, 0.0, np.inf)
    return qagp(lambda z: z * tau_factor(z) * (nu(z) - nu(-z)), interval, tol, points)


class TestDriftCorrection:
    @pytest.mark.parametrize(
        "z", [*np.logspace(-4.0, 4.0, 33), 0.0100001, 0.02, 0.0999999, 0.1000001]
    )
    def test_tau_factor_matches_quadrature(self, z):
        z2 = z * z
        want, _ = integrate.quad(
            lambda tau: (1.0 - tau**2) * z2 / ((1.0 + tau**2 * z2) * (1.0 + z2)),
            0.0, 1.0, epsabs=0.0, epsrel=2e-14, limit=200,
        )
        got = levy._tau_factor(float(z))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_matches_nested_quadrature(self):
        nu = LevyDensity(
            kind="analytic", d=1,
            func=right_exponential, is_even=False,
        )
        assert drift_correction(nu)[0] == pytest.approx(_drift_nested(nu), rel=1e-9)

    def test_one_sided_table_matches_nested_quadrature(self, tmp_path):
        nu = one_sided_triplet(tmp_path).nu
        assert drift_correction(nu)[0] == pytest.approx(_drift_nested(nu), rel=1e-9)

    def test_a_failed_integral_raises(self):
        # int z tau(z) dN diverges like (pi / 2) ln z for dN = 1 / z
        nu = LevyDensity(kind="analytic", d=1, func=lambda z: (z > 0) / np.abs(z),
                         is_even=False)
        with pytest.raises(QuadratureFailure):
            drift_correction(nu)

    def test_even_density(self):
        assert drift_correction(stable_density(1.3, 1)) == pytest.approx(0.0)

    def test_no_jumps(self):
        # the zero law of a triplet without jumps, in its own dimension
        for d in (1, 2):
            b_A = drift_correction(diffusion_triplet(d).nu)
            assert b_A.shape == (d,) and not np.any(b_A)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("law", ["stable", "analytic", "table"])
    def test_has_the_shape_of_the_dimension(self, law, d, tmp_path):
        # the zero law's is test_no_jumps
        nu = {"stable": lambda: stable_density(1.2, d),
              "analytic": lambda: LevyDensity(kind="analytic", d=d,
                                              func=right_exponential if d == 1
                                              else lambda r: np.exp(-r) / r,
                                              is_even=d != 1),
              "table": lambda: triplet_from_config({"d": d, "nu": {
                  "kind": "tabulated",
                  "table_path": str((one_sided_table if d == 1 else log_tail_table)(
                      tmp_path / "nu.csv"))}}).nu}[law]()
        b_A = drift_correction(nu)
        assert b_A.shape == (d,) and np.all(np.isfinite(b_A))
        assert bool(np.any(b_A)) == (not nu.is_even)

    def test_half_line_density_positive(self):
        nu = LevyDensity(
            kind="analytic", d=1,
            func=right_exponential, is_even=False,
        )
        val = drift_correction(nu)
        assert val[0] > 0.0
        # kept on the law's record, read-only
        assert drift_correction(nu) is val and not val.flags.writeable

    def test_steady_state_integrates_at_its_tol(self):
        # at tol = 1e-6 b_A differs from its value at the default, and the
        # steady density is the one of the exponent at 1e-6, to the bit
        nu = LevyDensity(kind="analytic", d=1, func=right_exponential, is_even=False)
        tr = LevyTriplet(sigma=np.eye(1), b=np.zeros(1), nu=nu, d=1)
        assert drift_correction(nu, 1e-6)[0] != drift_correction(nu)[0]
        g = Grid(1, 20.0, 64)
        steady = build_steady_state(tr, g, 1e-6)
        vals = g.synthesize(np.exp(steady_exponent(tr, g.freqs(), 1e-6)))
        np.testing.assert_array_equal(steady.density.values,
                                      np.clip(vals, 0.0, None) / g.integrate(vals))
        assert np.any(steady.density.values != build_steady_state(tr, g).density.values)


class TestTableRule:
    """A table's record, by its fixed Gauss-Legendre rule, against QUADPACK
    with the knots as breakpoints (QAGP), to 1e-10 max(1, |value|)."""

    @pytest.mark.parametrize("name, d", [("even", 1), ("even", 2), ("one-sided", 1)])
    def test_matches_the_breakpoint_oracle(self, name, d, tmp_path, monkeypatch):
        write = one_sided_table if name == "one-sided" else log_tail_table
        nu = triplet_from_config({"d": d, "nu": {
            "kind": "tabulated", "table_path": str(write(tmp_path / "nu.csv"))}}).nu
        law = levy._law(nu, 1e-10)
        assert type(law) is levy._TableLaw
        # every radius at which a steady build samples the Chebyshev table of a
        radii, chebyshev = [], levy._log_chebyshev_integral
        monkeypatch.setattr(levy, "_log_chebyshev_integral", lambda f, *args: chebyshev(
            lambda r: radii.append(r) or f(r), *args))
        build_steady_state(LevyTriplet(sigma=0.3 * np.eye(d), b=np.zeros(d), nu=nu, d=d),
                           Grid(d, 10.0, 128 if d == 1 else 32))
        assert sum(map(len, radii)) >= 33
        # and one radius whose 6 / k is shorter than the knot pieces, so that
        # the rule splits every piece into panels
        ks = np.append(np.concatenate(radii), 150.0)
        whole, knots = knot_interval(nu, 0.0, np.inf)
        rho, n_diff = nu.radial_density, nu.odd_difference

        def oracle(f, odd=None, interval=whole, points=knots):
            val = qagp(f, interval, 1e-12, points)
            return val if nu.is_even or odd is None else val + 1j * qagp(
                odd, interval, 1e-12, points)

        mean = np.cos if d == 1 else special.j0
        r_min = float(np.min(ks))
        assert r_min == pytest.approx(np.pi / 10.0)
        z = np.array([0.03, 0.5, 2.0, 7.5, 12.0])
        z = z if nu.is_even else np.concatenate([z, -z])
        pairs = {
            "a": (law.symbol(ks), [oracle(
                lambda r: (mean(k * r) - 1.0) * rho(r),
                lambda r: (np.sin(k * r) - k * r / (1.0 + r * r)) * n_diff(r))
                for k in ks]),
            "G(r_min)": (law._anchor(r_min), oracle(
                lambda s: -levy._kernel(d, r_min * s) * rho(s),
                lambda s: (special.sici(r_min * s)[0] - r_min * s / (1.0 + s * s))
                * n_diff(s))),
            "moment": ([law.moment(eps)[0] for eps in (0.05, 1.0)], [oracle(
                lambda r: r * r * rho(r), None, *knot_interval(nu, 0.0, eps))
                for eps in (0.05, 1.0)]),
            "mass": (law.mass()[0], oracle(rho, None, *knot_interval(nu, 1.0, np.inf))),
            "log tail": (law.log_tail.value, oracle(
                lambda r: np.log(r) * rho(r), None, *knot_interval(nu, 1.0, np.inf))),
            "N_inf": (law.tail_average(z), [log_t_limit_density(nu, x) for x in z]),
            "b_A": (drift_correction(nu)[0], 0.0 if nu.is_even else oracle(
                lambda r: r * levy._tau_factor(r) * n_diff(r))),
        }
        assert not law.moment(1.0)[1] and not law.log_tail.diverged
        for key, (got, want) in pairs.items():
            got, want = np.asarray(got), np.asarray(want)
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want))), (
                key, got, want)


    @pytest.mark.parametrize("name", ["even", "one-sided"])
    def test_symbol_memory_does_not_grow_with_the_radii(self, name, tmp_path):
        # a is summed over blocks of radii: four times the radii hold no
        # larger (radii x nodes) matrix
        write = one_sided_table if name == "one-sided" else log_tail_table
        nu = triplet_from_config({"d": 1, "nu": {
            "kind": "tabulated", "table_path": str(write(tmp_path / "nu.csv"))}}).nu
        law = levy._law(nu, 1e-10)
        law.symbol(np.linspace(0.1, 50.0, 128))      # the rule's nodes, built once

        def peak(count):
            return traced_peak(lambda: law.symbol(np.linspace(0.1, 50.0, count)))

        assert peak(512) <= 1.1 * peak(128)


class TestLogTail:
    def test_stable_alpha_one(self):
        rep = check_log_tail(stable_density(1.0, 1))
        c = _stable_norm_constant(1, 1.0)
        # 2c int_1^inf ln(z) z^{-2} dz = 2c / alpha^2
        assert not rep.diverged
        assert rep.value == pytest.approx(2.0 * c, rel=1e-10)

    def test_log_divergent_tail_flagged(self):
        nu = LevyDensity(
            kind="analytic", d=1,
            func=log_divergent, is_even=True,
        )
        assert check_log_tail(nu).diverged

    def test_compact_support(self):
        nu = LevyDensity(
            kind="analytic", d=1,
            func=box, is_even=True,
        )
        rep = check_log_tail(nu)
        assert rep.value == pytest.approx(0.0, abs=1e-12)


    def test_tabulated_tail_ends_at_the_last_knot(self, tmp_path):
        path = log_tail_table(tmp_path / "nu.csv")
        nu = triplet_from_config(
            {"d": 1, "nu": {"kind": "tabulated", "table_path": str(path)}}
        ).nu
        rep = check_log_tail(nu)
        # rho = 2N is linear between knots, and int ln(r) (a + b r) dr is
        # a (r ln r - r) + b (r^2 ln r / 2 - r^2 / 4)
        z, n = np.loadtxt(path, delimiter=",").T
        r = np.concatenate(([1.0], z[z > 1.0]))
        rho = 2.0 * np.interp(r, z, n)
        b = np.diff(rho) / np.diff(r)
        a = rho[:-1] - b * r[:-1]

        def antiderivative(x):
            return a * (x * np.log(x) - x) + b * (x * x * np.log(x) / 2 - x * x / 4)

        exact = float(np.sum(antiderivative(r[1:]) - antiderivative(r[:-1])))
        assert not rep.diverged
        assert rep.value == pytest.approx(exact, rel=0, abs=1e-10)


class TestDomination:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_stable_ratio_is_constant(self, alpha):
        rep = check_domination(stable_density(alpha, 1))
        ratios = np.array([r for _, r in rep.table])
        assert not rep.unbounded
        np.testing.assert_allclose(ratios, 1.0 / alpha, rtol=1e-6)

    def test_exponential_counterexample(self):
        nu = LevyDensity(
            kind="analytic", d=1,
            func=lambda z: np.exp(-abs(z)) / abs(z), is_even=True,
        )
        rep = check_domination(nu)
        assert rep.unbounded
        small = [r for z, r in rep.table if z < 1e-3]
        assert max(small) > 10.0

    def test_no_jumps(self):
        # the zero law's N_inf and N are 0 on the whole sample grid: every
        # ratio is 0, and nothing is unbounded
        rep = check_domination(diffusion_triplet(2).nu)
        assert rep.C_est == 0.0 and not rep.unbounded
        assert [r for _, r in rep.table] == [0.0] * 28
        assert [z for z, _ in rep.table] == np.logspace(-6.0, 3.0, 28).tolist()

    def test_one_sided_mirrors_read_alike(self):
        # e^{-|z|}/|z| on one ray only: each mirror is sampled on both rays,
        # so the left-only one is undominated at small |z| like the right-only
        reps = [check_domination(LevyDensity(
            kind="analytic", d=1, is_even=False,
            func=lambda z, s=s: np.exp(-np.abs(z)) / np.abs(z) * (s * z > 0)))
            for s in (1.0, -1.0)]
        for rep in reps:
            assert rep.unbounded
            assert rep.C_est == pytest.approx(13.24, abs=5e-3)
            assert [z for z, _ in rep.table[28:]] == [-z for z, _ in rep.table[:28]]
        right, left = ([r for _, r in rep.table] for rep in reps)
        assert right[:28] == left[28:] and left[:28] == right[28:] == [0.0] * 28


class TestRadialDecay:
    def test_stable_equality_case(self):
        alpha = 1.5
        nu = stable_density(alpha, 1)
        rep = check_radial_decay(
            lambda x: limit_levy_density(nu, x),
            nu,
            points=[0.5, 1.0, 2.0],
            C=1.0 / alpha,
        )
        assert rep.monotone_ok
        assert rep.max_identity_error < 1e-5

    def test_compact_support_tail(self):
        nu = LevyDensity(
            kind="analytic", d=1,
            func=box, is_even=True,
        )
        rep = check_radial_decay(
            lambda x: limit_levy_density(nu, x), nu, points=[3.0], C=1.0,
            t_grid=np.linspace(1.0, 10.0, 10),
        )
        assert rep.monotone_ok

    def test_nan_limit_density_fails(self):
        rep = check_radial_decay(
            lambda x: math.nan, lambda x: 1.0, points=[0.5, 2.0], C=1.0
        )
        assert not rep.monotone_ok
        assert math.isnan(rep.max_monotone_violation)
        assert math.isnan(rep.max_identity_error)


@pytest.mark.parametrize("call, error, message", [
    (lambda: fp_evolve(gaussian_field(Grid(1, 10.0, 16), 1.0), diffusion_triplet(),
                       -0.5), ValueError, "nonnegative"),
    (lambda: limit_levy_density(stable_density(1.0, 1), 0.0), ValueError, "z = 0"),
    (lambda: limit_levy_density(stable_density(1.0, 2), [0.0, 0.0]), ValueError,
     "z = 0"),
], ids=["fp_evolve-t-negative", "N_inf-at-0-d1", "N_inf-at-0-d2"])
def test_refused_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
