"""Grid transforms, multipliers, norms, and shared quadrature."""

import numpy as np
import pytest
from scipy.special import exp1

from levylab import Grid, SpectralField, apply_multiplier, gaussian_field, lp_norm
from levylab.errors import InvalidExponent, QuadratureFailure
from levylab.quadrature import integrate_scaled

from conftest import gaussian


class TestGrid:
    def test_spacing_identity(self):
        g = Grid(1, 20.0, 256)
        assert g.dx * g.M == pytest.approx(2 * g.L, abs=0)

    @pytest.mark.parametrize("d,L,M", [(3, 20.0, 256), (1, -1.0, 256), (1, 20.0, 100)])
    def test_rejects_bad_parameters(self, d, L, M):
        with pytest.raises(ValueError):
            Grid(d, L, M)

    @pytest.mark.parametrize("d", [1, 2])
    def test_cached_meshes_are_read_only(self, d):
        # every caller shares one frequency mesh and one phase array per grid
        g = Grid(d, 5.0, 16)
        assert g.freqs() is g.freqs()
        for a in (*g.freqs(), g._phase):
            with pytest.raises(ValueError):
                a[(0,) * d] = 1.0
        assert g == Grid(d, 5.0, 16) and hash(g) == hash(Grid(d, 5.0, 16))

    def test_meshes_are_tensor_products_2d(self):
        g = Grid(2, 5.0, 16)
        x, y = g.coords()
        np.testing.assert_array_equal(x, np.repeat(g.x1[:, None], 16, axis=1))
        np.testing.assert_array_equal(y, np.repeat(g.x1[None, :], 16, axis=0))
        k0, k1 = g.freqs()
        np.testing.assert_array_equal(k0, np.repeat(g.xi1[:, None], 16, axis=1))
        np.testing.assert_array_equal(k1, np.repeat(g.xi1[None, :], 16, axis=0))
        j = np.arange(16)
        np.testing.assert_array_equal(g._phase, (-1.0) ** np.add.outer(j, j))


class TestGaussianField:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("variance, center", [(0.5, 0.0), (2.0, 1.5)])
    def test_unit_mass(self, d, variance, center):
        f = gaussian_field(Grid(d, 20.0, 128), variance, center)
        assert f.mass() == pytest.approx(1.0, rel=1e-13)

    def test_center_per_axis_2d(self):
        g = Grid(2, 10.0, 64)
        f = gaussian_field(g, 0.8, (1.25, -2.5))
        x, y = g.coords()
        assert np.sum(x * f.values) * g.dx**2 == pytest.approx(1.25, rel=1e-12)
        assert np.sum(y * f.values) * g.dx**2 == pytest.approx(-2.5, rel=1e-12)


class TestForwardTransform:
    def test_gaussian_oracle(self):
        # hat(w)(xi) = e^{-xi^2/2} for the standard normal density
        g = Grid(1, 20.0, 256)
        f = gaussian(g)
        xi = g.xi1
        mask = np.abs(xi) <= 5.0
        err = np.abs(f.coefficients[mask] - np.exp(-xi[mask] ** 2 / 2.0))
        assert np.max(err) < 1e-12

    def test_zero_field(self):
        g = Grid(1, 20.0, 64)
        f = SpectralField(g, values=np.zeros(g.shape))
        assert np.all(f.coefficients == 0)

    def test_real_even_gives_real_coefficients(self):
        g = Grid(1, 20.0, 128)
        f = SpectralField.from_function(g, lambda x: np.exp(-(x**2)) * np.cos(x))
        assert np.max(np.abs(f.coefficients.imag)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    def test_round_trip(self, d):
        g = Grid(d, 10.0, 64)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(g.shape)
        back = g.inverse(g.forward(vals)).real
        assert np.max(np.abs(back - vals)) < 1e-12 * np.max(np.abs(vals))

    @pytest.mark.parametrize("d", [1, 2])
    def test_parseval(self, d):
        g = Grid(d, 10.0, 64)
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(g.shape)
        space = np.sum(vals**2) * g.dx**d
        freq = np.sum(np.abs(g.forward(vals)) ** 2) * (g.dxi / (2 * np.pi)) ** d
        assert space == pytest.approx(freq, rel=1e-10)


class TestApplyMultiplier:
    def test_identity(self, coarse_grid):
        f = gaussian(coarse_grid)
        out = apply_multiplier(f, lambda xi: np.ones_like(xi))
        np.testing.assert_allclose(out.values, f.values, atol=1e-14)

    def test_laplacian_on_gaussian(self, grid1):
        f = gaussian(grid1)
        out = apply_multiplier(f, lambda xi: -(xi**2))
        x = grid1.x1
        exact = (x**2 - 1.0) * np.exp(-(x**2) / 2.0) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(out.values - exact)) < 1e-10

    def test_heat_multiplier_at_zero_time(self, coarse_grid):
        f = gaussian(coarse_grid)
        out = apply_multiplier(f, lambda xi: np.exp(-0.0 * xi**2))
        np.testing.assert_allclose(out.values, f.values, atol=1e-14)

    def test_composition(self, coarse_grid):
        f = gaussian(coarse_grid)
        m1 = lambda xi: np.exp(-np.abs(xi))  # noqa: E731
        m2 = lambda xi: 1.0 / (1.0 + xi**2)  # noqa: E731
        once = apply_multiplier(apply_multiplier(f, m1), m2)
        both = apply_multiplier(f, lambda xi: m1(xi) * m2(xi))
        np.testing.assert_allclose(once.coefficients, both.coefficients, atol=1e-14)


class TestLpNorm:
    def test_gaussian_l2(self, grid1):
        f = SpectralField.from_function(grid1, lambda x: np.exp(-(x**2)))
        assert lp_norm(f, 2) == pytest.approx((np.pi / 2.0) ** 0.25, abs=1e-8)

    @pytest.mark.parametrize("p", [1, 2, 3.5, np.inf])
    def test_zero_field(self, p, coarse_grid):
        f = SpectralField(coarse_grid, values=np.zeros(coarse_grid.shape))
        assert lp_norm(f, p) == 0.0

    def test_sup_norm(self, coarse_grid):
        f = SpectralField.from_function(coarse_grid, lambda x: np.exp(-(x**4)))
        assert lp_norm(f, np.inf) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_small_exponent(self, coarse_grid):
        f = gaussian(coarse_grid)
        with pytest.raises(InvalidExponent):
            lp_norm(f, 0.5)

    def test_refinement_stability(self):
        # doubling M barely moves the norm of a concentrated smooth field
        vals = []
        for M in (256, 512):
            g = Grid(1, 20.0, M)
            vals.append(lp_norm(gaussian(g), 3))
        assert abs(vals[1] - vals[0]) < 1e-8 * vals[0]


class TestIntegrateScaled:
    def test_unit_interval(self):
        assert integrate_scaled(lambda s: 1.0, (0.0, 1.0)) == pytest.approx(1.0)

    def test_power_tail(self):
        assert integrate_scaled(lambda t: t**-2, (1.0, np.inf)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_exponential_tail(self):
        val = integrate_scaled(lambda s: np.exp(-2.0 * (s - 1.0)) / s, (1.0, np.inf))
        assert val == pytest.approx(np.exp(2.0) * exp1(2.0), abs=1e-6)

    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureFailure):
            integrate_scaled(lambda t: 1.0 / t, (1.0, np.inf))


def test_csv_round_trip(tmp_path, coarse_grid):
    f = gaussian(coarse_grid, var=1.7, center=0.3)
    path = tmp_path / "field.csv"
    f.to_csv(path)
    back = SpectralField.from_csv(coarse_grid, path)
    np.testing.assert_array_equal(back.values, f.values)
