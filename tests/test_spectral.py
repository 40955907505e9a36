"""Grid transforms, multipliers, norms, and shared quadrature."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import exp1

from levylab import (
    Grid,
    LevyTriplet,
    SpectralField,
    apply_multiplier,
    gaussian_field,
    lp_norm,
    spectral,
    stable_density,
    steady_exponent,
)
from levylab.errors import InvalidExponent, QuadratureFailure
from levylab.fields import band_limit, generate_test_fields
from levylab.heat import heat_evolve
from levylab.quadrature import integrate_scaled
from levylab.spectral import _riemann_norm

from conftest import (fractional_laplacian, full_freqs, gaussian, half_operator_norm,
                      radial_gaussian)


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
        # every caller shares one phase array and one symbol per exponent
        g = Grid(d, 5.0, 16)
        assert g.symbol(1.0) is g.symbol(1.0)
        for a in (g.symbol(1.0), g._phase):
            with pytest.raises(ValueError):
                a[(0,) * d] = 1.0
        assert g == Grid(d, 5.0, 16) and hash(g) == hash(Grid(d, 5.0, 16))

    @pytest.mark.parametrize("d", [1, 2])
    def test_open_coords_broadcast_to_coords(self, d):
        g = Grid(d, 5.0, 16)
        full = np.broadcast_arrays(*g.open_coords())
        for a, b in zip(full, g.coords(), strict=True):
            assert a.tobytes() == b.tobytes()

    def test_meshes_are_tensor_products_2d(self):
        g = Grid(2, 5.0, 16)
        x, y = g.coords()
        np.testing.assert_array_equal(x, np.repeat(g.x1[:, None], 16, axis=1))
        np.testing.assert_array_equal(y, np.repeat(g.x1[None, :], 16, axis=0))
        # freqs() is the rfftn half of the full mesh, plus the row k = +M/2
        k0, k1 = g.freqs()
        full0, full1 = full_freqs(g)
        np.testing.assert_array_equal(k0[:16], full0[:, :9])
        np.testing.assert_array_equal(k1[:16], full1[:, :9])
        np.testing.assert_array_equal(k0[16], np.full(9, np.pi / g.dx))
        np.testing.assert_array_equal(k1[16], g.xi1[:9])
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

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("variance, center", [(0.25, -2.0), (1.7, 0.3),
                                                  (4.0, (1.25, -2.5))])
    def test_matches_the_meshgrid_formula_bitwise(self, d, variance, center):
        # the separable product takes the radial formula's float operations
        # in d=1; in d=2 exp(-a) exp(-b) is exp(-(a + b)) up to round-off
        g = Grid(d, 10.0, 64)
        c = np.atleast_1d(np.asarray(center, dtype=float))[:d]
        want = radial_gaussian(g, variance, c)
        got = gaussian_field(g, variance, c).values
        assert got.shape == want.shape
        if d == 1:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= 4e-16 * np.max(want)


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


class TestTransformPair:
    """``_forward`` and ``_inverse`` are ``np.fft.rfftn`` and ``irfftn``, bitwise."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("M", [8, 64, 512])
    def test_equal_numpys_transforms_bitwise(self, d, M):
        g = Grid(d, 10.0, M)
        values = np.random.default_rng(M + d).standard_normal(g.shape)
        half = spectral._forward(values)
        assert half.tobytes() == np.fft.rfftn(values).tobytes()
        want = np.fft.irfftn(half, s=g.shape, axes=range(d))
        got = spectral._inverse(half.copy(), np.empty(g.shape))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_cached_half_spectrum_is_read_only(self, d):
        f = gaussian_field(Grid(d, 10.0, 16))
        with pytest.raises(ValueError, match="read-only"):
            f.half_spectrum[0] = 0.0
        if d == 2:
            # the in-place first-axis inverse refuses the cache
            with pytest.raises(ValueError, match="read-only"):
                spectral._inverse(f.half_spectrum, np.empty(f.grid.shape))
        assert f.half_spectrum.tobytes() == np.fft.rfftn(f.values).tobytes()


class TestApplyMultiplier:
    def test_identity(self, coarse_grid):
        f = gaussian(coarse_grid)
        out = apply_multiplier(f, np.ones_like(coarse_grid.symbol(1.0)))
        np.testing.assert_allclose(out.values, f.values, atol=1e-14)

    def test_laplacian_on_gaussian(self, grid1):
        f = gaussian(grid1)
        out = apply_multiplier(f, -grid1.symbol(2.0))
        x = grid1.x1
        exact = (x**2 - 1.0) * np.exp(-(x**2) / 2.0) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(out.values - exact)) < 1e-10

    def test_heat_multiplier_at_zero_time(self, coarse_grid):
        f = gaussian(coarse_grid)
        out = apply_multiplier(f, np.exp(-0.0 * coarse_grid.symbol(2.0)))
        np.testing.assert_allclose(out.values, f.values, atol=1e-14)

    def test_composition(self, coarse_grid):
        f = gaussian(coarse_grid)
        m1 = np.exp(-coarse_grid.symbol(1.0))
        m2 = 1.0 / (1.0 + coarse_grid.symbol(2.0))
        once = apply_multiplier(apply_multiplier(f, m1), m2)
        both = apply_multiplier(f, m1 * m2)
        np.testing.assert_allclose(once.coefficients, both.coefficients, atol=1e-14)

    def test_complex_multiplier_rejected(self, coarse_grid):
        f = gaussian(coarse_grid)
        with pytest.raises(TypeError):
            apply_multiplier(f, 1j * coarse_grid.symbol(1.0))
        with pytest.raises(TypeError):
            apply_multiplier(f, np.ones(coarse_grid.half_shape, dtype=complex))

    @pytest.mark.parametrize("d, half", [(1, "(9,)"), (2, "(16, 9)")])
    def test_full_mesh_multiplier_rejected(self, d, half):
        # a multiplier built from the full frequency mesh, or one that would
        # broadcast against the half spectrum, fails closed
        g = Grid(d, 5.0, 16)
        f = SpectralField(g, values=np.ones(g.shape))
        full = sum(a**2 for a in full_freqs(g))
        expected = "half-spectrum shape " + re.escape(half)
        for m in (full, full[..., :1], np.ones((1,) + g.half_shape), 1.0):
            with pytest.raises(ValueError, match=expected):
                apply_multiplier(f, m)


# the package's multipliers, rebuilt here from the full frequency mesh: the
# heat semigroup exp(-t |xi|^alpha), the fractional Laplacian |xi|^alpha and
# the band limit at 0.8 of Nyquist, each with the library call that applies it
def _abs_xi(g):
    return np.sqrt(sum(a**2 for a in full_freqs(g)))


_MULTIPLIERS = {
    **{f"heat-{a}": (lambda f, a=a: heat_evolve(f, a, 0.7),
                     lambda g, a=a: np.exp(-0.7 * _abs_xi(g) ** a))
       for a in (0.5, 1.3, 2.0)},
    **{f"frac-laplacian-{a}": (lambda f, a=a: fractional_laplacian(f, a),
                               lambda g, a=a: _abs_xi(g) ** a)
       for a in (0.5, 1.3, 2.0)},
    "band-limit": (band_limit,
                   lambda g: (_abs_xi(g) <= 0.8 * np.pi / g.dx).astype(float)),
}


def _complex_inverse(f, m):
    """The full-mesh complex inverse of f^ m, as apply_multiplier computed it
    before it moved onto the rfftn half spectrum."""
    return f.grid.inverse(f.coefficients * np.asarray(m, dtype=complex))


@pytest.mark.parametrize("name", sorted(_MULTIPLIERS))
@pytest.mark.parametrize("d, L, M", [(1, 20.0, 512), (2, 10.0, 64)])
def test_real_multiplier_matches_complex_cast(name, d, L, M):
    g = Grid(d, L, M)
    apply, multiplier = _MULTIPLIERS[name]
    noise = np.random.default_rng(4).standard_normal(g.shape)
    for f in (gaussian_field(g, 1.5, 0.5), SpectralField(g, values=noise)):
        m = multiplier(g)
        w = _complex_inverse(f, m)
        # both paths round off at about eps * max|m| * max|f|; the worst
        # measured difference is 4.6e-16 of that scale
        scale = np.max(np.abs(m)) * np.max(np.abs(f.values))
        assert np.max(np.abs(apply(f).values - w.real)) <= 1e-13 * scale
        # the multiplier is Hermitian: a real field stays real to round-off
        assert np.max(np.abs(w.imag)) <= 1e-8 * np.max(np.abs(w.real))


@pytest.mark.parametrize("d, L, M", [(1, 20.0, 512), (2, 10.0, 64)])
def test_half_operator_norm_matches_full_sum(d, L, M):
    g = Grid(d, L, M)
    noise = np.random.default_rng(5).standard_normal(g.shape)
    w = (g.dxi / (2.0 * np.pi)) ** d
    for f in (gaussian_field(g, 1.5, 0.5), SpectralField(g, values=noise)):
        for alpha in (0.5, 1.3, 2.0):
            full = np.sum(_abs_xi(g) ** alpha * np.abs(f.coefficients) ** 2) * w
            assert half_operator_norm(f, alpha) == pytest.approx(full, rel=1e-13)


@pytest.mark.parametrize("d", [1, 2])
def test_symbol_is_the_half_of_the_full_mesh(d):
    g = Grid(d, 5.0, 16)
    for alpha in (0.5, 2.0):
        s = g.symbol(alpha)
        assert s.shape == g.half_shape and g.symbol(alpha) is s
        np.testing.assert_array_equal(s, (_abs_xi(g) ** alpha)[..., :9])
        with pytest.raises(ValueError):
            s[(0,) * d] = 1.0


def _on_freqs(g, full):
    """A full-mesh spectrum of a grid function on the mesh of ``Grid.freqs``;
    on the grid, the extra d=2 row k = +M/2 is row -M/2 again."""
    half = full[..., : g.M // 2 + 1]
    return half if g.d == 1 else np.vstack([half, half[g.M // 2]])


def _alias_triplet(d):
    # drift and a tilted covariance: the continuum spectrum differs between
    # the aliases +-M/2 of a full axis
    sigma, b = ([[0.3]], [0.7]) if d == 1 else ([[0.3, 0.1], [0.1, 0.2]], [0.7, -0.4])
    return LevyTriplet(sigma=np.array(sigma), b=np.array(b),
                       nu=stable_density(1.5, d), d=d)


@pytest.mark.parametrize("d", [1, 2])
def test_synthesize_is_the_real_part_of_the_full_inverse(d):
    g = Grid(d, 10.0, 32)
    noise = np.random.default_rng(6).standard_normal(g.shape)
    tr = _alias_triplet(d)
    cases = [(_on_freqs(g, g.forward(noise)), g.forward(noise)),
             (np.exp(steady_exponent(tr, g.freqs())),
              np.exp(steady_exponent(tr, full_freqs(g))))]
    for half, full in cases:
        ref = g.inverse(full).real
        assert np.max(np.abs(g.synthesize(half) - ref)) <= 1e-14 * np.max(np.abs(ref))
    np.testing.assert_allclose(g.synthesize(cases[0][0]), noise, rtol=0, atol=1e-14)


@pytest.mark.parametrize("M", [16, 512, 4096, 8192])
def test_the_mirrored_chirp_is_the_full_range_one(M):
    # the chirp is even in m: its half m = 0, ..., M - 1 mirrored is bitwise
    # the phase formed over the full range m = 1 - M, ..., M - 1
    m = np.arange(1 - M, M)
    for scale in (np.exp(-0.25), np.exp(-2.0), 0.999, 1.0):
        want = spectral._unit_phase(np.longdouble(scale) * (m * m) / M)
        assert np.array_equal(spectral._chirp(M, scale), want), scale


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

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, 4.0, np.inf])
    def test_is_the_riemann_sum_bitwise(self, d, p):
        # the two-temporary expression it replaced, on a field of both signs
        g = Grid(d, 5.0, 32)
        v = np.random.default_rng(4).normal(size=g.shape)
        want = (float(np.max(np.abs(v))) if p == np.inf
                else float(np.sum(np.abs(v) ** p) * g.dx**g.d) ** (1.0 / p))
        assert lp_norm(SpectralField(g, v), p) == want

    def test_takes_one_grid_size_temporary(self):
        f = gaussian_field(Grid(2, 10.0, 128))
        tracemalloc.start()
        try:
            lp_norm(f, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.values.nbytes <= peak < 1.5 * f.values.nbytes

    @pytest.mark.parametrize("p", [4.0, 8])
    def test_squaring_takes_one_grid_size_temporary(self, p):
        f = gaussian_field(Grid(2, 10.0, 128))
        tracemalloc.start()
        try:
            lp_norm(f, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.values.nbytes <= peak < 1.5 * f.values.nbytes

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [2, 3, 4, 6, 8.0, 2.5])
    def test_matches_the_pow_expression(self, d, p):
        # a power of two is squared in place, so it may round apart from pow;
        # exact zeros, both signs and values whose powers underflow included
        g = Grid(d, 5.0, 64)
        rng = np.random.default_rng(11)
        v = rng.normal(size=g.shape) * 10.0 ** rng.uniform(-120, 1, size=g.shape)
        v.ravel()[::7] = 0.0
        assert np.any(np.abs(v) < 1e-80) and np.any(v < 0)
        want = float(np.sum(np.abs(v) ** p) * g.dx**g.d) ** (1.0 / p)
        for out in (None, np.empty(g.shape)):
            assert _riemann_norm(v, p, g, out) == pytest.approx(want, rel=1e-15, abs=0)

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


@pytest.mark.parametrize("written, read", [
    (Grid(1, 10.0, 64), Grid(1, 20.0, 64)),
    (Grid(1, 20.0, 64), Grid(2, 20.0, 8)),
    (Grid(2, 20.0, 8), Grid(1, 20.0, 64)),
], ids=["other-box", "1d-as-2d", "2d-as-1d"])
def test_csv_from_another_grid_rejected(tmp_path, written, read):
    # the same number of cells, but not the same coordinates
    path = tmp_path / "field.csv"
    gaussian_field(written, 1.0).to_csv(path)
    with pytest.raises(ValueError):
        SpectralField.from_csv(read, path)


def test_csv_round_trip(tmp_path, coarse_grid):
    f = gaussian(coarse_grid, var=1.7, center=0.3)
    path = tmp_path / "field.csv"
    f.to_csv(path)
    back = SpectralField.from_csv(coarse_grid, path)
    np.testing.assert_array_equal(back.values, f.values)


@pytest.mark.parametrize("d, M", [(1, 128), (2, 32)])
def test_battery_is_the_clipped_band_limit_bitwise(d, M):
    # the gaussians battery has no random draws, so each field can be rebuilt
    g = Grid(d, 10.0, M)
    battery = generate_test_fields(g, 0, "gaussians")
    for k, f in enumerate(battery):
        raw = gaussian_field(g, (0.25, 1.0, 4.0)[k // 3], (-2.0, 0.0, 2.0)[k % 3])
        want = np.clip(band_limit(raw).values, 0.0, None)
        assert f.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid, shape", [(Grid(1, 10.0, 16), (8,)),
                                         (Grid(2, 10.0, 16), (16,)),
                                         (Grid(2, 10.0, 16), (16, 9))],
                         ids=["d1-short", "d2-flat", "d2-half-spectrum"])
def test_refused_input(grid, shape):
    with pytest.raises(ValueError, match="shape does not match"):
        SpectralField(grid, np.zeros(shape))
