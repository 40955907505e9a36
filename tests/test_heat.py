"""Fractional heat flow, smoothing bounds, and pointwise convexity checks."""

import math
from dataclasses import astuple
from itertools import product

import numpy as np
import pytest

from levylab import (
    SpectralField,
    cli,
    gaussian_field,
    heat_evolve,
    kato_check,
    lsi_constant,
    lsi_gap,
    lp_norm,
    ultracontractivity_constant,
    verify_hypercontractivity,
)
from levylab.errors import DegenerateField, InvalidAlpha, InvalidExponents, LevyLabError
from levylab.fields import generate_test_fields
from levylab.heat import HypercontractivityReport
from levylab.spectral import Grid, apply_multiplier

from conftest import (count_transforms, fractional_laplacian, gaussian,
                      half_operator_norm, traced_peak)

ALPHAS = [0.5, 1.0, 1.5, 2.0]


class TestHeatEvolve:
    def test_gaussian_oracle(self, grid1):
        # variance grows by 2t under the classical heat flow
        out = heat_evolve(gaussian(grid1, var=1.0), 2.0, 0.5)
        exact = gaussian(grid1, var=2.0)
        assert np.max(np.abs(out.values - exact.values)) < 1e-10

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_zero_time_identity(self, alpha, coarse_grid):
        f = gaussian(coarse_grid)
        out = heat_evolve(f, alpha, 0.0)
        np.testing.assert_array_equal(out.values, f.values)

    def test_cauchy_kernel_limit(self):
        # a narrow Gaussian approximates delta; P_1 delta is the Poisson
        # kernel, whose heavy tail needs a wide box to avoid wrap-around
        g = Grid(1, 200.0, 8192)
        f = gaussian(g, var=1e-3)
        out = heat_evolve(f, 1.0, 1.0)
        cauchy = 1.0 / (np.pi * (1.0 + g.x1**2))
        err = math.sqrt(np.sum((out.values - cauchy) ** 2) * g.dx)
        assert err < 1e-3

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("s,t", [(0.1, 0.1), (0.1, 1.0), (1.0, 1.0)])
    def test_semigroup_law(self, alpha, s, t, coarse_grid):
        f = gaussian(coarse_grid)
        two = heat_evolve(heat_evolve(f, alpha, s), alpha, t)
        one = heat_evolve(f, alpha, s + t)
        assert np.max(np.abs(two.coefficients - one.coefficients)) < 1e-13

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_mass_and_positivity(self, alpha, grid1):
        f = gaussian(grid1, var=0.5, center=1.0)
        out = heat_evolve(f, alpha, 0.7)
        assert out.mass() == pytest.approx(f.mass(), rel=1e-12)
        assert np.min(out.values) >= -1e-8 * np.max(out.values)

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_lp_contraction(self, p, grid1):
        f = gaussian(grid1)
        out = heat_evolve(f, 1.5, 0.4)
        assert lp_norm(out, p) <= lp_norm(f, p) * (1.0 + 1e-10)

    def test_rejects_bad_alpha(self, coarse_grid):
        with pytest.raises(InvalidAlpha):
            heat_evolve(gaussian(coarse_grid), 2.5, 1.0)


class TestHalfOperatorNorm:
    def test_zero_field(self, coarse_grid):
        f = SpectralField(coarse_grid, values=np.zeros(coarse_grid.shape))
        assert half_operator_norm(f, 1.0) == 0.0

    def test_gaussian_dirichlet_energy(self, grid1):
        # int |f'|^2 dx = 1/(4 sqrt(pi)) for the standard normal density
        f = gaussian(grid1)
        assert half_operator_norm(f, 2.0) == pytest.approx(
            1.0 / (4.0 * math.sqrt(math.pi)), abs=1e-8
        )

    @pytest.mark.parametrize("alpha", [1.0, 1.6])
    def test_parseval_agreement(self, alpha, grid1):
        f = gaussian(grid1, var=0.8)
        direct = grid1.integrate(f.values * fractional_laplacian(f, alpha).values)
        assert half_operator_norm(f, alpha) == pytest.approx(direct, abs=1e-10)


class TestLsiConstant:
    def test_alpha_one(self):
        assert lsi_constant(1, 1.0) == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_alpha_two(self):
        # sharp for the classical Gaussian case
        assert lsi_constant(1, 2.0) == pytest.approx(
            2.0 / (math.pi * math.e), abs=1e-12
        )


class TestLsiGap:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_battery(self, alpha, grid1):
        for f in generate_test_fields(grid1, 7, "gaussians"):
            [(lhs, rhs)] = lsi_gap(f, [alpha])
            assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))

    def test_gaussian_extremal_is_tight(self, grid1):
        # the square root of a Gaussian density saturates the alpha = 2 case
        f = SpectralField.from_function(
            grid1, lambda x: np.exp(-(x**2) / 2.0) / (2.0 * np.pi) ** 0.25
        )
        [(lhs, rhs)] = lsi_gap(f, [2.0])
        assert lhs <= rhs + 1e-10
        assert rhs - lhs < 5e-2

    def test_cauchy_bump(self, grid1):
        f = SpectralField.from_function(grid1, lambda x: 1.0 / (1.0 + x**2))
        [(lhs, rhs)] = lsi_gap(f, [1.0])
        assert lhs <= rhs

    def test_zero_field_rejected(self, coarse_grid):
        f = SpectralField(coarse_grid, values=np.zeros(coarse_grid.shape))
        with pytest.raises(DegenerateField):
            lsi_gap(f, [1.0])


class TestUltracontractivity:
    def test_alpha_one_closed_form(self):
        b = ultracontractivity_constant(1, 1.0, 2.0, np.inf, 1.0)
        assert b.A == pytest.approx(2.0 / math.pi, abs=1e-12)
        assert b.bound == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)

    def test_equal_exponents(self):
        # exactly 1 over (n, alpha, p, t); at alpha = 2e-4 the general
        # formula's p^{n/(q alpha)} overflows a float before it cancels, so
        # q = p keeps its own exact 1
        for n, alpha, p, t in product((1, 2), (2e-4, 0.1, 1.0, 1.5, 2.0),
                                      (2.0, 3.0, 1e300), (1e-300, 0.5, 1e300)):
            assert ultracontractivity_constant(n, alpha, p, p, t).bound == 1.0, (
                n, alpha, p, t)

    def test_bound_dominates_gaussian_kernel(self):
        # ||p_t||_2 = (8 pi t)^{-1/4} must sit below the L2 -> Linf bound
        b = ultracontractivity_constant(1, 2.0, 2.0, np.inf, 1.0)
        assert (8.0 * math.pi) ** -0.25 <= b.bound

    def test_monotone_in_time(self):
        ts = [0.25, 0.5, 1.0, 2.0, 4.0]
        bounds = [
            ultracontractivity_constant(1, 1.0, 2.0, np.inf, t).bound for t in ts
        ]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("alpha, q", [(1.1e-3, 3.0), (1.5e-3, 3.0), (2e-3, 4.0)])
    def test_taken_in_logs_where_a_power_overflows(self, alpha, q):
        # base^expo, p^{n/(q alpha)} or their product passes the largest
        # float where the bound does not: the bound is its log's exp
        A = lsi_constant(1, alpha)
        base, expo = A * (q - 2.0) / (2.0 * alpha), (q - 2.0) / (alpha * 2.0 * q)
        try:
            closed = base ** expo * 2.0 ** (1.0 / (q * alpha)) / q ** (1.0 / (2.0 * alpha))
        except OverflowError:
            closed = math.inf
        assert closed == math.inf
        log_bound = (expo * math.log(base) + math.log(2.0) / (q * alpha)
                     - math.log(q) / (2.0 * alpha))
        got = ultracontractivity_constant(1, alpha, 2.0, q, 1.0).bound
        assert got == math.exp(log_bound) < math.inf

    @pytest.mark.parametrize("alpha, q", [(2e-4, 3.0), (1e-3, 3.0), (2e-4, np.inf),
                                          (1e-3, np.inf)])
    def test_a_bound_past_the_largest_float_raises(self, alpha, q):
        with pytest.raises(LevyLabError, match="past the largest float"):
            ultracontractivity_constant(1, alpha, 2.0, q, 1.0)

    @pytest.mark.parametrize("p,q", [(1.5, 4.0), (4.0, 2.0)])
    def test_rejects_bad_exponents(self, p, q):
        with pytest.raises(InvalidExponents):
            ultracontractivity_constant(1, 1.0, p, q, 1.0)


class TestVerifyHypercontractivity:
    def test_gaussian(self, grid1):
        [[rep]] = verify_hypercontractivity([gaussian(grid1)], [2.0], [2.0], [4.0], [0.5])
        assert not rep.violated

    def test_semigroup_stability(self, grid1):
        f = heat_evolve(gaussian(grid1), 1.0, 0.3)
        [[rep]] = verify_hypercontractivity([f], [1.0], [2.0], [4.0], [1.0])
        assert not rep.violated

    def test_cauchy_bump_sup_norm(self, grid1):
        f = SpectralField.from_function(grid1, lambda x: 1.0 / (1.0 + x**2))
        [[rep]] = verify_hypercontractivity([f], [1.0], [2.0], [np.inf], [1.0])
        assert rep.ratio <= 1.0 + 1e-6

    def test_nan_ratio_is_a_violation(self, grid1):
        [[rep]] = verify_hypercontractivity([gaussian(grid1)], [2.0], [2.0], [4.0],
                                            [math.nan])
        assert math.isnan(rep.ratio)
        assert rep.violated

    def test_bound_of_0_gives_an_infinite_ratio(self):
        # 2 alpha t overflows at t = 1e308, so the bound is 0; on this grid
        # |xi| < 1, so t |xi|^alpha itself stays finite
        g = Grid(1, 20.0, 8)
        [[rep]] = verify_hypercontractivity([gaussian(g)], [1.0], [2.0], [4.0], [1e308])
        assert rep.rhs == 0.0
        assert rep.ratio == math.inf
        assert rep.violated

    def test_an_infinite_rhs_is_infinite_ratio(self, grid1):
        # a finite bound of 4.2e293 times ||f||_2 of 1e20: read as ratio 0,
        # the product would pass
        f = SpectralField(grid1, 1e20 * gaussian(grid1).values)
        [[rep]] = verify_hypercontractivity([f], [1.05e-3], [2.0], [3.0], [1.0])
        assert rep.rhs == math.inf and rep.ratio == math.inf and rep.violated


def _same(got, want):
    """Reports equal field by field, a NaN matching a NaN."""
    assert type(got) is type(want)
    for x, y in zip(astuple(got), astuple(want), strict=True):
        assert x == y or (x != x and y != y), (got, want)


def _alone(f, *args):
    """The report of one (alpha, p, q, t) tuple, checked as a sweep of one."""
    [[rep]] = verify_hypercontractivity([f], *([x] for x in args))
    return rep


def _by_parts(f, alpha, p, q, t):
    """The scalar check as it stood before the sweep, P_t f by heat_evolve."""
    rhs = lp_norm(f, p) * ultracontractivity_constant(f.grid.d, alpha, p, q, t).bound
    lhs = lp_norm(heat_evolve(f, alpha, t), q)
    ratio = lhs / rhs if rhs else math.inf
    return HypercontractivityReport(alpha, p, q, t, lhs, rhs, ratio,
                                    not (ratio <= 1.0 + 1e-6))


class TestHypercontractivitySweep:
    """A sweep equals its tuples checked one at a time: each alone, as a sweep
    of one, and by parts."""

    # on M = 8 and L = 20 every |xi| is below 1, so t = 1e308 keeps t |xi|^alpha
    # finite while the bound is 0 (ratio inf); a NaN time gives a NaN ratio
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("sweep, special", [
        (([0.5, 1.0, 2.0], [2.0], [2.0, 4.0, np.inf], [0.5, 1e308, math.nan]), True),
        (([1.5], [2.0, 3.0], [3.0, 4.0], [0.25, 2.0]), False),
    ], ids=["q-inf", "p-3"])
    def test_equals_the_scalar_calls(self, d, sweep, special):
        f = gaussian_field(Grid(d, 20.0, 8), 0.8, 1.0)
        [reports] = verify_hypercontractivity([f], *sweep)
        for rep, args in zip(reports, product(*sweep), strict=True):
            _same(rep, _alone(f, *args))
            _same(rep, _by_parts(f, *args))
        ratios = [r.ratio for r in reports]
        if special:
            assert math.inf in ratios and any(math.isnan(r) for r in ratios)

    @pytest.mark.parametrize("d, M", [(1, 512), (2, 64)])
    def test_equals_the_scalar_calls_on_a_battery(self, d, M):
        # the battery in one sweep, each field in a sweep of its own, each
        # tuple alone and by parts
        sweep = ([0.5, 1.0, 1.5, 2.0], [2.0], [4.0, np.inf], [0.25, 1.0, 4.0])
        battery = generate_test_fields(Grid(d, 10.0, M), 3, "bumps")
        swept = verify_hypercontractivity(battery, *sweep)
        for f, reports in zip(battery, swept, strict=True):
            [own] = verify_hypercontractivity([f], *sweep)
            for rep, one, args in zip(reports, own, product(*sweep), strict=True):
                _same(rep, one)
                _same(rep, _alone(f, *args))
                _same(rep, _by_parts(f, *args))

    def test_fields_on_different_grids_raise(self):
        fields = [gaussian_field(Grid(1, 20.0, M)) for M in (64, 128)]
        with pytest.raises(ValueError, match="share their grid"):
            verify_hypercontractivity(fields, [1.0], [2.0], [4.0], [0.5])

    def test_zero_field_raises(self, coarse_grid):
        f = SpectralField(coarse_grid, values=np.zeros(coarse_grid.shape))
        with pytest.raises(DegenerateField):
            verify_hypercontractivity([f], [1.0, 2.0], [2.0], [4.0], [0.5, 1.0])

    @pytest.mark.parametrize("p, q", [([2.0, 3.0], [np.inf]), ([2.0], [4.0, 1.5])])
    def test_bad_exponents_raise_before_any_transform(self, p, q, grid1, monkeypatch):
        counts = count_transforms(monkeypatch)
        with pytest.raises(InvalidExponents):
            verify_hypercontractivity([gaussian(grid1)], [1.0], p, q, [0.5])
        assert counts == {"_forward": 0, "_inverse": 0, "forward": 0, "inverse": 0}


class TestWorkingSet:
    """A sweep reuses its arrays: its peak memory does not grow with its length,
    nor with its battery beyond the fields' cached spectra."""

    ALPHAS = [0.5, 1.0, 1.5, 2.0]

    @pytest.fixture
    def grid(self):
        g = Grid(2, 20.0, 128)
        for a in self.ALPHAS:
            g.symbol(a)
        return g

    @pytest.fixture
    def field(self, grid):
        f = generate_test_fields(grid, 1, "bumps")[0]
        f.half_spectrum
        return f

    def test_hypercontractivity_sweep(self, field):
        def run(alphas, ts):
            return lambda: verify_hypercontractivity([field], alphas, [2.0], [4.0], ts)

        run(self.ALPHAS, [1.0])()
        one = traced_peak(run(self.ALPHAS[:1], [0.25]))
        twelve = traced_peak(run(self.ALPHAS, [0.25, 1.0, 4.0]))
        assert twelve <= one + 0.5 * field.values.nbytes

    def test_hypercontractivity_battery(self, grid):
        # fresh fields, so that each spectrum is cached inside the sweep
        def run(k):
            fields = generate_test_fields(grid, 1, "bumps")[:k]
            return lambda: verify_hypercontractivity(fields, self.ALPHAS, [2.0],
                                                     [4.0], [0.25, 1.0, 4.0])

        run(6)()
        one, six = traced_peak(run(1)), traced_peak(run(6))
        spectrum = 16 * int(np.prod(grid.half_shape))
        assert six <= one + 5 * spectrum + 0.5 * 8 * grid.M**grid.d

    def test_kato_sweep(self, field):
        names = sorted(cli._KATO_PHIS)
        phis, dphis = zip(*(cli._KATO_PHIS[n] for n in names))

        def run(alphas, k):
            return lambda: kato_check(field, phis[:k], dphis[:k], alphas)

        run(self.ALPHAS, 2)()
        grid_bytes = field.values.nbytes
        four = traced_peak(run(self.ALPHAS, 2))
        assert four <= traced_peak(run(self.ALPHAS[:1], 2)) + 0.5 * grid_bytes
        # each further function holds its transformed phi(u) and its phi'(u)
        # across the exponents, and nothing else
        held = field.half_spectrum.nbytes + grid_bytes
        assert four <= traced_peak(run(self.ALPHAS[:1], 1)) + held + 0.5 * grid_bytes


class TestKato:
    def test_constant_field(self, coarse_grid):
        u = SpectralField(coarse_grid, values=np.full(coarse_grid.shape, 2.0))
        [[rep]] = kato_check(u, [lambda v: v**2], [lambda v: 2.0 * v], alpha=[1.0])
        assert abs(rep.max_violation) < 1e-12

    def test_affine_equality(self, grid1):
        u = gaussian(grid1)
        [[rep]] = kato_check(u, [lambda v: 3.0 * v], [lambda v: 3.0 + 0.0 * v],
                             alpha=[1.5])
        assert abs(rep.max_violation) < 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_square_on_gaussian(self, alpha, grid1):
        [[rep]] = kato_check(
            gaussian(grid1), [lambda v: v**2], [lambda v: 2.0 * v], alpha=[alpha]
        )
        assert rep.passed


def test_heat_evolve_matches_direct_multiplier(grid1):
    f = gaussian(grid1, var=2.0)
    out = heat_evolve(f, 1.3, 0.7)
    ref = apply_multiplier(f, np.exp(-0.7 * grid1.symbol(1.0) ** 1.3))
    np.testing.assert_allclose(out.values, ref.values, atol=1e-13)


@pytest.mark.parametrize("call, error, message", [
    (lambda: heat_evolve(gaussian_field(Grid(1, 10.0, 16), 1.0), 1.0, -0.5),
     ValueError, "nonnegative"),
    (lambda: ultracontractivity_constant(1, 1.0, 2.0, 4.0, 0.0), ValueError, "t > 0"),
    (lambda: ultracontractivity_constant(2, 1.0, 2.0, np.inf, -1.0), ValueError,
     "t > 0"),
    # a constant field has only the zero frequency
    (lambda: lsi_gap(SpectralField(Grid(2, 5.0, 16), np.full((16, 16), 0.7)), [1.0]),
     DegenerateField, "Dirichlet energy"),
], ids=["heat_evolve-t-negative", "bound-t-0", "bound-t-negative",
        "lsi_gap-constant-field"])
def test_refused_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
