"""Phi-entropies, Bregman distances, dissipation, and decay tracking."""

import itertools
import math
import weakref

import numpy as np
import pytest

from levylab import (
    LevyDensity,
    LevyTriplet,
    PhiFunction,
    SpectralField,
    WeightedMeasure,
    build_steady_state,
    decay_track,
    dissipation,
    entropy_production_check,
    fp_evolve,
    generate_test_fields,
    modified_lsi_check,
    phi_entropy,
    stable_density,
)
from levylab import entropy
from levylab.entropy import (
    ProductionReport,
    _fd_gradient,
    _jump_kernel,
    _ratio_field,
)
from levylab.errors import DomainError, NonFiniteDensity
from levylab.spectral import Grid

from conftest import box, gaussian, loop_jump_kernel, right_exponential

XLOGX = PhiFunction.xlogx()
QUAD = PhiFunction.quadratic()


def stable_triplet(alpha, d=1):
    return LevyTriplet(
        sigma=np.zeros((d, d)), b=np.zeros(d), nu=stable_density(alpha, d), d=d
    )


def diffusion_triplet(d=1):
    return LevyTriplet(sigma=np.eye(d), b=np.zeros(d), nu=None, d=d)


def two_cell_measure():
    g = Grid(1, 4.0, 8)
    w = np.zeros(8)
    w[2] = w[5] = 0.5 / g.dx
    return g, WeightedMeasure(g, w)


@pytest.fixture(scope="module")
def cauchy_steady(grid1):
    return build_steady_state(stable_triplet(1.0), grid1)


@pytest.fixture(scope="module")
def gauss_steady(grid1):
    return build_steady_state(diffusion_triplet(), grid1)


class TestBregman:
    def test_quadratic_closed_form(self):
        assert QUAD.bregman(3.0, 1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("phi", [XLOGX, QUAD])
    def test_zero_at_diagonal(self, phi):
        assert phi.bregman(1.7, 1.7) == pytest.approx(0.0, abs=1e-14)

    def test_xlogx_value(self):
        assert XLOGX.bregman(2.0, 1.0) == pytest.approx(2.0 * np.log(2.0) - 1.0)

    def test_xlogx_rejects_zero_base(self):
        with pytest.raises(DomainError):
            XLOGX.bregman(1.0, 0.0)

    @pytest.mark.parametrize("phi", [XLOGX, QUAD])
    def test_nonnegative_on_random_pairs(self, phi):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = rng.uniform(0.01, 5.0, 2)
            assert phi.bregman(a, b) >= -1e-14

    @pytest.mark.parametrize("phi", [XLOGX, QUAD])
    def test_admissible(self, phi):
        # a zero Hessian eigenvalue limits the finite-difference certificate
        assert phi.check_admissible(h=1e-4) > -1e-6


class TestPhiEntropy:
    @pytest.mark.parametrize("phi", [XLOGX, QUAD])
    def test_constant_field(self, phi):
        g, mu = two_cell_measure()
        v = SpectralField(g, values=np.full(8, 3.0))
        assert phi_entropy(v, mu, phi) == pytest.approx(0.0, abs=1e-12)

    def test_two_cell_variance(self):
        g, mu = two_cell_measure()
        v = np.zeros(8)
        v[5] = 2.0
        assert phi_entropy(v, mu, QUAD) == pytest.approx(0.5)

    def test_two_cell_xlogx(self):
        g, mu = two_cell_measure()
        v = np.zeros(8)
        v[2] = 2.0
        assert phi_entropy(v, mu, XLOGX) == pytest.approx(np.log(2.0))

    def test_quadratic_scaling(self, gauss_steady):
        mu = WeightedMeasure.from_field(gauss_steady.density)
        g = gauss_steady.density.grid
        v = SpectralField.from_function(g, lambda x: 1.0 + 0.5 * np.exp(-(x**2)))
        e1 = phi_entropy(v, mu, QUAD)
        e3 = phi_entropy(v.with_values(3.0 * v.values), mu, QUAD)
        assert e3 == pytest.approx(9.0 * e1, rel=1e-10)

    def test_nonnegative_on_random_fields(self, gauss_steady):
        mu = WeightedMeasure.from_field(gauss_steady.density)
        g = gauss_steady.density.grid
        rng = np.random.default_rng(5)
        for _ in range(5):
            c = rng.uniform(-2, 2)
            w = rng.uniform(0.5, 2)
            v = SpectralField.from_function(
                g, lambda x: 0.2 + np.exp(-((x - c) ** 2) / w)
            )
            for phi in (XLOGX, QUAD):
                assert phi_entropy(v, mu, phi) >= -1e-12


# the one-sided density is defined in d=1 only
ORACLE_CASES = [
    (d, name)
    for d in (1, 2)
    for name in ("box", "stable-0.5", "stable-1", "stable-1.5", "one-sided")
    if d == 1 or name != "one-sided"
]


def oracle_density(name, d):
    if name == "box":
        # compound Poisson: unit rate on the unit ball
        return LevyDensity(kind="analytic", d=d, func=box, is_even=True)
    if name == "one-sided":
        # jumps to the right only: catches an x + z / x - z mix-up
        return LevyDensity(
            kind="analytic", d=1, func=right_exponential, is_even=False,
        )
    return stable_density(float(name.split("-")[1]), d)


def jump_triplet(nu):
    d = nu.d
    return LevyTriplet(sigma=np.zeros((d, d)), b=np.zeros(d), nu=nu, d=d)


def oracle_field(d):
    """A positive, non-symmetric ratio field against a non-uniform weight."""
    g = Grid(1, 20.0, 64) if d == 1 else Grid(2, 4.0, 16)
    x = np.meshgrid(*([g.x1] * d), indexing="ij")
    vals = 1.5 + np.sin(np.pi * x[0] / g.L) * np.cos(0.5 * np.pi * x[-1] / g.L)
    vals += 0.3 * np.exp(-sum((xi - 0.5) ** 2 for xi in x))
    w = np.exp(-sum(xi**2 for xi in x) / (0.5 * g.L**2))
    return SpectralField(g, values=vals), WeightedMeasure(g, w / (np.sum(w) * g.dx**d))


def loop_jump_part(v, mu, nu, phi, z_extent=2):
    """The per-shift lattice double sum the FFT path replaced, in d=1 and d=2."""
    g = mu.grid
    vals = v.values
    cell = g.dx**g.d
    K = z_extent * g.M // 2
    jump = 0.0
    for k in itertools.product(range(-K, K + 1), repeat=g.d):
        if not any(k):
            continue
        nz = float(nu(k[0] * g.dx if g.d == 1 else np.array(k) * g.dx))
        if nz == 0.0:
            continue
        shifted = np.roll(vals, [-i for i in k], axis=tuple(range(g.d)))
        jump += nz * float(np.sum(phi.bregman(vals, shifted) * mu.weights)) * cell * cell
    grads = _fd_gradient(vals, g)
    m2 = nu.small_ball_second_moment(0.5 * g.dx)
    # each of the d directions carries 1/d of the small-ball moment
    jump += m2 / (2 * g.d) * float(
        np.sum(phi.d2phi(vals) * sum(gr**2 for gr in grads) * mu.weights)
    ) * cell
    return jump


class TestDissipation:
    def test_constant_ratio_field(self, cauchy_steady):
        mu = WeightedMeasure.from_field(cauchy_steady.density)
        g = cauchy_steady.density.grid
        v = SpectralField(g, values=np.ones(g.shape))
        gauss, jump = dissipation(v, mu, stable_triplet(1.0), XLOGX)
        assert gauss == 0.0
        assert jump == pytest.approx(0.0, abs=1e-14)

    def test_classical_dirichlet_form(self, gauss_steady):
        # nu = 0, quadratic Phi: reduces to the weighted Dirichlet energy
        mu = WeightedMeasure.from_field(gauss_steady.density)
        g = gauss_steady.density.grid
        v = SpectralField.from_function(g, lambda x: 1.0 + 0.3 * np.exp(-(x**2)))
        gauss, jump = dissipation(v, mu, diffusion_triplet(), QUAD)
        assert jump == 0.0
        grad = _fd_gradient(v.values, g)[0]
        ref = float(np.sum(grad**2 * mu.weights) * g.dx)
        assert gauss == pytest.approx(ref, rel=1e-12)

    def test_anisotropic_gaussian_part_2d(self):
        # sigma with an off-diagonal entry against the hand-expanded form
        v, mu = oracle_field(2)
        g = mu.grid
        sigma = np.array([[0.7, 0.3], [0.3, 0.4]])
        tr = LevyTriplet(sigma=sigma, b=np.zeros(2), nu=None, d=2)
        gauss, jump = dissipation(v, mu, tr, XLOGX)
        g0, g1 = _fd_gradient(v.values, g)
        form = sigma[0, 0] * g0**2 + 2.0 * sigma[0, 1] * g0 * g1 + sigma[1, 1] * g1**2
        want = float(np.sum(form / v.values * mu.weights) * g.dx**2)
        assert jump == 0.0
        assert gauss == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("phi", [QUAD, XLOGX], ids=["quadratic", "xlogx"])
    @pytest.mark.parametrize(
        "d, density", ORACLE_CASES, ids=[f"d{d}-{n}" for d, n in ORACLE_CASES]
    )
    def test_brute_force_jump_part(self, d, density, phi):
        v, mu = oracle_field(d)
        tr = jump_triplet(oracle_density(density, d))
        _, jump = dissipation(v, mu, tr, phi)
        assert jump == pytest.approx(loop_jump_part(v, mu, tr.nu, phi), rel=1e-10)

    def test_memo_keeps_densities_apart(self):
        # same grid, densities A, B, A: each result matches its own oracle
        v, mu = oracle_field(1)
        for name in ("box", "one-sided", "box"):
            nu = oracle_density(name, 1)
            _, jump = dissipation(v, mu, jump_triplet(nu), XLOGX)
            assert jump == pytest.approx(
                loop_jump_part(v, mu, nu, XLOGX), rel=1e-10
            )

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    @pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
    def test_xlogx_rejects_nonpositive_ratio(self, d, bad):
        v, mu = oracle_field(d)
        vals = v.values.copy()
        vals.flat[3] = bad
        with np.errstate(all="ignore"), pytest.raises(DomainError):
            dissipation(vals, mu, jump_triplet(oracle_density("box", d)), XLOGX)

    @pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
    def test_no_jumps_accepts_a_field_touching_0(self, d, monkeypatch):
        # the zero law's jump part is +0.0, decided before any transform or
        # base check: a field that x log x refuses on the jump path is taken
        v, mu = oracle_field(d)
        vals = v.values.copy()
        vals.flat[3] = 0.0

        def refused(*args):
            raise AssertionError("a transform for the zero law")

        monkeypatch.setattr(entropy, "_forward", refused)
        with np.errstate(all="ignore"):
            _, jump = dissipation(vals, mu, diffusion_triplet(d), XLOGX)
        assert jump == 0.0 and math.copysign(1.0, jump) == 1.0

    def test_even_density_shift_symmetry(self, cauchy_steady):
        # D(v(x), v(x+z)) integrates to the same value as D(v(x), v(x-z))
        mu = WeightedMeasure.from_field(cauchy_steady.density)
        g = cauchy_steady.density.grid
        v = SpectralField.from_function(
            g, lambda x: 1.0 + 0.4 * np.exp(-((x - 0.7) ** 2))
        )
        tr = stable_triplet(1.0)
        _, jump = dissipation(v, mu, tr, XLOGX)
        flipped = SpectralField(g, values=v.values[::-1].copy())
        mu_f = WeightedMeasure(g, mu.weights[::-1].copy())
        _, jump_f = dissipation(flipped, mu_f, tr, XLOGX)
        assert jump_f == pytest.approx(jump, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_limit_density_domination(self, alpha, grid1):
        # jump dissipation under N_inf is at most (1/alpha) times under N
        steady = build_steady_state(stable_triplet(alpha), grid1)
        mu = WeightedMeasure.from_field(steady.density)
        nu = stable_density(alpha, 1)
        nu_inf = LevyDensity(
            kind="analytic", d=1,
            func=lambda z, n=nu, a=alpha: n(z) / a, is_even=True,
        )
        tr = lambda n: LevyTriplet(  # noqa: E731
            sigma=np.zeros((1, 1)), b=np.zeros(1), nu=n, d=1
        )
        rng = np.random.default_rng(6)
        for _ in range(3):
            c = rng.uniform(-1.5, 1.5)
            v = SpectralField.from_function(
                grid1, lambda x: 1.0 + 0.5 * np.exp(-((x - c) ** 2))
            )
            _, with_n = dissipation(v, mu, tr(nu), QUAD)
            _, with_inf = dissipation(v, mu, tr(nu_inf), QUAD)
            assert with_inf <= with_n / alpha * (1.0 + 1e-9)


class TestJumpKernel:
    """The lattice fold, one profile array, against the per-point loop."""

    @pytest.mark.parametrize("nu, grid", [
        # one-sided: n+ and n- must land in their own slots k and -k mod M
        (LevyDensity(kind="analytic", d=1, func=right_exponential, is_even=False),
         Grid(1, 20.0, 64)),
        (stable_density(1.0, 2), Grid(2, 4.0, 16)),
    ], ids=["d1-one-sided", "d2-stable1"])
    def test_matches_the_per_point_loop(self, nu, grid):
        _jump_kernel.cache_clear()
        W, _ = _jump_kernel(nu, grid, 2)
        want = loop_jump_kernel(nu, grid, 2)
        assert np.max(np.abs(W - want)) <= 1e-14 * np.max(np.abs(want))
        if not nu.is_even:
            assert W[1] > 0.0 and W[-1] < 1e-9 * W[1]

    def test_nan_lattice_value_raises(self):
        # the fold checks the lattice values; unchecked, a NaN reaches the sum
        nu = LevyDensity(kind="analytic", d=1,
                         func=lambda z: np.where(np.abs(z) > 3.0, np.nan, 1.0),
                         is_even=True)
        v, mu = oracle_field(1)
        with pytest.raises(NonFiniteDensity):
            dissipation(v, mu, jump_triplet(nu), XLOGX)


class TestModifiedLsi:
    def test_constant_function(self, gauss_steady):
        mu = WeightedMeasure.from_field(gauss_steady.density)
        g = gauss_steady.density.grid
        v = SpectralField(g, values=np.ones(g.shape))
        law = LevyTriplet(sigma=0.5 * np.eye(1), b=np.zeros(1), nu=None, d=1)
        ent, rhs, ratio = modified_lsi_check(v, mu, law, XLOGX)
        assert ratio == 0.0

    def test_entropy_without_dissipation_fails(self, gauss_steady):
        # no diffusion and no jumps: rhs = 0 < entropy, which no constant bounds
        mu = WeightedMeasure.from_field(gauss_steady.density)
        g = gauss_steady.density.grid
        v = SpectralField.from_function(g, lambda x: np.exp(x / 2.0))
        law = LevyTriplet(sigma=np.zeros((1, 1)), b=np.zeros(1), nu=None, d=1)
        ent, rhs, ratio = modified_lsi_check(v, mu, law, XLOGX)
        assert ent > 0.0 and rhs == 0.0
        assert ratio == math.inf

    def test_gross_inequality_instance(self, gauss_steady):
        # exponential tilt against the standard Gaussian law
        mu = WeightedMeasure.from_field(gauss_steady.density)
        g = gauss_steady.density.grid
        v = SpectralField.from_function(g, lambda x: np.exp(x / 2.0))
        law = LevyTriplet(sigma=0.5 * np.eye(1), b=np.zeros(1), nu=None, d=1)
        ent, rhs, ratio = modified_lsi_check(v, mu, law, XLOGX)
        assert ent > 0
        assert ratio <= 1.0 + 1e-6

    def test_cauchy_law_quadratic(self, cauchy_steady):
        g = cauchy_steady.density.grid
        nu = stable_density(1.0, 1)
        law = LevyTriplet(sigma=np.zeros((1, 1)), b=np.zeros(1), nu=nu, d=1)
        v = SpectralField.from_function(
            g, lambda x: 1.0 + 0.5 * np.exp(-(x**2)) * np.sin(x) ** 2
        )
        mu = WeightedMeasure.from_field(cauchy_steady.density)
        ent, rhs, ratio = modified_lsi_check(v, mu, law, QUAD)
        assert ratio <= 1.0 + 1e-6


class TestEntropyProduction:
    def test_steady_initial_data(self, gauss_steady):
        [rep] = entropy_production_check(
            gauss_steady.density, diffusion_triplet(), QUAD, 0.5, [1e-3],
            gauss_steady,
        )
        assert rep.residual < 1e-10

    def test_gaussian_rate_two(self, gauss_steady, grid1):
        # quadratic entropy of the linear-Gaussian flow decays at rate 2
        u0 = gaussian(grid1, var=1.0, center=0.1)
        [rep] = entropy_production_check(
            u0, diffusion_triplet(), QUAD, 0.5, [1e-3], gauss_steady
        )
        assert rep.passed
        mu = WeightedMeasure.from_field(gauss_steady.density)
        ent = phi_entropy(
            _ratio_field(fp_evolve(u0, diffusion_triplet(), 0.5), gauss_steady),
            mu, QUAD,
        )
        # rate 2 holds to O(shift^2) for a mean-shifted initial Gaussian
        assert rep.finite_difference == pytest.approx(-2.0 * ent, rel=5e-3)

    def test_report_matches_separate_flows(self):
        # criterion 9's heavy-tailed inputs at its fine step; the check
        # reuses its tau = t flow for the dissipation, which must not change
        # a single bit
        g = Grid(1, 160.0, 4096)
        tr = stable_triplet(1.0)
        steady = build_steady_state(tr, g)
        u0 = generate_test_fields(g, 7, "perturbed-steady", steady.density)[0]
        t, dt = 0.5, 1e-3
        [rep] = entropy_production_check(u0, tr, XLOGX, t, [dt], steady)

        mu = WeightedMeasure.from_field(steady.density)
        ents = [
            phi_entropy(_ratio_field(fp_evolve(u0, tr, tau), steady), mu, XLOGX)
            for tau in (t - dt, t + dt)
        ]
        fd = (ents[1] - ents[0]) / (2.0 * dt)
        v_t = SpectralField(g, values=_ratio_field(fp_evolve(u0, tr, t), steady))
        gauss, jump = dissipation(v_t, mu, tr, XLOGX)
        diss = gauss + jump
        residual = abs(fd + diss) / (1.0 + diss)
        scale = max(abs(fd), diss, 1.0)
        assert rep == ProductionReport(
            residual=residual,
            finite_difference=fd,
            gaussian_part=gauss,
            jump_part=jump,
            passed=residual < max(1e-4, 10.0 * dt**2 * scale),
            relative_residual=abs(fd + diss) / diss,
        )

    def test_steps_share_their_flows_and_dissipation(
        self, cauchy_steady, grid1, monkeypatch
    ):
        # t +- dt for two steps and t itself: 5 flows and 1 dissipation, and
        # the reports of separate one-step calls, bit for bit
        tr = stable_triplet(1.0)
        u0 = generate_test_fields(
            grid1, 7, "perturbed-steady", cauchy_steady.density
        )[0]
        singles = [
            entropy_production_check(u0, tr, XLOGX, 0.5, [dt], cauchy_steady)[0]
            for dt in (1e-2, 1e-3)
        ]
        calls = {"fp_evolve": 0, "dissipation": 0}

        def counting(name):
            real = getattr(entropy, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(entropy, name, counting(name))
        reports = entropy_production_check(
            u0, tr, XLOGX, 0.5, (1e-2, 1e-3), cauchy_steady
        )
        assert calls == {"fp_evolve": 5, "dissipation": 1}
        assert reports == singles

    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    def test_relative_residual(self, gauss_steady, grid1, dt):
        # criterion 9's Gaussian inputs
        u0 = generate_test_fields(
            grid1, 7, "perturbed-steady", gauss_steady.density
        )[0]
        [rep] = entropy_production_check(
            u0, diffusion_triplet(), QUAD, 0.5, [dt], gauss_steady
        )
        diss = rep.gaussian_part + rep.jump_part
        assert diss > 0.0
        assert rep.relative_residual == abs(rep.finite_difference + diss) / diss
        assert rep.residual == abs(rep.finite_difference + diss) / (1.0 + diss)

    def test_relative_residual_without_dissipation(
        self, gauss_steady, grid1, monkeypatch
    ):
        monkeypatch.setattr(
            "levylab.entropy.dissipation", lambda *args: (0.0, 0.0)
        )
        u0 = gaussian(grid1, var=1.0, center=0.1)
        [rep] = entropy_production_check(
            u0, diffusion_triplet(), QUAD, 0.5, [1e-3], gauss_steady
        )
        assert rep.finite_difference != 0.0
        assert rep.relative_residual == math.inf


class TestDecayTrack:
    @pytest.mark.parametrize("kind", ["stable1", "diffusion"])
    def test_phi_sweep_matches_one_call_per_phi(self, kind, grid1):
        # one flow for both Phi: the reports equal the per-Phi calls exactly
        tr = stable_triplet(1.0) if kind == "stable1" else diffusion_triplet()
        steady = build_steady_state(tr, grid1)
        u0 = generate_test_fields(grid1, 7, "perturbed-steady", steady.density)[0]
        times = [0.25, 0.5, 1.0, 2.0]
        reports = decay_track(u0, tr, (QUAD, XLOGX), times, 1.0, steady)
        singles = [decay_track(u0, tr, [phi], times, 1.0, steady)[0]
                   for phi in (QUAD, XLOGX)]
        assert len(reports) == 2
        for rep, single in zip(reports, singles):
            assert rep.times == single.times
            assert rep.entropies == single.entropies
            assert rep.fitted_rate == single.fitted_rate
            assert rep.bound_rate == single.bound_rate
            assert rep.violations == single.violations

    def test_one_ratio_field_alive_at_a_time(self, grid1, monkeypatch):
        # the Phi sweep walks the times once: each u/u_inf is released
        # before the next time is evolved, however many times there are
        tr = diffusion_triplet()
        steady = build_steady_state(tr, grid1)
        u0 = generate_test_fields(grid1, 7, "perturbed-steady", steady.density)[0]
        refs, seen = [], []
        real_ratio, real_entropy = entropy._ratio_field, entropy.phi_entropy

        def ratio(*args):
            v = real_ratio(*args)
            refs.append(weakref.ref(v))
            return v

        def entropy_of(v, mu, phi):
            seen.append(sum(r() is not None for r in refs))
            return real_entropy(v, mu, phi)

        monkeypatch.setattr(entropy, "_ratio_field", ratio)
        monkeypatch.setattr(entropy, "phi_entropy", entropy_of)
        decay_track(u0, tr, (QUAD, XLOGX), [0.25, 0.5, 1.0, 2.0], 1.0, steady)
        assert seen == [1] * 10

    def test_steady_initial_data(self, gauss_steady):
        [rep] = decay_track(
            gauss_steady.density, diffusion_triplet(), [QUAD],
            [0.25, 0.5, 1.0], 0.5, gauss_steady,
        )
        assert rep.violations == []
        assert all(e < 1e-12 for e in rep.entropies)

    def test_steady_initial_data_xlogx(self, gauss_steady):
        # Ent(0) = 0 exactly; the x log x entropies of the flowed steady
        # state sit at round-off (~1e-16), which is neither a violation nor
        # a rate
        [rep] = decay_track(
            gauss_steady.density, diffusion_triplet(), [XLOGX],
            [0.25, 0.5, 1.0], 0.5, gauss_steady,
        )
        assert rep.entropies[0] == 0.0
        assert rep.violations == []
        assert math.isnan(rep.fitted_rate)

    def test_gaussian_fitted_rate(self, gauss_steady, grid1):
        u0 = gaussian(grid1, var=1.0, center=0.1)
        [rep] = decay_track(
            u0, diffusion_triplet(), [QUAD], [0.25, 0.5, 1.0, 2.0], 0.5,
            gauss_steady,
        )
        assert rep.violations == []
        assert rep.fitted_rate == pytest.approx(2.0, abs=0.01)

    def test_invalid_constant_flags_violations(self, gauss_steady, grid1):
        # a bound rate far above the true decay rate must be caught
        u0 = gaussian(grid1, var=1.0, center=0.1)
        [rep] = decay_track(
            u0, diffusion_triplet(), [QUAD], [0.25, 0.5, 1.0, 2.0], 0.1,
            gauss_steady,
        )
        assert len(rep.violations) > 0


@pytest.mark.parametrize("weights, message", [
    (np.full(16, 0.05) - np.eye(16)[3] * 0.1, "nonnegative"),
    (np.full(16, 0.2), "mass"),
], ids=["negative-weight", "mass-2"])
def test_refused_input(weights, message):
    # unit mass on Grid(1, 5, 16) is a weight sum of 1 / dx = 1.6
    with pytest.raises(ValueError, match=message):
        WeightedMeasure(Grid(1, 5.0, 16), weights)
