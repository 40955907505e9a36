"""End-to-end acceptance suite: one test per headline criterion.

Each test records a PASS/FAIL line that is printed in the terminal summary
at the end of the run.  Heavy-tailed oracles that need wide boxes state
their grids explicitly; everything else runs at the default desk scale.
"""

import math

import numpy as np
import pytest

from levylab import (
    LevyDensity,
    LevyTriplet,
    PhiFunction,
    SpectralField,
    WeightedMeasure,
    build_steady_state,
    check_domination,
    check_log_tail,
    check_radial_decay,
    decay_track,
    dissipation,
    drift_correction,
    entropy_production_check,
    fp_evolve,
    generate_test_fields,
    heat_evolve,
    limit_levy_density,
    kato_check,
    lsi_constant,
    lsi_gap,
    modified_lsi_check,
    phi_entropy,
    stable_density,
    steady_exponent,
    verify_hypercontractivity,
)
from levylab.entropy import _fd_gradient, _ratio_field
from levylab.spectral import Grid

from conftest import box, gaussian, record_criterion

XLOGX = PhiFunction.xlogx()
QUAD = PhiFunction.quadratic()


def _finish(index, label, ok, detail=""):
    record_criterion(index, label, ok, detail)
    assert ok, f"criterion {index} ({label}): {detail}"


def stable_triplet(alpha, d=1):
    return LevyTriplet(
        sigma=np.zeros((d, d)), b=np.zeros(d), nu=stable_density(alpha, d), d=d
    )


def diffusion_triplet(d=1):
    return LevyTriplet(sigma=np.eye(d), b=np.zeros(d), nu=None, d=d)


@pytest.fixture(scope="module")
def battery(grid1):
    return generate_test_fields(grid1, 7, "gaussians") + generate_test_fields(
        grid1, 7, "bumps"
    )


@pytest.fixture(scope="module")
def gauss_steady(grid1):
    return build_steady_state(diffusion_triplet(), grid1)


def test_criterion_01_semigroup_exactness(coarse_grid):
    worst = 0.0
    f = gaussian(coarse_grid)
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for s in (0.1, 1.0):
            for t in (0.1, 1.0):
                two = heat_evolve(heat_evolve(f, alpha, s), alpha, t)
                one = heat_evolve(f, alpha, s + t)
                worst = max(
                    worst, float(np.max(np.abs(two.coefficients - one.coefficients)))
                )
    _finish(1, "semigroup exactness", worst < 1e-13, f"worst coeff error {worst:.2e}")


def test_criterion_02_gaussian_oracles(grid1):
    heat_err = float(
        np.max(
            np.abs(
                heat_evolve(gaussian(grid1, var=1.0), 2.0, 0.5).values
                - gaussian(grid1, var=2.0).values
            )
        )
    )
    fp_err = float(
        np.max(
            np.abs(
                fp_evolve(gaussian(grid1, var=4.0), diffusion_triplet(),
                          math.log(2.0)).values
                - gaussian(grid1, var=1.75).values
            )
        )
    )
    _finish(
        2, "gaussian heat/flow oracles",
        heat_err < 1e-10 and fp_err < 1e-8,
        f"heat {heat_err:.2e}, flow {fp_err:.2e}",
    )


def test_criterion_03_cauchy_oracle():
    # the Cauchy tail converges like 1/L, so the 1e-6 target needs a wide box
    g = Grid(1, 1000.0, 32768)
    steady = build_steady_state(stable_triplet(1.0), g)
    cauchy = 1.0 / (np.pi * (1.0 + g.x1**2))
    density_err = float(np.max(np.abs(steady.density.values - cauchy)))

    nu = LevyDensity(kind="analytic", d=1, func=stable_density(1.0, 1), is_even=True)
    tr = LevyTriplet(sigma=np.zeros((1, 1)), b=np.zeros(1), nu=nu, d=1)
    exp_err = max(
        abs(steady_exponent(tr, xi) + abs(xi)) for xi in np.linspace(0.1, 10.0, 12)
    )
    _finish(
        3, "cauchy steady state",
        density_err < 1e-6 and exp_err < 1e-9,
        f"density {density_err:.2e}, exponent {exp_err:.2e}",
    )


def test_criterion_04_ultracontractivity(battery):
    const_err = abs(lsi_constant(1, 1.0) - 2.0 / math.pi)
    worst = 0.0
    checked = 0
    for f in battery:
        for alpha in (0.5, 1.0, 1.5, 2.0):
            for p, q in ((2.0, 4.0), (2.0, np.inf), (3.0, 6.0)):
                for t in (0.25, 1.0, 4.0):
                    rep = verify_hypercontractivity(f, alpha, p, q, t)
                    worst = max(worst, rep.ratio)
                    checked += 1
    _finish(
        4, "hypercontractivity sweep",
        worst <= 1.0 + 1e-6 and const_err < 1e-12,
        f"{checked} checks, worst ratio {worst:.6f}, constant err {const_err:.1e}",
    )


def test_criterion_05_euclidean_lsi(battery, grid1):
    ok = True
    for f in battery:
        for alpha in (0.5, 1.0, 1.5, 2.0):
            lhs, rhs = lsi_gap(f, alpha)
            ok = ok and lhs <= rhs + 1e-10 * max(1.0, abs(rhs))
    extremal = SpectralField.from_function(
        grid1, lambda x: np.exp(-(x**2) / 2.0) / (2.0 * np.pi) ** 0.25
    )
    lhs, rhs = lsi_gap(extremal, 2.0)
    gap = rhs - lhs
    _finish(
        5, "euclidean log-Sobolev",
        ok and 0.0 <= gap < 5e-2,
        f"battery holds, extremal gap {gap:.2e}",
    )


def test_criterion_06_kato(battery):
    phis = {
        "square": (lambda v: v * v, lambda v: 2.0 * v),
        "power-3/2": (
            lambda v: np.abs(v) ** 1.5,
            lambda v: 1.5 * np.sign(v) * np.sqrt(np.abs(v)),
        ),
    }
    worst = -np.inf
    ok = True
    for f in battery:
        for alpha in (0.5, 1.0, 1.5):
            for p, dp in phis.values():
                rep = kato_check(f, p, dp, alpha=alpha)
                ok = ok and rep.passed
                worst = max(worst, rep.max_violation / rep.scale)
    _finish(6, "pointwise convexity bound", ok, f"worst violation {worst:.2e}")


def test_criterion_07_stable_identities():
    worst_ratio = 0.0
    worst_exp = 0.0
    worst_ident = 0.0
    ok_drift = True
    for alpha in (0.5, 1.0, 1.5):
        nu = stable_density(alpha, 1)
        rep = check_domination(nu)
        worst_ratio = max(
            worst_ratio, max(abs(r - 1.0 / alpha) for _, r in rep.table)
        )
        for xi in (0.1, 1.0, 4.0, 10.0):
            worst_exp = max(
                worst_exp,
                abs(steady_exponent(stable_triplet(alpha), xi)
                    + abs(xi) ** alpha / alpha),
            )
        decay = check_radial_decay(
            lambda x: limit_levy_density(nu, x), nu,
            points=[0.5, 1.0, 2.0], C=1.0 / alpha,
        )
        worst_ident = max(worst_ident, decay.max_identity_error)
        ok_drift = ok_drift and np.all(drift_correction(nu) == 0.0)
    _finish(
        7, "stable family identities",
        worst_ratio < 1e-6 and worst_exp < 1e-9 and worst_ident < 1e-5 and ok_drift,
        f"ratio {worst_ratio:.2e}, exponent {worst_exp:.2e}, "
        f"divergence {worst_ident:.2e}",
    )


def test_criterion_08_counterexample_density():
    nu = LevyDensity(
        kind="analytic", d=1,
        func=lambda z: np.exp(-np.abs(z)) / np.abs(z), is_even=True,
    )
    dom = check_domination(nu)
    small = [r for z, r in dom.table if z < 1e-3]
    tail = check_log_tail(nu)
    _finish(
        8, "undominated jump density",
        dom.unbounded and max(small) > 10.0 and not tail.diverged,
        f"flagged, small-|z| ratio {max(small):.1f}, log tail {tail.value:.3f}",
    )


def test_criterion_09_entropy_production(gauss_steady, grid1):
    results = {}
    u0 = generate_test_fields(grid1, 7, "perturbed-steady", gauss_steady.density)[0]
    for dt in (1e-2, 1e-3):
        rep = entropy_production_check(
            u0, diffusion_triplet(), QUAD, 0.5, dt, gauss_steady
        )
        results[("gauss", dt)] = rep.residual

    g = Grid(1, 160.0, 4096)
    tr = stable_triplet(1.0)
    steady = build_steady_state(tr, g)
    u0 = generate_test_fields(g, 7, "perturbed-steady", steady.density)[0]
    for dt in (1e-2, 1e-3):
        rep = entropy_production_check(u0, tr, XLOGX, 0.5, dt, steady)
        results[("cauchy", dt)] = rep.residual

    small_ok = all(results[(k, 1e-3)] < 1e-3 for k in ("gauss", "cauchy"))
    # a clean O(dt^2) balance shrinks the residual ~100x per dt decade; the
    # heavy-tailed case sits on a grid-truncation floor instead
    ratio_ok = all(
        results[(k, 1e-2)] / results[(k, 1e-3)] >= 50.0 for k in ("gauss", "cauchy")
    )
    detail = ", ".join(
        f"{k} dt={dt:g}: {v:.2e}" for (k, dt), v in sorted(results.items())
    )
    _finish(9, "entropy production identity", small_ok and ratio_ok, detail)


def test_criterion_10_exponential_decay(gauss_steady, grid1):
    u0 = gaussian(grid1, var=1.0, center=0.1)
    rep = decay_track(
        u0, diffusion_triplet(), QUAD, [0.25, 0.5, 1.0, 2.0], 0.5, gauss_steady
    )
    rate_ok = abs(rep.fitted_rate - 2.0) < 0.01 and not rep.violations

    g = Grid(1, 640.0, 8192)
    tr = stable_triplet(1.0)
    steady = build_steady_state(tr, g)
    u0 = generate_test_fields(g, 7, "perturbed-steady", steady.density)[0]
    stable_ok = True
    control_ok = False
    for phi in (QUAD, XLOGX):
        track = decay_track(u0, tr, phi, [0.25, 0.5, 1.0, 2.0], 1.0, steady)
        monotone = all(
            b <= a * (1.0 + 1e-8) for a, b in zip(track.entropies, track.entropies[1:])
        )
        stable_ok = stable_ok and not track.violations and monotone
        # negative control: the same trajectory violates a rate-10 bound
        ent0 = track.entropies[0]
        control_ok = control_ok or any(
            e > math.exp(-t / 0.1) * ent0 * (1.0 + 1e-6)
            for t, e in zip(track.times[1:], track.entropies[1:])
        )
    _finish(
        10, "exponential entropy decay",
        rate_ok and stable_ok and control_ok,
        f"gaussian rate {rep.fitted_rate:.4f}, stable bound holds, "
        f"invalid constant caught",
    )


def test_criterion_11_modified_lsi(gauss_steady, grid1):
    rng = np.random.default_rng(11)
    fields = []
    for _ in range(8):
        c = float(rng.uniform(-2.0, 2.0))
        w = float(rng.uniform(0.8, 2.0))
        amp = float(rng.uniform(0.2, 0.8))
        fields.append(
            SpectralField.from_function(
                grid1, lambda x, c=c, w=w, a=amp: 1.0 + a * np.exp(
                    -((x - c) ** 2) / (2.0 * w**2)
                )
            )
        )

    cauchy_steady = build_steady_state(stable_triplet(1.0), grid1)
    gauss_law = LevyTriplet(sigma=0.5 * np.eye(1), b=np.zeros(1), nu=None, d=1)
    cauchy_law = LevyTriplet(
        sigma=np.zeros((1, 1)), b=np.zeros(1), nu=stable_density(1.0, 1), d=1
    )
    worst = 0.0
    for mu_state, law in ((gauss_steady, gauss_law), (cauchy_steady, cauchy_law)):
        mu = WeightedMeasure.from_field(mu_state.density)
        for phi in (XLOGX, QUAD):
            for v in fields:
                _, _, ratio = modified_lsi_check(v, mu, law, phi)
                worst = max(worst, ratio)

    dom_ok = True
    for alpha in (1.0, 1.5):
        steady = build_steady_state(stable_triplet(alpha), grid1)
        mu = WeightedMeasure.from_field(steady.density)
        nu = stable_density(alpha, 1)
        nu_inf = LevyDensity(
            kind="analytic", d=1, func=lambda z, n=nu, a=alpha: n(z) / a,
            is_even=True,
        )
        for v in fields[:4]:
            _, with_n = dissipation(
                v, mu, LevyTriplet(np.zeros((1, 1)), np.zeros(1), nu, 1), QUAD
            )
            _, with_inf = dissipation(
                v, mu, LevyTriplet(np.zeros((1, 1)), np.zeros(1), nu_inf, 1), QUAD
            )
            dom_ok = dom_ok and with_inf <= with_n / alpha * (1.0 + 1e-9) + 1e-14
    _finish(
        11, "modified log-Sobolev",
        worst <= 1.0 + 1e-6 and dom_ok,
        f"worst ratio {worst:.4f}, domination step holds",
    )


def test_criterion_12_brute_force_equivalence():
    g = Grid(1, 20.0, 64)
    nu = LevyDensity(
        kind="analytic", d=1,
        func=box, is_even=True,
    )
    tr = LevyTriplet(sigma=np.zeros((1, 1)), b=np.zeros(1), nu=nu, d=1)
    mu = WeightedMeasure(g, np.full(g.shape, 1.0 / (2.0 * g.L)))
    v = SpectralField(g, values=1.5 + np.sin(np.pi * g.x1 / g.L))
    _, jump = dissipation(v, mu, tr, QUAD)

    vals = v.values
    ref = 0.0
    for k in range(-g.M, g.M + 1):
        if k == 0:
            continue
        nz = nu(k * g.dx)
        if nz == 0.0:
            continue
        for j in range(g.M):
            diff = vals[j] - vals[(j + k) % g.M]
            ref += nz * 0.5 * diff * diff * mu.weights[j] * g.dx * g.dx
    grad = _fd_gradient(vals, g)[0]
    m2 = nu.small_ball_second_moment(0.5 * g.dx)
    ref += 0.5 * m2 * float(np.sum(grad**2 * mu.weights) * g.dx)
    err = abs(jump - ref)
    _finish(12, "brute-force jump dissipation", err < 1e-6, f"difference {err:.2e}")
