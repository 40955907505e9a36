"""Levy triplets, densities, and characteristic exponents."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from scipy import special
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab import (
    Grid,
    LevyDensity,
    LevyTriplet,
    characteristic_exponent,
    check_log_tail,
    dual_triplet,
    jump_symbol,
    stable_density,
    triplet_from_config,
)
from levylab import entropy, levy
from levylab.errors import InvalidAlpha, NonFiniteDensity, QuadratureFailure
from levylab.fokker_planck import limit_density
from levylab.levy import _checked, _stable_norm_constant
from levylab.quadrature import integrate_scaled

from conftest import (
    array_taylor_remainder,
    box,
    log_tail_table,
    one_sided_table,
    right_exponential,
    two_call_radial_density,
)


def exp_over_abs(d=1):
    return LevyDensity(
        kind="analytic", d=d, func=lambda z: np.exp(-np.abs(z)) / np.abs(z),
        is_even=True,
    )


class TestValidateDensity:
    """The law's record estimates int_{|z|<=1} |z|^2 N dz and int_{|z|>1} N dz
    as (value, diverged); a negative estimate reads as divergent."""

    def test_stable_constant_closed_form_at_alpha_one(self):
        # the Cauchy densities 1/(pi z^2) in d=1 and 1/(2 pi |z|^3) in d=2
        assert _stable_norm_constant(1, 1.0) == pytest.approx(1 / np.pi, rel=1e-15)
        assert _stable_norm_constant(2, 1.0) == pytest.approx(
            1 / (2 * np.pi), rel=1e-15
        )

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 1.0, 1.5, 1.9, 1.999])
    @pytest.mark.parametrize("d", [1, 2])
    def test_stable_constant_matches_the_special_gamma_formula(self, d, alpha):
        # c(d, alpha) takes Gamma from math; its oracle is scipy.special's
        want = 2.0**alpha * special.gamma(0.5 * (d + alpha)) / (
            np.pi ** (0.5 * d) * abs(special.gamma(-0.5 * alpha)))
        assert _stable_norm_constant(d, alpha) == pytest.approx(want, rel=4e-15, abs=0.0)

    def test_stable_alpha_one(self):
        law = levy._law(stable_density(1.0, 1), 1e-10)
        c = _stable_norm_constant(1, 1.0)
        # closed forms: 2c/(2-alpha) and 2c/alpha for c |z|^{-2}
        (small, small_div), (big, big_div) = law.moment(1.0), law.mass()
        assert not (small_div or big_div)
        assert small == pytest.approx(2.0 * c, rel=1e-12)
        assert big == pytest.approx(2.0 * c, rel=1e-12)

    def test_too_singular_density_flags_small_jumps(self):
        # QUADPACK extrapolates the divergent int 2 r^{-1.5} dr to -4 and
        # reports success: the record reads the negative estimate as divergent,
        # so every reader of the moment refuses the density
        nu = LevyDensity(
            kind="analytic", d=1, func=lambda z: np.abs(z) ** -3.5, is_even=True
        )
        val, div = levy._law(nu, 1e-12).moment(1.0)
        assert val < 0.0 and div
        with pytest.raises(NonFiniteDensity, match="diverges"):
            nu.small_ball_second_moment(1.0)
        with pytest.raises(NonFiniteDensity, match="diverges"):
            levy._law(nu, 1e-10).unit_moment
        with pytest.raises(NonFiniteDensity, match="diverges"):
            jump_symbol(nu, 1.0)
        with pytest.raises(NonFiniteDensity, match="diverges"):
            entropy._jump_kernel(nu, Grid(1, 10.0, 64), 2)

    def test_a_negative_mass_is_divergent(self):
        # a negative estimate of a nonnegative integrand, however it arose
        law = levy._QuadLaw(exp_over_abs(), 1e-10)
        law._integral = lambda f, a, b: (-1e-3, False)
        assert law.moment(1.0) == (-1e-3, True)
        assert law.mass() == (-1e-3, True)

    def test_exponential_density(self):
        law = levy._law(exp_over_abs(), 1e-10)
        (small, small_div), (big, big_div) = law.moment(1.0), law.mass()
        assert not (small_div or big_div)
        # int_0^1 z e^{-z} dz * 2 = 2 (1 - 2/e), and 2 E1(1) past |z| = 1
        assert small == pytest.approx(2.0 * (1.0 - 2.0 / np.e), abs=1e-9)
        assert big == pytest.approx(2.0 * 0.21938393439552029, rel=1e-9)

    def test_nan_density_raises(self):
        nu = LevyDensity(
            kind="analytic", d=1, func=lambda z: np.abs(z) * np.nan, is_even=True
        )
        with pytest.raises(NonFiniteDensity):
            levy._law(nu, 1e-10).moment(1.0)


def opaque_stable(alpha, d):
    """The stable density given as analytic: it takes the quadrature route."""
    return LevyDensity(
        kind="analytic", d=d, func=stable_density(alpha, d).profile, is_even=True
    )


class TestRadialRoute:
    """Radial integrals of N against the stable closed forms.

    The stable radial density is C r^{-1-alpha} with C = |S^{d-1}| c(d, alpha),
    so the small-jump moment is C / (2 - alpha), the big-jump mass C / alpha,
    the log tail C / alpha^2 and the moment over |z| <= eps
    C eps^{2-alpha} / (2 - alpha).  The law's record holds these and a, G and
    N_inf: the closed-form record of the stable kind is the oracle of the
    quadrature record of the same density given as analytic.
    """

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_closed_forms(self, d, alpha):
        surface = {1: 2.0, 2: 2.0 * np.pi}[d]
        C = surface * _stable_norm_constant(d, alpha)
        want = {
            "small": C / (2.0 - alpha),
            "big": C / alpha,
            "log_tail": C / alpha**2,
            "ball": C * 0.05 ** (2.0 - alpha) / (2.0 - alpha),
        }
        for nu in (stable_density(alpha, d), opaque_stable(alpha, d)):
            law = levy._law(nu, 1e-10)
            (small, small_div), (big, big_div) = law.moment(1.0), law.mass()
            assert not (small_div or big_div)
            got = {
                "small": small,
                "big": big,
                "log_tail": check_log_tail(nu).value,
                "ball": nu.small_ball_second_moment(0.05),
            }
            for key in want:
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), (
                    nu.kind, key
                )

        # the record members that depend on k or z, each with its worst
        # error measured over d in {1, 2} and alpha in {0.5, 1, 1.5}:
        # a 2.0e-11, the anchored G at k and k/2 3.6e-12 and their difference
        # 1.4e-13, all relative to max(1, |value|); N_inf 1.6e-14 relative
        exact = levy._law(stable_density(alpha, d), 1e-10)
        quad = levy._law(opaque_stable(alpha, d), 1e-10)
        assert type(exact) is not type(quad)
        k = np.array([0.3, 1.0, 4.0, 10.0] + ([-0.3, -4.0] if d == 1 else []))
        ks = np.stack([k, 0.5 * k])
        z = np.array([0.01, 0.5, 3.0, 100.0])
        z = np.concatenate([z, -z]) if d == 1 else z
        G = quad.antiderivative(ks, anchored=True)
        G_exact = exact.antiderivative(ks, anchored=True)
        pairs = {
            "a": (quad.symbol(k), exact.symbol(k), 1e-10),
            "anchored G": (G, G_exact, 2e-11),
            "G difference": (G[0] - G[1], G_exact[0] - G_exact[1], 1e-12),
        }
        for key, (got, want, tol) in pairs.items():
            assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))), (
                key, got, want)
        np.testing.assert_allclose(quad.tail_average(z), exact.tail_average(z),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("d", [1, 2])
    def test_the_limit_record_matches_quadrature(self, d, alpha):
        # N_inf = N / alpha is the stable record of divisor alpha, in closed
        # form; its oracle is the QUADPACK record of the same profile, given
        # as an analytic density
        nu = stable_density(alpha, d)
        exact = levy._law(limit_density(nu, 1e-10), 1e-10)
        quad = levy._law(LevyDensity(kind="analytic", d=d,
                                     func=levy._law(nu, 1e-10).tail_average), 1e-10)
        assert type(exact) is levy._StableLaw and type(quad) is levy._QuadLaw
        pairs = [(exact.moment(eps), quad.moment(eps)) for eps in (0.05, 1.0)]
        pairs += [(exact.mass(), quad.mass()),
                  ((exact.log_tail.value, exact.log_tail.diverged),
                   (quad.log_tail.value, quad.log_tail.diverged))]
        for (got, got_div), (want, want_div) in pairs:
            assert not (got_div or want_div)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        k = np.array([0.5, 2.0, 7.0])
        np.testing.assert_allclose(exact.symbol(k), quad.symbol(k), rtol=1e-10, atol=0.0)

    def test_the_limit_of_the_limit_divides_by_alpha_squared(self):
        nu = stable_density(1.5, 2)
        twice = limit_density(limit_density(nu, 1e-10), 1e-10)
        assert twice == replace(nu, divisor=1.5 * 1.5)

    @pytest.mark.parametrize("d", [1, 2])
    def test_nan_density_raises_in_log_tail(self, d):
        nu = LevyDensity(kind="analytic", d=d, func=lambda z: np.abs(z) * np.nan,
                         is_even=True)
        with pytest.raises(NonFiniteDensity):
            check_log_tail(nu)

    def test_radial_density_in_1d_sums_both_rays(self):
        nu = LevyDensity(
            kind="analytic", d=1,
            func=lambda z: np.exp(-np.abs(z)) * np.where(z > 0, 1.0, 2.0),
            is_even=False,
        )
        assert nu.radial_density(0.7) == 3.0 * np.exp(-0.7)

    def test_radial_density_in_2d_is_circle_mass(self):
        # N(z) = exp(-|z|^2): rho(r) = 2 pi r exp(-r^2)
        nu = LevyDensity(
            kind="analytic", d=2, func=lambda r: np.exp(-np.square(r)), is_even=True,
        )
        want = 2.0 * np.pi * 0.7 * np.exp(-0.49)
        assert nu.radial_density(0.7) == pytest.approx(want, rel=1e-14)
        r = np.array([0.7, 1.3])
        np.testing.assert_array_equal(
            nu.radial_density(r), [nu.radial_density(0.7), nu.radial_density(1.3)]
        )

    def test_anisotropic_2d_density_is_refused(self):
        # exp(-(4 z1^2 + z2^2 / 4)) |z|^{-2.5} reads the two probe radii as
        # one point; its symbol would silently be that of an isotropic law
        def anisotropic(z):
            z = np.asarray(z, dtype=float)
            q = 4.0 * z[..., 0] ** 2 + z[..., 1] ** 2 / 4.0
            return np.exp(-q) * np.sum(z**2, axis=-1) ** -1.25

        with pytest.raises(ValueError, match="must map an array"):
            LevyDensity(kind="analytic", d=2, func=anisotropic, is_even=True)
        with pytest.raises(ValueError, match="must map an array"):
            LevyDensity(kind="analytic", d=2, func=stable_density(1.0, 2))

    def test_scalar_only_1d_density_is_refused(self):
        with pytest.raises(ValueError, match="must map an array"):
            LevyDensity(kind="analytic", d=1,
                        func=lambda z: 1.0 if abs(z) <= 1.0 else 0.0)

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_array_values_are_checked(self, bad):
        nu = LevyDensity(kind="analytic", d=2,
                         func=lambda r: np.where(r > 1.0, bad, 1.0), is_even=True)
        with pytest.raises(NonFiniteDensity):
            nu.radial_density(np.array([0.5, 2.0]))


def _checked_reference(density, z):
    """The array-reduction check that _checked must agree with."""
    v = density(z)
    arr = np.asarray(v, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise NonFiniteDensity(f"density returned {v!r} at z={z!r}")
    return v


_DENSITY_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]),
)
_DENSITY_VALUES = st.one_of(
    _DENSITY_FLOATS,
    _DENSITY_FLOATS.map(np.float64),
    _DENSITY_FLOATS.map(np.array),
    st.lists(_DENSITY_FLOATS, min_size=1, max_size=5).map(np.array),
)


def even_table(tmp_path):
    """The 400-knot even table e^{-z} z^{-1.5} on [0.01, 30], in d=1."""
    return triplet_from_config({"d": 1, "nu": {
        "kind": "tabulated",
        "table_path": str(log_tail_table(tmp_path / "nu.csv"))}}).nu


class TestEvenProbe:
    """A d=1 func left at is_even=True is probed for N(-z) = N(z)."""

    def test_one_sided_func_at_the_default_is_refused(self):
        with pytest.raises(ValueError, match="is_even"):
            LevyDensity(kind="analytic", d=1, func=right_exponential)
        # its odd part would be lost at the 1e-9 level too
        with pytest.raises(ValueError, match="is_even"):
            LevyDensity(kind="analytic", d=1,
                        func=lambda z: np.exp(-np.abs(z)) * (1.0 + 1e-9 * (z > 0)))
        assert not LevyDensity(kind="analytic", d=1, func=right_exponential,
                               is_even=False).is_even
        # a d=2 func takes radii only, so there is no other side to probe
        assert LevyDensity(kind="analytic", d=2, func=right_exponential).is_even

    def test_tables_and_the_limit_of_a_table_build(self, tmp_path):
        nu = even_table(tmp_path)
        assert nu.is_even and len(nu.knots) == 400
        assert limit_density(nu, 1e-10).is_even
        table = tmp_path / "one_sided.csv"
        table.write_text("z,N\n-1,4\n1,2\n3,1\n")
        assert not triplet_from_config(
            {"d": 1, "nu": {"kind": "tabulated", "table_path": str(table)}}
        ).nu.is_even


class _UnhashableProfile:
    """e^{-|z|}/|z| as a callable with ``__eq__`` and so no ``__hash__``."""

    def __call__(self, z):
        return np.exp(-np.abs(z)) / np.abs(z)

    def __eq__(self, other):
        return isinstance(other, _UnhashableProfile)


def test_an_unhashable_func_is_refused_when_built():
    # it would fail jump_symbol, fp_evolve and build_steady_state later, with
    # a bare TypeError from the record cache
    for d in (1, 2):
        with pytest.raises(ValueError, match="hashable"):
            LevyDensity(kind="analytic", d=d, func=_UnhashableProfile())


def _oracle_densities(tmp_path):
    table = even_table(tmp_path)
    return {
        "stable-analytic": opaque_stable(1.0, 1),
        "stable-analytic-2d": opaque_stable(1.5, 2),
        "exp-over-abs": exp_over_abs(),
        "exp-over-abs-2d": exp_over_abs(2),
        "table": table,
        "limit-of-table": limit_density(table, 1e-10),
    }


class TestOneEvaluationPerNode:
    """An even d=1 density evaluates n once per radius, as 2 n(r); checked
    against both rays evaluated, n+(r) + n-(r), and against the array
    remainder kernel that the scalar one replaced."""

    @pytest.mark.parametrize("name", ["stable-analytic", "stable-analytic-2d",
                                      "exp-over-abs", "exp-over-abs-2d", "table",
                                      "limit-of-table"])
    def test_radial_density_matches_two_calls_bitwise(self, name, tmp_path):
        nu = _oracle_densities(tmp_path)[name]
        r = np.concatenate([np.logspace(-6.0, 1.5, 40), [29.9, 30.0, 40.0]])
        for x in r:
            got, want = nu.radial_density(float(x)), two_call_radial_density(nu, float(x))
            assert got == want and type(got) is type(want), (name, x)
        np.testing.assert_array_equal(nu.radial_density(r),
                                      two_call_radial_density(nu, r))

    @pytest.mark.parametrize("d, consts", [(1, (24.0, 30.0, 56.0)),
                                           (2, (64.0, 36.0, 64.0))])
    def test_remainder_matches_the_array_kernel_bitwise(self, d, consts):
        mean, remainder, _ = levy._SPHERICAL_MEAN[d]
        oracle = array_taylor_remainder(mean, d, *consts)
        edge = [np.nextafter(1e-2, 0.0), 1e-2, np.nextafter(1e-2, 1.0)]
        x = np.concatenate([np.logspace(-4.0, 2.0, 241), edge])
        for v in x.tolist():
            assert remainder(v) == oracle(v), (d, v)

    def test_one_profile_call_per_radius(self, monkeypatch):
        calls = []

        def counting(func):
            def wrapped(z):
                calls.append(z)
                return func(z)
            return wrapped

        even = LevyDensity(kind="analytic", d=1,
                           func=counting(lambda z: np.exp(-np.abs(z)) / np.abs(z)))
        odd = LevyDensity(kind="analytic", d=1, func=counting(right_exponential),
                          is_even=False)
        for nu, want in ((even, 1), (odd, 2)):
            calls.clear()
            nu.radial_density(0.7)
            assert len(calls) == want
        radial_calls = []
        real = LevyDensity.radial_density

        def counting_radial(self, r):
            radial_calls.append(r)
            return real(self, r)

        monkeypatch.setattr(LevyDensity, "radial_density", counting_radial)
        calls.clear()
        jump_symbol(even, 1.3)
        assert len(calls) == len(radial_calls) > 100


class TestCheckedDensity:
    @settings(max_examples=400, deadline=None)
    @given(_DENSITY_VALUES)
    def test_matches_array_reduction(self, value):
        def density(z):
            return value

        try:
            want = _checked_reference(density, 0.5)
        except NonFiniteDensity:
            with pytest.raises(NonFiniteDensity):
                _checked(density, 0.5)
        else:
            assert _checked(density, 0.5) is want


class TestJumpSymbol:
    def test_indicator_density(self):
        nu = LevyDensity(
            kind="analytic", d=1,
            func=box, is_even=True,
        )
        # int_{-1}^{1} (cos(pi z) - 1) dz = 2 sin(pi)/pi - 2
        assert jump_symbol(nu, np.pi) == pytest.approx(-2.0, abs=1e-9)

    def test_zero_frequency(self):
        assert jump_symbol(exp_over_abs(), 0.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 1.9])
    @pytest.mark.parametrize("xi", [0.1, 1.0, 2.0, 10.0])
    def test_stable_quadrature_matches_symbol(self, alpha, xi):
        # analytic wrapper forces the quadrature route
        stable = stable_density(alpha, 1)
        nu = LevyDensity(kind="analytic", d=1, func=stable, is_even=True)
        val = jump_symbol(nu, xi, tol=1e-10)
        assert val == pytest.approx(-abs(xi) ** alpha, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 1.9])
    def test_stable_quadrature_matches_symbol_2d(self, alpha):
        stable = stable_density(alpha, 2)
        nu = LevyDensity(kind="analytic", d=2, func=stable.profile, is_even=True)
        xi = np.array([1.2, -0.7])
        val = jump_symbol(nu, xi, tol=1e-10)
        assert val == pytest.approx(-np.linalg.norm(xi) ** alpha, abs=1e-9)

    def test_oscillatory_tail_escalates(self, monkeypatch):
        # the QAWF cosine tail goes through the shared tolerance policy, so
        # an error estimate far above tol raises instead of being dropped
        real_quad = scipy.integrate.quad

        def inaccurate(*args, **kwargs):
            val, err, *info = real_quad(*args, **kwargs)
            return (val, 1.0 if kwargs.get("weight") == "cos" else err, *info)

        monkeypatch.setattr(scipy.integrate, "quad", inaccurate)
        with pytest.raises(QuadratureFailure):
            jump_symbol(exp_over_abs(), 1.0)

    def test_non_even_symbol_is_conjugate_symmetric(self):
        # a(-xi) = conj a(xi) bitwise: the flow tabulates only xi > 0
        nu = LevyDensity(
            kind="analytic", d=1,
            func=right_exponential, is_even=False,
        )
        for xi in (0.3, 1.7, 2.9):
            assert jump_symbol(nu, -xi) == np.conj(jump_symbol(nu, xi))


class TestQuadrature:
    def test_warned_integrand_is_integrated_once(self, monkeypatch):
        # QUADPACK's warning comes back with the result: the integral is not
        # computed again, and the failure still quotes QUADPACK
        real_quad = scipy.integrate.quad
        calls = []
        monkeypatch.setattr(scipy.integrate, "quad",
                            lambda *a, **k: calls.append(1) or real_quad(*a, **k))
        with pytest.raises(QuadratureFailure) as info:
            integrate_scaled(lambda x: 1.0 / x, (0.0, 1.0), 1e-10)
        assert len(calls) == 1
        assert "maximum number of subdivisions (400)" in str(info.value)
        assert info.value.achieved_error > 1e-10


class TestTabulatedDensity:
    def test_a_table_needs_its_knots(self):
        # the table's record integrates between the knots
        for knots in (None, ()):
            with pytest.raises(ValueError, match="knots"):
                LevyDensity(kind="tabulated", func=box, knots=knots)
        assert LevyDensity(kind="tabulated", func=box, knots=(1.0,)).knots == (1.0,)

    def test_radial_table_uses_euclidean_norm_in_2d(self, tmp_path):
        table = tmp_path / "nu.csv"
        table.write_text("z,N\n1,4\n5,2\n9,1\n")
        tr = triplet_from_config(
            {"d": 2, "nu": {"kind": "tabulated", "table_path": str(table)}}
        )
        assert tr.nu.is_even
        np.testing.assert_array_equal(
            tr.nu(np.array([[3.0, 4.0], [0.0, -1.0], [0.0, 7.0]])), [2.0, 4.0, 1.5]
        )

    def test_non_even_density_in_2d_is_refused(self, tmp_path):
        # a table with z <= 0 is non-even; only d=1 has an odd part
        table = tmp_path / "nu.csv"
        table.write_text("z,N\n-1,4\n1,2\n3,1\n")
        assert not triplet_from_config(
            {"d": 1, "nu": {"kind": "tabulated", "table_path": str(table)}}
        ).nu.is_even
        with pytest.raises(ValueError, match="d=1 only"):
            triplet_from_config(
                {"d": 2, "nu": {"kind": "tabulated", "table_path": str(table)}}
            )
        with pytest.raises(ValueError, match="d=1 only"):
            LevyDensity(kind="analytic", d=2, func=np.ones_like, is_even=False)


class TestCharacteristicExponent:
    def test_laplacian_symbol(self):
        tr = LevyTriplet(sigma=np.eye(1), b=np.zeros(1), nu=None, d=1)
        assert characteristic_exponent(tr, 1.0) == pytest.approx(-1.0)

    def test_stable_symbol_route(self):
        tr = LevyTriplet(
            sigma=np.zeros((1, 1)), b=np.zeros(1), nu=stable_density(1.0, 1), d=1
        )
        assert characteristic_exponent(tr, 2.0) == pytest.approx(-2.0)

    def test_pure_drift(self):
        tr = LevyTriplet(sigma=np.zeros((1, 1)), b=np.ones(1), nu=None, d=1)
        assert characteristic_exponent(tr, 3.0) == pytest.approx(3.0j)

    def test_vanishes_at_zero(self):
        tr = LevyTriplet(
            sigma=np.eye(1), b=np.ones(1), nu=stable_density(0.7, 1), d=1
        )
        assert characteristic_exponent(tr, 0.0) == 0.0

    def test_anisotropic_gaussian_and_drift_2d(self):
        sigma = np.array([[0.7, 0.3], [0.3, 0.4]])
        b = np.array([0.2, -0.5])
        tr = LevyTriplet(sigma=sigma, b=b, nu=None, d=2)
        x0, x1 = 1.3, -0.4
        want = -(sigma[0, 0] * x0**2 + 2.0 * sigma[0, 1] * x0 * x1
                 + sigma[1, 1] * x1**2) + 1j * (b[0] * x0 + b[1] * x1)
        got = characteristic_exponent(tr, [x0, x1])
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_stable_symbol_is_radial(self, d):
        # -|xi|^alpha at one frequency, a number in every dimension
        tr = LevyTriplet(
            sigma=np.zeros((d, d)), b=np.zeros(d), nu=stable_density(1.5, d), d=d
        )
        xi = [0.6, 0.8][:d] if d == 2 else -1.0
        got = characteristic_exponent(tr, xi)
        assert np.shape(got) == ()
        assert got == pytest.approx(-1.0, rel=1e-15)

    @pytest.mark.parametrize("xi", [-3.0, 0.3, 5.0])
    def test_real_part_nonpositive(self, xi):
        tr = LevyTriplet(
            sigma=np.eye(1), b=np.ones(1), nu=stable_density(1.3, 1), d=1
        )
        assert characteristic_exponent(tr, xi).real <= 1e-10


class TestDualTriplet:
    def test_negates_drift(self):
        tr = LevyTriplet(
            sigma=np.eye(2), b=np.array([1.0, 0.0]), nu=stable_density(1.0, 2), d=2
        )
        dual = dual_triplet(tr)
        np.testing.assert_array_equal(dual.b, [-1.0, 0.0])
        np.testing.assert_array_equal(dual.sigma, tr.sigma)

    def test_involution(self):
        tr = LevyTriplet(sigma=2 * np.eye(1), b=np.array([0.7]), nu=None, d=1)
        dd = dual_triplet(dual_triplet(tr))
        np.testing.assert_array_equal(dd.b, tr.b)
        np.testing.assert_array_equal(dd.sigma, tr.sigma)

    def test_conjugate_exponent_for_even_density(self):
        tr = LevyTriplet(
            sigma=np.eye(1), b=np.array([0.4]), nu=stable_density(1.5, 1), d=1
        )
        rng = np.random.default_rng(2)
        for xi in rng.uniform(-5, 5, 5):
            a = characteristic_exponent(tr, xi)
            b = characteristic_exponent(dual_triplet(tr), xi)
            assert b == pytest.approx(np.conj(a), abs=1e-10)

    @pytest.mark.parametrize("name", ["right_exponential", "one-sided table"])
    def test_non_even_density_is_mirrored(self, name, tmp_path):
        if name == "one-sided table":
            nu = triplet_from_config({"d": 1, "nu": {
                "kind": "tabulated",
                "table_path": str(one_sided_table(tmp_path / "nu.csv"))}}).nu
        else:
            nu = LevyDensity(kind="analytic", d=1, func=right_exponential, is_even=False)
        tr = LevyTriplet(sigma=np.eye(1), b=np.array([0.4]), nu=nu, d=1)
        dual = dual_triplet(tr)
        assert dual.nu.kind == nu.kind and not dual.nu.is_even
        np.testing.assert_array_equal(dual.b, -tr.b)
        z = np.array([0.03, 0.5, 2.0, 7.5, 9.0, 12.0])
        z = np.concatenate([z, -z])
        np.testing.assert_array_equal(dual.nu.profile(z), nu.profile(-z))
        for xi in (0.7, 3.0, -2.0):
            assert jump_symbol(dual.nu, xi) == np.conj(jump_symbol(nu, xi))


class TestStableSymbol:
    """The stable psi = -|xi|^alpha is characteristic_exponent's stable case."""

    @pytest.mark.parametrize(
        "alpha,xi,expected",
        [(2.0, (3.0, 4.0), -25.0), (1.0, (3.0, 4.0), -5.0), (0.5, (0.0, 0.0), 0.0)],
    )
    def test_values(self, alpha, xi, expected):
        # alpha = 2 is the Gaussian exponent -|xi|^2 of sigma = I
        gauss = alpha == 2.0
        tr = LevyTriplet(sigma=np.eye(2) * gauss, b=np.zeros(2),
                         nu=None if gauss else stable_density(alpha, 2), d=2)
        assert characteristic_exponent(tr, xi) == pytest.approx(expected)

    def test_homogeneity_index(self):
        tr = LevyTriplet(sigma=np.zeros((1, 1)), b=np.zeros(1),
                         nu=stable_density(1.3, 1), d=1)
        assert characteristic_exponent(tr, 1.4) == pytest.approx(
            2.0**1.3 * characteristic_exponent(tr, 0.7), rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 2.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(InvalidAlpha):
            stable_density(alpha, 1)


class TestSumSymbols:
    def test_pointwise_sum(self):
        # the Gaussian and jump parts add: -|xi|^2 - |xi| at xi = 2
        tr = LevyTriplet(sigma=np.eye(1), b=np.zeros(1),
                         nu=stable_density(1.0, 1), d=1)
        assert characteristic_exponent(tr, 2.0) == pytest.approx(-6.0)


class TestNoJumps:
    """A triplet built with nu = None holds the zero density of its d, whose
    record answers every reader with zeros and builds nothing."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_the_zero_law_record(self, d):
        nu = LevyTriplet(sigma=np.eye(d), b=np.zeros(d), d=d).nu
        assert nu == LevyDensity(kind="zero", d=d) and nu.is_even
        law = levy._law(nu, 1e-10)
        assert type(law) is levy._NoJumps and not law.jumps
        assert law.moment(1.0) == (0.0, False) and law.mass() == (0.0, False)
        assert law.log_tail == levy.LogTailReport(0.0, False)
        assert law.drift.shape == (d,) and not np.any(law.drift)
        assert not law.drift.flags.writeable
        ks = np.array([[0.5, -2.0], [0.0, 3.0]])
        for values in (law.symbol(ks), law.antiderivative(ks, anchored=True),
                       law.tail_average(ks), nu.profile(ks)):
            assert values.dtype == float and values.shape == ks.shape
            assert not np.any(values) and not np.any(np.signbit(values))
        assert law.limit_density() == nu
        assert jump_symbol(nu, 2.0) == 0.0
        assert nu.small_ball_second_moment(0.5) == 0.0

    def test_other_laws_jump(self, tmp_path):
        table = triplet_from_config({"d": 1, "nu": {
            "kind": "tabulated", "table_path": str(one_sided_table(tmp_path / "nu.csv"))}})
        for nu in (stable_density(1.0, 1), exp_over_abs(), table.nu):
            assert levy._law(nu, 1e-10).jumps

    @pytest.mark.parametrize("xi", [0.0, -1.5, 2.0])
    def test_exponent_is_the_gaussian_and_drift_one(self, xi):
        tr = LevyTriplet(sigma=np.array([[0.7]]), b=np.array([0.3]), d=1)
        gauss, drift = levy._gauss_drift_exponent(tr, np.atleast_1d(xi))
        assert characteristic_exponent(tr, xi) == gauss + drift

    def test_dual_keeps_the_zero_density(self):
        tr = LevyTriplet(sigma=np.eye(2), b=np.array([0.5, 1.0]), d=2)
        assert dual_triplet(tr).nu == tr.nu

    def test_a_density_of_another_dimension_is_refused(self):
        with pytest.raises(ValueError, match="dimension"):
            LevyTriplet(sigma=np.eye(2), b=np.zeros(2), nu=LevyDensity("zero", d=1), d=2)


def test_triplet_rejects_indefinite_sigma():
    with pytest.raises(ValueError):
        LevyTriplet(sigma=-np.eye(1), b=np.zeros(1), nu=None, d=1)


class _QuadpackRefused(Exception):
    """Raised in place of a QUADPACK call; a record's own failures are other
    classes, and ``try_integrate`` lets this one through."""


# one call per member that any record has, so that a record's every member
# runs; the QUADPACK record's own (big, unit_moment) are listed too, so that a
# closed-form or table record that held one would run it
_RECORD_CALLS = {
    "moment": lambda law, ks: law.moment(0.5),
    "mass": lambda law, ks: law.mass(),
    "log_tail": lambda law, ks: law.log_tail,
    "drift": lambda law, ks: law.drift,
    "symbol": lambda law, ks: law.symbol(ks),
    "antiderivative": lambda law, ks: (law.antiderivative(ks),
                                       law.antiderivative(ks, anchored=True)),
    "tail_average": lambda law, ks: law.tail_average(ks),
    "limit_density": lambda law, ks: law.limit_density(),
    "jumps": lambda law, ks: law.jumps,
    "big": lambda law, ks: law.big,
    "unit_moment": lambda law, ks: law.unit_moment,
    "_integral": lambda law, ks: law._integral(law.nu.radial_density, 0.5, 2.0),
    "_anchor": lambda law, ks: law._anchor(0.5),
    "_pieces": lambda law, ks: law._pieces(lambda r: r**-2.0, np.array([0.5, 2.0])),
}


@pytest.mark.parametrize("name, d", [("stable", 1), ("stable", 2), ("even table", 1),
                                     ("even table", 2), ("one-sided table", 1),
                                     ("zero", 1), ("zero", 2)])
def test_closed_form_and_table_records_make_no_quadpack_call(name, d, tmp_path,
                                                              monkeypatch):
    # a record reaches only its own way of integrating: with QUADPACK refused,
    # every member of a stable, a table or the zero record runs
    if name == "stable":
        nu = stable_density(1.5 if d == 2 else 1.0, d)
    elif name == "zero":
        nu = LevyTriplet(sigma=np.eye(d), b=np.zeros(d), d=d).nu
    else:
        write = one_sided_table if name == "one-sided table" else log_tail_table
        nu = triplet_from_config({"d": d, "nu": {
            "kind": "tabulated", "table_path": str(write(tmp_path / "nu.csv"))}}).nu

    def refused(*args, **kwargs):
        raise _QuadpackRefused

    monkeypatch.setattr(scipy.integrate, "quad", refused)
    levy._law.cache_clear()
    law = levy._law(nu, 1e-10)
    members = {m for m in dir(type(law)) if not m.startswith("__")}
    assert members <= set(_RECORD_CALLS), members - set(_RECORD_CALLS)
    ks = np.array([-3.0, -0.4, 0.7, 5.0]) if d == 1 else np.array([0.4, 0.7, 3.0, 5.0])
    for member in sorted(members):
        _RECORD_CALLS[member](law, ks)


@pytest.mark.parametrize("call, message", [
    (lambda: LevyTriplet(sigma=np.eye(2), b=np.zeros(1), d=1), "shapes"),
    (lambda: LevyTriplet(sigma=np.eye(1), b=np.zeros(2), d=1), "shapes"),
    (lambda: LevyTriplet(sigma=np.eye(1), b=np.zeros(1), nu=stable_density(1.0, 2),
                         d=1), "dimension"),
    (lambda: LevyDensity(kind="bogus"), "unknown density kind"),
    *[(lambda v=v: LevyDensity(kind="stable", alpha=1.0, divisor=v), "divisor")
      for v in (0.0, -1.0, np.nan, np.inf)],
    (lambda: LevyDensity(kind="zero", divisor=2.0), "divisor"),
    (lambda: replace(exp_over_abs(), divisor=2.0), "divisor"),
], ids=["sigma-shape", "b-shape", "density-dimension", "density-kind", "divisor-zero",
        "divisor-negative", "divisor-nan", "divisor-inf", "divisor-of-zero-kind",
        "divisor-of-analytic-kind"])
def test_refused_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
