import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcolor.bounds import (
    aberrance_lower_bound,
    exceptional_prob_bound,
    ky_bound,
    minor_constants_check,
    pairs_trips_lower_bound,
    savings_gap_certificate,
    talagrand_median_tail,
    talagrand_tail,
    unact_expectation,
)
from localcolor.procedure import default_rho, keep_constant

RHO = float(default_rho(Fraction(1, 50)))


class TestAberranceBound:
    def test_no_contributors(self):
        assert aberrance_lower_bound(0.4, 1 / 50, 1 / 50, 3, 5, 0, 0) == 0

    def test_lordlier_only(self):
        assert aberrance_lower_bound(1.0, 1.0, 0.0, 0, 4, 2, 0) == pytest.approx(1.0)

    def test_beta_zero_kills_weak_term(self):
        assert aberrance_lower_bound(0.5, 1 / 50, 0.0, 10, 20, 0, 7) == 0

    def test_isolated_vertex(self):
        assert aberrance_lower_bound(0.4, 1 / 50, 1 / 50, 0, 0, 0, 0) == 0.0
        with pytest.raises(ValueError, match="d must be at least 0"):
            aberrance_lower_bound(0.4, 1 / 50, 1 / 50, 0, -1, 0, 0)

    def test_weak_term(self):
        val = aberrance_lower_bound(0.5, 1 / 50, 1 / 50, 10, 20, 0, 5)
        bg = (1 / 50) * 10
        expect = 0.5 * (bg / (20 + bg)) * 5
        assert val == pytest.approx(expect)


class TestPairsTripsBound:
    def test_zero_edges(self):
        assert pairs_trips_lower_bound(0.4, 1 / 50, 5, 0, 0) == 0

    def test_spec_arithmetic(self):
        val = pairs_trips_lower_bound(1.0, 0.0, 10, 10, 10)
        assert val == pytest.approx(1 - math.sqrt(20) / 30, abs=1e-9)

    def test_upper_cap(self):
        k, a, ls, e1, e2 = 0.5, 1 / 50, 12, 9, 30
        assert pairs_trips_lower_bound(k, a, ls, e1, e2) <= k**2 * e2 / ls + 1e-12

    def test_listsize_below_one_is_named(self):
        with pytest.raises(ValueError, match="^listsize must be at least 1$"):
            pairs_trips_lower_bound(0.5, 1 / 50, 0, 1, 1)


class TestCertificate:
    def test_default_constants_hold(self):
        rep = savings_gap_certificate(1 / 50, 1 / 50, 1 / 330, RHO)
        assert rep.holds

    def test_eps_zero_holds(self):
        assert savings_gap_certificate(1 / 50, 1 / 50, 0, RHO).holds

    def test_large_eps_fails(self):
        assert not savings_gap_certificate(1 / 50, 1 / 50, 0.4, RHO).holds

    @pytest.mark.parametrize("rho", [0, 1e-320])
    def test_zero_keep_constant_collapses(self, rho):
        # K = 0 at rho = 0, and a * K underflows to 0 at 1e-320: the first
        # sparsity level is -inf instead of a division by zero
        rep = savings_gap_certificate(1 / 50, 1 / 50, 1 / 330, rho)
        assert rep.context["sparsity"][0] == rep.context["value"][0] == rep.lhs == -math.inf
        assert not rep.holds

    def test_localizes_constant(self):
        # raising eps to 1/250 with other defaults fixed breaks the certificate
        assert not savings_gap_certificate(1 / 50, 1 / 50, 1 / 250, RHO).holds

    def test_high_precision_agreement(self):
        rep = savings_gap_certificate(1 / 50, 1 / 50, 1 / 330, RHO)
        a = mpmath.mpf(1) / 50
        e = mpmath.mpf(1) / 330
        rho = mpmath.mpf(RHO)
        k = mpmath.mpf("0.999") * rho * mpmath.exp(-rho / (1 - e))
        c1 = mpmath.mpf(1) / 4 - e * (4 + a + 2 * a) / (2 * (1 - e))
        c2 = mpmath.mpf(1) / 2 - e * (1 + a) / (2 * (1 - e))
        sp1 = c1 - mpmath.mpf("1.01") * e * (1 + a) / (a * k) * c2
        val1 = k * (k / (1 + a) ** 2 - mpmath.sqrt(2 * sp1) / (3 * (1 - e))) * sp1
        val2 = k * (k / (1 + a) ** 2 - mpmath.sqrt(1) / (3 * (1 - e))) / 2
        assert rep.lhs == pytest.approx(float(min(val1, val2)), rel=1e-12)


class TestTalagrand:
    def test_large_t_vanishes(self):
        rep = talagrand_tail(1e9, 1, 1.0, 100.0, 0.0, 1000.0)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12) and rep.holds

    def test_below_threshold_flagged(self):
        rep = talagrand_tail(1.0, 1, 1.0, 100.0, 0.0, 1000.0)
        assert not rep.holds and rep.lhs > 0

    def test_spec_arithmetic(self):
        rep = talagrand_tail(1200.0, 1, 1.0, 100.0, 0.0, 0.0)
        assert rep.holds
        assert rep.lhs == pytest.approx(4 * math.exp(-(1200**2) / (8 * (400 + 1200))), rel=1e-12)

    def test_median_form(self):
        assert talagrand_median_tail(10.0, 1, 1.0, 0.0, 0.0) == pytest.approx(
            4 * math.exp(-100 / 40), rel=1e-12
        )

    def test_median_vacuous_cases(self):
        assert talagrand_median_tail(0.0, 1, 1.0, 5.0, 0.0) >= 4
        assert talagrand_median_tail(3.0, 1, 1.0, 5.0, 1.0) >= 4

    @pytest.mark.parametrize("p_exc", [-3.0, -1e-12, 1 + 1e-12, 2.0, math.nan])
    def test_p_exc_outside_the_unit_interval_is_named(self, p_exc):
        with pytest.raises(ValueError, match=r"^p_exc must be in \[0, 1\]"):
            talagrand_tail(5.0, 1, 1.0, 1.0, p_exc, 0.0)
        with pytest.raises(ValueError, match=r"^p_exc must be in \[0, 1\]"):
            talagrand_median_tail(5.0, 1, 1.0, 1.0, p_exc)

    def test_p_exc_at_the_ends_is_accepted(self):
        for p_exc in (0.0, 1.0):
            assert talagrand_tail(5.0, 1, 1.0, 1.0, p_exc, 0.0).lhs >= 4 * p_exc
            assert talagrand_median_tail(5.0, 1, 1.0, 1.0, p_exc) >= 4 * p_exc

    def test_negative_sup_x_and_median_are_named(self):
        with pytest.raises(ValueError, match="sup_x must be at least 0"):
            talagrand_tail(5.0, 1, 1.0, 1.0, 0.5, -100.0)
        with pytest.raises(ValueError, match="med must be at least 0"):
            talagrand_median_tail(1.0, 1, 1.0, -2.0, 0.0)

    def test_negative_expectation_is_named(self):
        with pytest.raises(ValueError, match=r"^expect must be at least 0, got -1.0$"):
            talagrand_tail(5.0, 1, 1.0, -1.0, 0.0, 0.0)

    @pytest.mark.parametrize("t, r, chg", [(0.0, 1, 1.0), (5.0, 0, 1.0), (5.0, 1, 0.0)])
    def test_domain_is_named(self, t, r, chg):
        with pytest.raises(ValueError, match=r"^need t > 0, chg > 0, r >= 1$"):
            talagrand_tail(t, r, chg, 1.0, 0.0, 0.0)

    # the median form takes t = 0 (a vacuous bound), not t < 0
    @pytest.mark.parametrize("t, r, chg", [(-1.0, 1, 1.0), (5.0, 0, 1.0), (5.0, 1, 0.0)])
    def test_median_domain_is_named(self, t, r, chg):
        with pytest.raises(ValueError, match=r"^need t >= 0, chg > 0, r >= 1$"):
            talagrand_median_tail(t, r, chg, 1.0, 0.0)


class TestExceptional:
    def test_base_one(self):
        delta = math.exp(math.e)
        assert exceptional_prob_bound(delta, 0, 0) == pytest.approx(delta**4, rel=1e-9)

    def test_core_factor_decreasing_in_delta(self):
        # the (e / ln d)^(ln d) factor decays; the d^4 prefactor only loses
        # to it for astronomically large d, so compare the factor directly
        f3 = exceptional_prob_bound(1e3, 0, 0) / (1e3) ** 4
        f6 = exceptional_prob_bound(1e6, 0, 0) / (1e6) ** 4
        assert f6 < f3

    def test_sigma_near_one_blows_up(self):
        assert exceptional_prob_bound(100, 0.999, 0) > exceptional_prob_bound(100, 0, 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            exceptional_prob_bound(1, 0, 0)

    @pytest.mark.parametrize("sigma, eps", [(1, 0), (-0.1, 0), (0, 1), (0, -0.1)])
    def test_sigma_or_eps_outside_the_unit_interval_is_named(self, sigma, eps):
        with pytest.raises(ValueError, match=r"^sigma and eps must be in \[0, 1\)$"):
            exceptional_prob_bound(100, sigma, eps)


class TestKyBound:
    def test_k4(self):
        assert ky_bound(4, 4) == 6

    def test_k5(self):
        assert ky_bound(5, 5) == 10

    def test_k4_n7(self):
        assert ky_bound(4, 7) == 11

    def test_domain(self):
        with pytest.raises(ValueError):
            ky_bound(3, 5)
        with pytest.raises(ValueError):
            ky_bound(4, 3)

    @given(st.integers(4, 12), st.integers(0, 30))
    @settings(max_examples=50, deadline=None)
    def test_matches_exact_rational_ceiling(self, k, extra):
        n = k + extra
        want = math.ceil(Fraction((k + 1) * (k - 2) * n - k * (k - 3), 2 * (k - 1)))
        assert ky_bound(k, n) == want


class TestMinorConstants:
    def test_default_values(self):
        rep = minor_constants_check(Fraction(499, 1000), Fraction(99982, 100000))
        assert rep.holds
        eps = Fraction(499, 1000) ** 2 / 1350
        assert abs(float(eps) - 1.84446e-4) < 1e-8

    def test_small_alpha_fails(self):
        assert not minor_constants_check(Fraction(1, 10), Fraction(99982, 100000)).holds

    def test_factor_one_always_holds(self):
        assert minor_constants_check(Fraction(499, 1000), Fraction(1)).holds

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(-1, 10), Fraction(1, 2), Fraction(1)])
    def test_alpha_outside_the_open_interval_is_named(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1/2\)$"):
            minor_constants_check(alpha)


class TestUnactExpectation:
    def test_exact(self):
        assert unact_expectation(0.5, 3) == 1.5
        assert unact_expectation(1.0, 10) == 0.0
