"""Polynomial drift, taming algebra, parameter constraint checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdefem.drift import (DriftPolynomial, TamingParams, classify_params,
                           constraint_thresholds, eval_f, eval_f_tamed,
                           one_sided_constant, taming_factor,
                           taming_inequality_suite, validate_params)
from spdefem.errors import ConstraintError, InvalidArgumentError

CUBIC = DriftPolynomial(q=2, coeffs=(0.0, 1.0, 0.0, -1.0))
PARAMS = TamingParams(alpha=0.25, theta=1.0, rho=2.0, beta1=1.0, beta2=1.0)

odd_poly = st.builds(
    lambda a1, a2, a3: DriftPolynomial(q=2, coeffs=(0.0, a1, a2, -abs(a3) - 0.1)),
    st.floats(-3, 3), st.floats(-2, 2), st.floats(0, 3))
u_vals = st.floats(min_value=-80, max_value=80, allow_nan=False)
steps = st.floats(min_value=1e-6, max_value=1.0)


class TestPolynomial:
    def test_cubic_value(self):
        assert eval_f(CUBIC, 2.0) == -6.0
        assert eval_f(CUBIC, -2.0) == 6.0

    def test_vectorized_matches_scalar(self):
        u = np.linspace(-4, 4, 17)
        assert np.array_equal(eval_f(CUBIC, u), np.array([eval_f(CUBIC, x) for x in u]))

    def test_degree_must_match_q(self):
        with pytest.raises(InvalidArgumentError):
            DriftPolynomial(q=2, coeffs=(1.0, -1.0))       # degree 2q-1 = 3 needed
        with pytest.raises(InvalidArgumentError):
            DriftPolynomial(q=3, coeffs=(0.0, 1.0, 0.0, -1.0))

    def test_leading_coefficient_sign(self):
        with pytest.raises(InvalidArgumentError):
            DriftPolynomial(q=2, coeffs=(0.0, 1.0, 0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coefficients_must_be_finite(self, bad):
        for k in range(4):
            coeffs = list(CUBIC.coeffs)
            coeffs[k] = bad
            with pytest.raises(InvalidArgumentError, match="finite"):
                DriftPolynomial(q=2, coeffs=tuple(coeffs))


class TestTamedEvaluation:
    def test_frozen_value(self):
        got = eval_f_tamed(CUBIC, PARAMS, tau=0.25, h=0.5, u=2.0)
        assert got == pytest.approx(-1.7803435799789448889, rel=1e-15)

    def test_matches_direct_formula(self):
        u = np.linspace(-10, 10, 101)
        pert = 0.25 + 0.5 ** 2
        direct = eval_f(CUBIC, u) / (1 + pert * np.abs(u) ** 8) ** 0.25
        assert np.allclose(eval_f_tamed(CUBIC, PARAMS, 0.25, 0.5, u), direct,
                           rtol=1e-15)

    @given(poly=odd_poly, u=u_vals, tau=steps, h=steps)
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_raw_drift(self, poly, u, tau, h):
        ft = eval_f_tamed(poly, PARAMS, tau, h, u)
        assert abs(ft) <= abs(eval_f(poly, u)) + 1e-12

    @given(poly=odd_poly, u=u_vals, tau=steps, h=steps)
    @settings(max_examples=200, deadline=None)
    def test_sign_preserved(self, poly, u, tau, h):
        f = eval_f(poly, u)
        ft = eval_f_tamed(poly, PARAMS, tau, h, u)
        assert f * ft >= 0

    @given(u=u_vals, tau=steps, h=steps)
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_stepsizes(self, u, tau, h):
        base = abs(eval_f_tamed(CUBIC, PARAMS, tau, h, u))
        assert abs(eval_f_tamed(CUBIC, PARAMS, 2 * tau, h, u)) <= base + 1e-15
        assert abs(eval_f_tamed(CUBIC, PARAMS, tau, 2 * h, u)) <= base + 1e-15

    @given(u=u_vals, tau=steps, h=steps)
    @settings(max_examples=200, deadline=None)
    def test_approximation_bound(self, u, tau, h):
        # |f - f_t| <= pert * |u|^{(2q-2)/alpha} * |f|, constant exactly 1
        f = eval_f(CUBIC, u)
        ft = eval_f_tamed(CUBIC, PARAMS, tau, h, u)
        pert = tau + h * h
        bound = pert * abs(u) ** 8 * abs(f)
        assert abs(f - ft) <= bound * (1 + 1e-12) + 1e-300

    def test_taming_factor_at_least_one(self):
        u = np.linspace(-50, 50, 1001)
        fac = taming_factor(CUBIC, PARAMS, 0.01, 0.01, u)
        assert np.all(fac >= 1.0)

    def test_huge_argument_grows_linearly(self):
        # far out the tamed drift behaves like |u| / pert^alpha, pert = tau + h^2
        big = eval_f_tamed(CUBIC, PARAMS, 0.25, 0.5, 1e6)
        assert abs(big) == pytest.approx(1e6 / 0.5 ** 0.25, rel=1e-3)


class TestConstraint:
    def test_thresholds_q2(self):
        th = constraint_thresholds(2, 1)
        assert th["strict"] == pytest.approx(19 / 24, abs=1e-12)
        assert th["mid"] == pytest.approx(5 / 6, abs=1e-12)
        assert th["loose"] == pytest.approx(11 / 12, abs=1e-12)

    def test_thresholds_q3(self):
        th = constraint_thresholds(3, 1)
        assert th["strict"] == pytest.approx(0.76666666666666666, abs=1e-12)
        assert th["mid"] == pytest.approx(0.78333333333333333, abs=1e-12)
        assert th["loose"] == pytest.approx(0.81666666666666666, abs=1e-12)

    def test_default_parameters_pass(self):
        validate_params(CUBIC, PARAMS)   # must not raise

    def test_violating_exponents_rejected_with_numbers(self):
        bad = TamingParams(alpha=1.0, theta=1.0, rho=2.0, beta1=1.0, beta2=1.0)
        with pytest.raises(ConstraintError) as exc:
            validate_params(CUBIC, bad)
        msg = str(exc.value)
        assert "0.7916666667" in msg
        assert "alpha*theta" in msg

    def test_spatial_exponent_also_constrained(self):
        bad = TamingParams(alpha=0.9, theta=0.1, rho=2.0, beta1=1.0, beta2=1.0)
        # alpha*rho/2 = 0.9 exceeds every threshold
        with pytest.raises(ConstraintError):
            validate_params(CUBIC, bad)

    def test_classification_bands(self):
        assert classify_params(CUBIC, PARAMS)["passes"] == {
            "strict": True, "mid": True, "loose": True}
        mid = TamingParams(alpha=0.8, theta=1.0, rho=2.0, beta1=1.0, beta2=1.0)
        assert classify_params(CUBIC, mid)["passes"] == {
            "strict": False, "mid": True, "loose": True}
        loose = TamingParams(alpha=0.9, theta=1.0, rho=2.0, beta1=1.0, beta2=1.0)
        assert classify_params(CUBIC, loose)["passes"] == {
            "strict": False, "mid": False, "loose": True}

    def test_parameter_ranges(self):
        with pytest.raises(InvalidArgumentError):
            TamingParams(alpha=0.0, theta=1.0, rho=2.0, beta1=1.0, beta2=1.0)
        with pytest.raises(InvalidArgumentError):
            TamingParams(alpha=0.25, theta=1.0, rho=2.0, beta1=-1.0, beta2=1.0)
        for name in ("theta", "rho", "beta1", "beta2"):
            for bad in (math.inf, math.nan):
                with pytest.raises(InvalidArgumentError, match=f"{name} must be finite"):
                    TamingParams(**{**vars(PARAMS), name: bad})


class TestOneSidedConstant:
    def test_cubic_analytic(self):
        assert one_sided_constant(CUBIC) == pytest.approx(1.0, abs=1e-14)

    def test_shifted_cubic(self):
        # f = 2u + u^2 - u^3 has max f' = 2 + 1/3
        poly = DriftPolynomial(q=2, coeffs=(0.0, 2.0, 1.0, -1.0))
        assert one_sided_constant(poly) == pytest.approx(2 + 1 / 3, rel=1e-13)

    def test_quintic_scan(self):
        poly = DriftPolynomial(q=3, coeffs=(0.0, 1.0, 0.0, 0.0, 0.0, -1.0))
        # max of f'(u) = 1 - 5u^4 is 1, at the triple root u = 0 of f''
        assert one_sided_constant(poly) == pytest.approx(1.0, abs=1e-14)

    def test_quintic_supremum_is_exact(self):
        # f'' has one real root, near 0.0497; a 200001-point grid scan
        # misses the peak of f' and reports 0.66474429
        poly = DriftPolynomial(q=3, coeffs=(0.0, 0.63707324, 0.55833996,
                                            -3.77227516, 0.26062975, -0.07544532))
        # 40-digit value from the real root of f'' in extended precision
        assert one_sided_constant(poly) == pytest.approx(
            0.66474434636027849570, rel=1e-13)

    @given(poly=odd_poly)
    @settings(max_examples=60, deadline=None)
    def test_one_sided_inequality_holds(self, poly):
        L_f = one_sided_constant(poly)
        u = np.linspace(-30, 30, 601)
        v = u[::-1]
        lhs = (eval_f(poly, u) - eval_f(poly, v)) * (u - v)
        assert np.all(lhs <= (L_f + 1e-9) * (u - v) ** 2 + 1e-9)


class TestInequalitySuite:
    def test_reference_parameters_all_green(self):
        us = np.arange(-10000, 10001) * 0.01
        rep = taming_inequality_suite(CUBIC, PARAMS, tau=2.0**-4, h=2.0**-4, us=us)
        assert rep.sign_ok
        assert rep.dominated_ok and rep.dominated_margin >= 0
        assert rep.approx_ok and rep.approx_margin >= 0
        assert rep.monotone_tau_ok and rep.monotone_h_ok
        assert rep.growth_constant < 1.5
        assert rep.penalty_margin >= 0

    def test_penalty_constants_reasonable(self):
        us = np.linspace(-20, 20, 2001)
        rep = taming_inequality_suite(CUBIC, PARAMS, tau=2.0**-8, h=2.0**-6, us=us)
        assert rep.penalty_c0 == pytest.approx(1.0)
        assert 0 < rep.penalty_c1 < 100

    def test_growth_constant_shrinks_with_stepsizes(self):
        us = np.linspace(-100, 100, 4001)
        coarse = taming_inequality_suite(CUBIC, PARAMS, 2.0**-2, 2.0**-2, us)
        fine = taming_inequality_suite(CUBIC, PARAMS, 2.0**-10, 2.0**-8, us)
        assert coarse.growth_constant <= fine.growth_constant
