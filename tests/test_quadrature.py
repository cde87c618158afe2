import math

import numpy as np
import pytest
from scipy.special import gamma, i0e, k0e, k1e, kve

from resolvent_asym.quadrature import (
    DEFAULT_CONFIG,
    LogValue,
    NonConvergenceError,
    QuadratureConfig,
    integrate_sin_weighted,
    integrate_sinh_weighted,
    integrate_sinh_weighted_substituted,
    log_ratio,
    log_sin_kernel,
    log_sinh_kernel,
    tanh_sinh_sum,
)


def sin_exact_at_zero(alpha: float) -> float:
    # int_0^pi sin^alpha = sqrt(pi) Gamma((a+1)/2) / Gamma(a/2 + 1)
    return math.sqrt(math.pi) * gamma((alpha + 1) / 2) / gamma(alpha / 2 + 1)


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_CONFIG.rel_tol == 1e-10
        assert DEFAULT_CONFIG.max_refinements >= 1

    @pytest.mark.parametrize("kwargs", [
        dict(rel_tol=0.0),
        dict(rel_tol=1.5),
        dict(abs_tol=-1.0),
        dict(max_refinements=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)


class TestLogValue:
    def test_value_and_ratio(self):
        a = LogValue(math.log(8.0))
        b = LogValue(math.log(2.0))
        assert a.value() == pytest.approx(8.0)
        assert log_ratio(a, b) == pytest.approx(math.log(4.0))


class TestSinWeighted:
    def test_spec_examples(self):
        assert integrate_sin_weighted(0.0, 0.0).log_magnitude == pytest.approx(
            math.log(math.pi), abs=1e-12)
        assert integrate_sin_weighted(0.0, 1.0).log_magnitude == pytest.approx(
            math.log(2.0), abs=1e-12)
        val = integrate_sin_weighted(10.0, 1.0).value()
        assert val == pytest.approx((1.0 - math.exp(-20.0)) / 10.0, rel=1e-8)

    @pytest.mark.parametrize("alpha", [-0.75, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
    def test_sigma_zero_closed_form(self, alpha):
        got = integrate_sin_weighted(0.0, alpha).value()
        assert got == pytest.approx(sin_exact_at_zero(alpha), rel=1e-11)

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 7.0, 42.0, 300.0])
    def test_alpha_zero_bessel_oracle(self, sigma):
        got = integrate_sin_weighted(sigma, 0.0).value()
        assert got == pytest.approx(math.pi * i0e(sigma), rel=1e-10)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
    def test_monotone_decreasing_in_sigma(self, alpha):
        sigmas = [0.0, 0.1, 1.0, 10.0, 100.0, 1000.0]
        vals = [integrate_sin_weighted(s, alpha).log_magnitude for s in sigmas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_weight_function_argument(self):
        # g(theta) = sin(theta) shifts alpha by one
        direct = integrate_sin_weighted(3.0, 2.0)
        shifted = integrate_sin_weighted(3.0, 1.0, g=np.sin)
        assert direct.log_magnitude == pytest.approx(shifted.log_magnitude,
                                                     abs=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate_sin_weighted(-1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_sin_weighted(1.0, -1.0)


class TestSinhWeighted:
    def test_alpha_one_family_exact(self):
        # f(sigma, 1) = 1/sigma
        for sigma in (0.1, 1.0, 10.0, 100.0):
            got = integrate_sinh_weighted(sigma, 1.0)
            assert got.log_magnitude == pytest.approx(-math.log(sigma),
                                                      abs=1e-10)

    def test_spec_examples(self):
        assert integrate_sinh_weighted(1.0, 1.0).log_magnitude == pytest.approx(
            0.0, abs=1e-10)
        assert integrate_sinh_weighted(5.0, 1.0).value() == pytest.approx(
            0.2, rel=1e-10)
        got = integrate_sinh_weighted(100.0, 0.0).log_magnitude
        assert got == pytest.approx(math.log(math.sqrt(math.pi / 200.0)),
                                    rel=0.01)

    @pytest.mark.parametrize("sigma", [0.1, 0.7, 3.0, 25.0, 400.0])
    def test_bessel_oracles(self, sigma):
        assert integrate_sinh_weighted(sigma, 0.0).value() == pytest.approx(
            k0e(sigma), rel=1e-10)
        assert integrate_sinh_weighted(sigma, 2.0).value() == pytest.approx(
            k1e(sigma) / sigma, rel=1e-10)
        # alpha = -1/2 via K_{1/4}
        expected = (gamma(0.25) / math.sqrt(math.pi)
                    * (sigma / 2.0) ** 0.25 * kve(0.25, sigma))
        assert integrate_sinh_weighted(sigma, -0.5).value() == pytest.approx(
            expected, rel=1e-9)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.0])
    def test_monotone_decreasing_in_sigma(self, alpha):
        sigmas = [0.05, 0.5, 5.0, 50.0, 500.0]
        vals = [integrate_sinh_weighted(s, alpha).log_magnitude for s in sigmas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0, 100.0])
    def test_substitution_cross_check(self, sigma, alpha):
        direct = integrate_sinh_weighted(sigma, alpha)
        subst = integrate_sinh_weighted_substituted(sigma, alpha)
        assert abs(log_ratio(direct, subst)) <= 10.0 * DEFAULT_CONFIG.rel_tol

    def test_tail_interval(self):
        # int_delta^inf with alpha=1 integrates exactly
        sigma, delta = 2.0, 0.5
        expected = math.exp(-sigma * (math.cosh(delta) - 1.0)) / sigma
        got = integrate_sinh_weighted(sigma, 1.0, theta_min=delta).value()
        assert got == pytest.approx(expected, rel=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate_sinh_weighted(0.0, 1.0)
        with pytest.raises(ValueError):
            integrate_sinh_weighted(1.0, -1.5)


class TestAdaptivity:
    def test_doubling_refinements_changes_little(self):
        base = QuadratureConfig(rel_tol=1e-10, max_refinements=8)
        fine = QuadratureConfig(rel_tol=1e-10, max_refinements=16)
        for sigma, alpha in [(0.5, -0.5), (10.0, 1.0), (200.0, 0.0)]:
            a = integrate_sinh_weighted(sigma, alpha, config=base)
            b = integrate_sinh_weighted(sigma, alpha, config=fine)
            assert abs(log_ratio(a, b)) <= base.rel_tol

    def test_nonconvergence_carries_estimates(self):
        cfg = QuadratureConfig(rel_tol=1e-14, max_refinements=1)
        with pytest.raises(NonConvergenceError) as exc:
            integrate_sin_weighted(5.0, 0.5, config=cfg)
        assert math.isfinite(exc.value.last_estimate)
        assert math.isfinite(exc.value.previous_estimate)
        assert exc.value.last_estimate != exc.value.previous_estimate
        with pytest.raises(NonConvergenceError) as exc:
            tanh_sinh_sum(lambda x, *rest: np.exp(x), 0.0, 3.0, config=cfg)
        assert exc.value.last_estimate != exc.value.previous_estimate


class TestClosedFormKernels:
    def test_rejects_bad_arguments(self):
        for kernel in (log_sin_kernel, log_sinh_kernel):
            with pytest.raises(ValueError):
                kernel(np.array([1.0, -1.0]), 0.5)
            with pytest.raises(ValueError):
                kernel(1.0, -1.0)
        with pytest.raises(ValueError):
            log_sinh_kernel(0.0, 0.5)
