import math

import numpy as np
import pytest
from scipy.special import gamma

from resolvent_asym.quadrature import (
    NonConvergenceError,
    integrate_sinh_weighted,
)
from resolvent_asym.special import (
    AsymptoticBranch,
    MollifierKind,
    bessel_k_identity_residual,
    f_asymptotic,
    f_exact,
    mollifier_expectation,
    mollifier_tail_mass,
)


class TestFAsymptoticBranches:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 2.0])
    def test_large_sigma_within_claimed_order(self, alpha):
        sigma = 1e3
        branch = f_asymptotic(sigma, alpha)
        ratio = math.exp(f_exact(sigma, alpha).log_magnitude
                         - branch.leading_value)
        assert abs(ratio - 1.0) <= 10.0 / sigma

    def test_large_sigma_alpha_one_exact_leading(self):
        # f(s,1) = 1/s and the leading term is also exactly 1/s
        branch = f_asymptotic(50.0, 1.0)
        assert branch.leading_value == pytest.approx(-math.log(50.0), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_small_sigma_alpha_positive(self, alpha):
        ratios = []
        for sigma in (1e-3, 1e-4, 1e-5):
            branch = f_asymptotic(sigma, alpha)
            ratios.append(math.exp(f_exact(sigma, alpha).log_magnitude
                                   - branch.leading_value))
        # monotone approach to 1 (correction decays like sigma^min(alpha,1))
        devs = [abs(r - 1.0) for r in ratios]
        assert devs[0] >= devs[1] - 1e-12
        assert devs[1] >= devs[2] - 1e-12
        assert ratios[-1] == pytest.approx(1.0, abs=1e-2)

    def test_small_sigma_alpha_zero_log_divergence(self):
        for sigma in (1e-4, 1e-6):
            branch = f_asymptotic(sigma, 0.0)
            diff = (f_exact(sigma, 0.0).log_magnitude
                    - branch.leading_value)
            # additive O(1) on the log of log(1/sigma): exact value is
            # log(log(1/s) + O(1)), so the raw values differ by O(1/log)
            got = math.exp(f_exact(sigma, 0.0).log_magnitude)
            lead = math.log(1.0 / sigma)
            assert abs(got - lead) < 3.0
            assert abs(diff) < 1.0

    def test_small_sigma_alpha_negative_magnitude_and_flag(self):
        alpha = -0.5
        branch = f_asymptotic(1e-5, alpha)
        assert branch.sign_discrepancy is True
        expected = (gamma(0.25) * gamma(0.25)) / (2.0 * math.sqrt(math.pi))
        assert math.exp(branch.leading_value) == pytest.approx(expected,
                                                               rel=1e-12)
        # the magnitude is the true sigma -> 0 limit of f
        got = math.exp(f_exact(1e-6, alpha).log_magnitude)
        assert got == pytest.approx(expected, rel=5e-3)

    def test_positive_branches_have_no_flag(self):
        assert f_asymptotic(1e3, 0.5).sign_discrepancy is False
        assert f_asymptotic(1e-3, 0.5).sign_discrepancy is False

    @pytest.mark.parametrize("sigma", [0.2, 1.0, 5.0, 9.999])
    def test_gap_rejected(self, sigma):
        with pytest.raises(ValueError):
            f_asymptotic(sigma, 1.0)

    def test_is_dataclass_payload(self):
        b = f_asymptotic(100.0, 1.0)
        assert isinstance(b, AsymptoticBranch)


class TestBesselIdentity:
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, -0.25, 0.0, 0.5, 1.0, 2.0])
    def test_residual_small(self, sigma, alpha):
        assert bessel_k_identity_residual(sigma, alpha) < 1e-6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bessel_k_identity_residual(0.0, 0.5)
        with pytest.raises(ValueError):
            bessel_k_identity_residual(1.0, -1.0)


class TestMollifier:
    @pytest.mark.parametrize("kind", [MollifierKind.NU, MollifierKind.MU])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_cos_expectation_concentrates(self, kind, alpha):
        vals = [mollifier_expectation(np.cos, s, alpha, kind)
                for s in (1e2, 1e3, 1e4, 1e5)]
        for v in vals:
            assert v < 1.0
        # monotone convergence toward g(0) = 1
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert abs(vals[1] - 1.0) < 0.05
        assert abs(vals[-1] - 1.0) < 0.005

    def test_signed_integrand(self):
        # g changing sign on the support is handled in the linear domain
        g = lambda t: np.cos(3.0 * t)
        val = mollifier_expectation(g, 50.0, 1.0, MollifierKind.MU)
        assert -1.0 < val < 1.0

    def test_constant_is_fixed_point(self):
        for kind in MollifierKind:
            val = mollifier_expectation(lambda t: np.ones_like(t), 10.0, 1.0,
                                        kind)
            assert val == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("delta", [0.1, 0.5])
    def test_nu_tail_mass_vanishes(self, delta):
        masses = [mollifier_tail_mass(delta, s, 1.0)
                  for s in (1.0, 10.0, 100.0, 1e4)]
        assert all(a > b for a, b in zip(masses, masses[1:]))
        assert masses[-1] < 1e-8

    @pytest.mark.parametrize("kind", [MollifierKind.NU, MollifierKind.MU])
    def test_strong_endpoint_singularity_fails_without_a_warning(self, kind):
        # alpha = -0.98 (p near 51 at N = 2): the rule needs more doublings
        # than it has, and the infinite endpoint terms it drops by design
        # raise no RuntimeWarning on the way (warnings are errors here)
        with pytest.raises(NonConvergenceError):
            mollifier_expectation(np.cos, 1.0, -0.98, kind)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mollifier_expectation(np.cos, -1.0, 0.0, MollifierKind.MU)
        with pytest.raises(ValueError):
            mollifier_tail_mass(0.0, 1.0, 1.0)


class TestFExactRegularity:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.0])
    def test_log_convexity_in_sigma(self, alpha):
        # midpoint triples: log f((a+b)/2) <= (log f(a) + log f(b))/2
        sigmas = np.geomspace(0.2, 50.0, 9)
        logs = [f_exact(s, alpha).log_magnitude for s in sigmas]
        for i in range(len(sigmas) - 2):
            mid = f_exact(0.5 * (sigmas[i] + sigmas[i + 2]),
                          alpha).log_magnitude
            assert mid <= 0.5 * (logs[i] + logs[i + 2]) + 1e-12

    def test_strictly_decreasing(self):
        sigmas = [0.5, 1.0, 2.0, 4.0, 8.0]
        logs = [f_exact(s, 0.5).log_magnitude for s in sigmas]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_respects_config(self, engine_constants):
        # the closed form reads no engine constant; its quadrature oracle
        # at a looser tolerance stays within that tolerance of it
        b = f_exact(3.0, 0.5).log_magnitude
        engine_constants(1e-6, 12)
        assert f_exact(3.0, 0.5).log_magnitude == b
        a = integrate_sinh_weighted(3.0, 0.5).log_magnitude
        assert a == pytest.approx(b, abs=1e-5)

    @pytest.mark.parametrize("sigma", [1e30, 1e32, 1e36, 1e40])
    def test_alpha_one_past_the_quadrature_range(self, sigma):
        # f(sigma, 1) = 1/sigma; the quadrature fails or is wrong here
        assert f_exact(sigma, 1.0).log_magnitude == pytest.approx(
            -math.log(sigma), rel=1e-15)
