import hashlib
import math

import numpy as np
import pytest
from scipy.special import gamma, i0e, k0e, k1e, kve, logsumexp

from resolvent_asym import quadrature
from resolvent_asym.quadrature import (
    FixedRule,
    LogValue,
    NonConvergenceError,
    integrate_sin_weighted,
    integrate_sinh_weighted,
    log_sin_kernel,
    log_sinh_kernel,
    tanh_sinh_log,
    tanh_sinh_sum,
    _nodes,
    _values,
    _level_abscissae,
    _logsumexp,
)
from resolvent_asym.special import (
    MollifierKind,
    bessel_k_identity_residual,
    mollifier_expectation,
    mollifier_tail_mass,
)


def sin_exact_at_zero(alpha: float) -> float:
    # int_0^pi sin^alpha = sqrt(pi) Gamma((a+1)/2) / Gamma(a/2 + 1)
    return math.sqrt(math.pi) * gamma((alpha + 1) / 2) / gamma(alpha / 2 + 1)


class TestLogValue:
    def test_value_and_ratio(self):
        a = LogValue(math.log(8.0))
        b = LogValue(math.log(2.0))
        assert a.value() == pytest.approx(8.0)
        assert a.log_magnitude - b.log_magnitude == pytest.approx(
            math.log(4.0))
        # past the float range the value is inf, not an OverflowError
        assert LogValue(779.0).value() == math.inf
        assert LogValue(-math.inf).value() == 0.0


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
        # a g that vanishes everywhere: every level is log 0 = -inf
        assert integrate_sin_weighted(
            3.0, 1.0, g=np.zeros_like).log_magnitude == -math.inf

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
        # tau = sigma(cosh theta - 1) turns f into sigma^-1 int_0^inf e^-tau
        # (2 tau/sigma + (tau/sigma)^2)^((alpha-1)/2) dtau; 40-digit mpmath
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            s, half = mp.mpf(sigma), (mp.mpf(alpha) - 1) / 2
            subst = mp.quad(
                lambda tau: mp.exp(-tau) * (2 * tau / s + (tau / s) ** 2) ** half,
                [0, s, 1 + s, mp.inf]) / s
            expected = float(mp.log(subst))
        direct = integrate_sinh_weighted(sigma, alpha).log_magnitude
        assert abs(direct - expected) <= 10.0 * quadrature._REL_TOL

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
    def test_doubling_refinements_changes_little(self, engine_constants):
        cases = [(0.5, -0.5), (10.0, 1.0), (200.0, 0.0)]
        engine_constants(1e-10, 8)
        base = [integrate_sinh_weighted(*case) for case in cases]
        engine_constants(1e-10, 16)
        for a, case in zip(base, cases):
            b = integrate_sinh_weighted(*case)
            assert abs(a.log_magnitude - b.log_magnitude) <= 1e-10

    def test_nonconvergence_carries_estimates(self, engine_constants):
        engine_constants(1e-14, 1)
        with pytest.raises(NonConvergenceError) as exc:
            integrate_sin_weighted(5.0, 0.5)
        assert math.isfinite(exc.value.last_estimate)
        assert math.isfinite(exc.value.previous_estimate)
        assert exc.value.last_estimate != exc.value.previous_estimate
        with pytest.raises(NonConvergenceError) as exc:
            tanh_sinh_sum(lambda x, *rest: np.exp(x), 0.0, 3.0)
        assert exc.value.last_estimate != exc.value.previous_estimate


class TestNeverSilentlyWrong:
    """The engine at g = 1 against the closed-form kernels over sigma from
    1e-30 to 1e40 (and 0 for the sine family) and alpha up to 1000: each
    value is within 1e-9 of max(1, |log|) or raises NonConvergenceError,
    and for sigma <= 1e16, alpha <= 39 it answers within 1e-12."""

    ALPHAS = (-0.9, -0.5, 0.0, 0.5, 2.0, 7.5, 39.0, 60.0, 100.0, 1000.0)
    SIGMAS = 10.0 ** np.arange(-30, 41)

    @pytest.mark.parametrize("integrate,kernel,sigmas", [
        (integrate_sin_weighted, log_sin_kernel, np.append(0.0, SIGMAS)),
        (integrate_sinh_weighted, log_sinh_kernel, SIGMAS)],
        ids=["sin", "sinh"])
    def test_grid(self, integrate, kernel, sigmas):
        for alpha in self.ALPHAS:
            for sigma, ref in zip(sigmas, kernel(sigmas, alpha)):
                inside = sigma <= 1e16 and alpha <= 39.0
                try:
                    got = integrate(float(sigma), alpha).log_magnitude
                except NonConvergenceError:
                    assert not inside, (sigma, alpha)
                    continue
                tol = 1e-12 if inside else 1e-9
                assert abs(got - ref) <= tol * max(1.0, abs(ref)), (sigma,
                                                                     alpha)


class TestClosedFormKernels:
    def test_rejects_bad_arguments(self):
        for kernel in (log_sin_kernel, log_sinh_kernel):
            with pytest.raises(ValueError):
                kernel(np.array([1.0, -1.0]), 0.5)
            with pytest.raises(ValueError):
                kernel(1.0, -1.0)
        with pytest.raises(ValueError):
            log_sinh_kernel(0.0, 0.5)

    def test_rejects_non_finite_arguments(self):
        # an infinite sigma or alpha is bad input, not a nan kernel
        for kernel in (log_sin_kernel, log_sinh_kernel):
            with pytest.raises(ValueError,
                               match=r"sigma must be finite and >=? 0"):
                kernel(np.array([1.0, np.inf]), 1.0)
            with pytest.raises(ValueError, match=r"alpha must be finite and "
                                                 r"> -1, got inf"):
                kernel(1.0, math.inf)
        for family in (quadrature.sin_family, quadrature.sinh_family):
            with pytest.raises(ValueError, match=r"alpha must be finite"):
                family(1.0, math.inf)

    @pytest.mark.parametrize("sigma", [1e10, 1e20, 1e40])
    def test_alpha_one_past_scipy_range(self, sigma):
        # scipy's ive/kve are nan here; f = 1/sigma and
        # I = (1 - e^{-2 sigma})/sigma at alpha = 1
        assert log_sinh_kernel(sigma, 1.0) == pytest.approx(
            -math.log(sigma), rel=1e-15)
        assert log_sin_kernel(sigma, 1.0) == pytest.approx(
            math.log(-math.expm1(-2.0 * sigma)) - math.log(sigma), rel=1e-15)
        both = log_sinh_kernel(np.array([1.0, sigma]), 1.0)
        assert both[1] == log_sinh_kernel(sigma, 1.0)


class TestLogSumExp:
    """The local logsumexp gives scipy's bits on the cases its algorithm
    branches on."""

    @pytest.mark.parametrize("a", [
        [],
        [0.3],
        [2.0, -1.0, 2.0, 2.0, 0.5],
        [-np.inf, -np.inf, -np.inf],
        [1.0, np.inf, -3.0],
        list(np.linspace(-700.0, 700.0, 1001)),
        list(np.random.default_rng(5).normal(-40.0, 30.0, 777)),
    ], ids=["empty", "one", "ties", "all-neg-inf", "pos-inf", "spread",
            "normal"])
    def test_bits_match_scipy(self, a):
        a = np.array(a, dtype=float)
        got = _logsumexp(a)
        expected = logsumexp(a)
        assert type(got) is type(expected)
        assert got.tobytes() == expected.tobytes()


class TestFixedLevelRule:
    @staticmethod
    def _rows(args):
        rows = np.column_stack(args)
        return rows[np.lexsort(rows.T[::-1])]

    @pytest.mark.parametrize("level", [0, 3, 7])
    def test_one_call_on_the_nodes_of_levels_0_to_level(self, level):
        calls = []

        def f(*args):
            calls.append([np.array(v) for v in args])
            return np.exp(args[0])

        FixedRule(level, 0.5)(f, -1.0, 2.5)
        assert len(calls) == 1
        seen = []

        def g(*args):
            seen.append([np.array(v) for v in args])
            return np.zeros_like(args[0])

        t_max = quadrature._t_max_for(0.5)
        for k in range(level + 1):
            _values(g, _nodes(_level_abscissae(k, t_max)), -1.0, 2.5)
        levels = [np.concatenate(v) for v in zip(*seen)]
        assert np.array_equal(self._rows(calls[0]), self._rows(levels))

    def test_rejects_negative_level_and_empty_interval(self):
        with pytest.raises(ValueError, match="level"):
            FixedRule(-1)
        with pytest.raises(ValueError, match="empty integration interval"):
            FixedRule(3)(lambda x, *rest: x, 1.0, 1.0)


def _record(fn, *args):
    """repr of a float result (or of a LogValue's log), or the error text."""
    try:
        value = fn(*args)
    except NonConvergenceError as e:
        return f"NonConvergenceError: {e}"
    return repr(float(getattr(value, "log_magnitude", value)))


def _recorded_grid(family: str, engine_constants) -> list:
    """The records of one family, over the default engine constants and
    (rel_tol, max_refinements) = (1e-7, 12)."""
    configs = ((1e-10, 10), (1e-7, 12))
    alphas = (-0.9, -0.3, 0.0, 0.5, 2.0, 7.5)
    out = []
    if family == "sin":
        gs = (None, lambda t: 1.0 + np.cos(t), lambda t: t * t)
        for cfg in configs:
            engine_constants(*cfg)
            for s in (0.0, 1e-3, 0.7, 12.0, 300.0):
                for a in alphas:
                    out += [_record(integrate_sin_weighted, s, a, g)
                            for g in gs]
    elif family == "sinh":
        gs = (None, lambda t: np.cosh(0.3 * t), lambda t: 1.0 / (1.0 + t))
        for cfg in configs:
            engine_constants(*cfg)
            for s in (1e-3, 0.7, 12.0, 300.0):
                for a in alphas:
                    out += [_record(integrate_sinh_weighted, s, a, g, tm)
                            for g in gs for tm in (0.0, 0.25, 50.0)]
                    # recorded as f_exact, which was this quadrature
                    out.append(_record(integrate_sinh_weighted, s, a))
    elif family == "special":
        gs = (np.cos, lambda t: t - 0.5, lambda t: np.exp(-t))
        for cfg in configs:
            engine_constants(*cfg)
            for s in (0.05, 0.7, 12.0, 300.0):
                for a in alphas:
                    out.append(_record(bessel_k_identity_residual, s, a))
                    out.append(_record(mollifier_tail_mass, 0.3, s, a))
                    out += [_record(mollifier_expectation, g, s, a, kind)
                            for kind in MollifierKind for g in gs]
    elif family == "engine":
        fs = (lambda x, *rest: np.exp(x), lambda x, *rest: np.cos(5.0 * x),
              lambda x, da, *rest: da ** -0.5)
        for cfg in configs:
            engine_constants(*cfg)
            for f in fs:
                log_f = lambda *nodes, f=f: np.log(np.abs(f(*nodes)))
                for a, b in ((0.0, 3.0), (-1.0, 2.5)):
                    for beta in (0.1, 0.5, 1.0):
                        out.append(_record(tanh_sinh_sum, f, a, b, beta))
                        out.append(_record(tanh_sinh_log, log_f, a, b, beta))
                        if cfg is configs[0]:
                            out += [_record(FixedRule(level, beta), f, a, b)
                                    for level in range(8)]
    elif family == "errors":
        engine_constants(1e-14, 1)
        for s, a in ((5.0, 0.5), (0.3, -0.7), (40.0, 3.0)):
            out.append(_record(integrate_sin_weighted, s, a))
            out.append(_record(integrate_sinh_weighted, s, a))
            out.append(_record(integrate_sinh_weighted, s, a, None, 0.5))
            out += [_record(mollifier_expectation, np.cos, s, a, kind)
                    for kind in MollifierKind]
        out.append(_record(tanh_sinh_sum, lambda x, *rest: np.exp(x),
                           0.0, 3.0))
        out.append(_record(tanh_sinh_log, lambda x, *rest: x, 0.0, 3.0))
    return out


class TestRecordedOutputs:
    """sha256 digests of 1,277 engine outputs, recorded before the weight
    families and the per-level loop were each written once: every value,
    and every NonConvergenceError text, stays bit-identical."""

    @pytest.mark.parametrize("family,count,expected", [
        ("sin", 180,
         "60b61f021070a3f78005acc0dd8356ff442a16a11432602a8e06a94ff0c20e96"),
        ("sinh", 480,
         "505b9744fcf20d65faa85713f42cab0632493e15b43650bfd305ac6a7ee737de"),
        ("special", 384,
         "1c2df8c77dadcbeaff058102f6bfa57bc5cc68c96353db548529c3ccfceb4d51"),
        ("engine", 216,
         "6ba8f25bff8abc963158105f5e401d420bbd8ff1cfb1fc9030a5f5772a6f9d2a"),
        ("errors", 17,
         "a61464b7b2dcfc7a94f80df7028205940c1dae418490ed23fda7039838b4eaa5"),
    ])
    def test_digest(self, family, count, expected, engine_constants):
        records = _recorded_grid(family, engine_constants)
        assert len(records) == count
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert digest == expected
