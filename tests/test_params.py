import math

import pytest
from hypothesis import given, settings, strategies as st

from resolvent_asym.params import (
    INFINITY,
    ProblemParams,
    alpha,
    c_nq,
    conjugate,
    is_infinity,
    limit_prediction,
    pi_gamma,
)


class TestConjugate:
    @pytest.mark.parametrize("p,expected", [
        (2.0, 2.0),
        (1.5, 3.0),
        (3.0, 1.5),
        (INFINITY, 1.0),
    ])
    def test_values(self, p, expected):
        assert conjugate(p) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 7.0, 100.0])
    def test_involution(self, p):
        assert abs(conjugate(conjugate(p)) - p) <= 2.0 ** -52 * p * p

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.floats(min_value=1.0 + 2e-16, max_value=4e15))
    def test_involution_within_rounding_bound(self, p):
        # the bound of the docstring; about half of all p miss bit equality
        assert abs(conjugate(conjugate(p)) - p) <= 2.0 ** -52 * p * p

    @pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -2.0, math.nan])
    def test_rejects_bad_exponent(self, bad):
        with pytest.raises(ValueError):
            conjugate(bad)


class TestAlpha:
    def test_known_values(self):
        assert alpha(3, 2.0) == pytest.approx(1.0)
        assert alpha(2, 2.0) == pytest.approx(0.0)
        assert alpha(2, 5.0) == pytest.approx(-0.75)

    def test_zero_crossing_at_p_equals_n(self):
        for n in (2, 3, 5):
            assert alpha(n, float(n)) == 0.0

    def test_strictly_decreasing_in_p(self):
        ps = [1.2, 1.5, 2.0, 3.0, 10.0, 200.0]
        vals = [alpha(3, p) for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_always_above_minus_one(self):
        for n in (2, 3, 4, 7):
            for p in (1.01, 1.5, 2.0, 30.0, 1e6):
                assert alpha(n, p) > -1.0

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            alpha(3, INFINITY)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            alpha(1, 2.0)
        with pytest.raises(ValueError):
            alpha(True, 2.0)


class TestCnq:
    def test_closed_values(self):
        assert c_nq(2, 2.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)
        assert c_nq(3, 2.0) == pytest.approx(1.5, rel=1e-13)

    def test_against_direct_gamma_route(self):
        # same formula assembled with math.gamma instead of gammaln
        for n in (2, 3, 4):
            for q in (1.5, 2.0, 3.0, 6.0):
                half = 0.5 * (n + 1)
                direct = (2.0 ** (-half) * math.factorial(n)
                          / ((q - 1.0) ** half * math.gamma(half))) ** (1.0 / (q - 1.0))
                assert c_nq(n, q) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("bad_q", [1.0, 0.5, -1.0, INFINITY, math.nan])
    def test_rejects_bad_q(self, bad_q):
        with pytest.raises(ValueError):
            c_nq(2, bad_q)


class TestPiGamma:
    def test_ball_and_exterior(self):
        # ball of radius 1 touched with R=0.5: (1 - 0.5)^{N-1}
        assert pi_gamma([1.0], 0.5) == pytest.approx(0.5)
        assert pi_gamma([1.0, 1.0], 0.5) == pytest.approx(0.25)
        # exterior of unit ball touched with R=1: (1 + 1)^{N-1}
        assert pi_gamma([-1.0, -1.0], 1.0) == pytest.approx(4.0)

    def test_multiplicative_over_splits(self):
        ks = [0.3, -0.2, 0.05, -1.4]
        r = 0.6
        whole = pi_gamma(ks, r)
        assert whole == pytest.approx(pi_gamma(ks[:2], r) * pi_gamma(ks[2:], r),
                                      rel=1e-14)

    def test_rejects_large_curvature(self):
        with pytest.raises(ValueError):
            pi_gamma([2.0], 0.5)
        with pytest.raises(ValueError):
            pi_gamma([0.1, 2.0001], 0.5)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            pi_gamma([0.0], 0.0)


class TestProblemParams:
    def test_roundtrip_and_derived(self):
        pp = ProblemParams(n=3, p=2.0, eps=0.1)
        assert pp.p_conjugate == pytest.approx(2.0)
        assert pp.alpha == pytest.approx(1.0)
        assert pp.xi == pytest.approx(0.1 / math.sqrt(2.0))
        assert not pp.is_infinity

    def test_infinity_exponent(self):
        pp = ProblemParams(n=2, p=INFINITY, eps=0.05)
        assert pp.is_infinity
        assert pp.p_conjugate == 1.0
        assert pp.xi == pytest.approx(0.05)
        assert is_infinity(pp.p)

    @pytest.mark.parametrize("kwargs", [
        dict(n=1, p=2.0, eps=0.1),
        dict(n=3, p=1.0, eps=0.1),
        dict(n=3, p=2.0, eps=0.0),
        dict(n=3, p=2.0, eps=-1.0),
        dict(n=3, p=2.0, eps=math.inf),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ProblemParams(**kwargs)


class TestLimitConstants:
    def test_benchmark_prediction(self):
        # ball of radius 1 touched with R=0.5 in the plane, p=inf, q=2
        assert pi_gamma([1.0], 0.5) == pytest.approx(0.5)
        expected = math.sqrt(2.0 / math.pi) / math.sqrt(0.5)
        assert limit_prediction(2, INFINITY, 2.0, [1.0], 0.5) == \
            pytest.approx(expected, rel=1e-13)

    def test_finite_p_scaling_factor(self):
        # p=2 vs p=inf differ by (p')^{(N+1)/(4(q-1))}
        n, q = 2, 2.0
        inf_case = limit_prediction(n, INFINITY, q, [1.0], 0.5)
        p2_case = limit_prediction(n, 2.0, q, [1.0], 0.5)
        factor = 2.0 ** ((n + 1) / (4.0 * (q - 1.0)))
        assert inf_case / p2_case == pytest.approx(factor, rel=1e-13)

    def test_q_infinity_is_midrange(self):
        prediction = limit_prediction(3, 2.0, INFINITY, [1.0, 1.0], 0.25)
        assert prediction == 0.5
        assert isinstance(prediction, float)
