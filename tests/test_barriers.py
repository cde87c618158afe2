import math

import numpy as np
import pytest

from resolvent_asym.barriers import (
    EnhancedBarriers,
    comparison_chain,
    enhanced_U,
    enhanced_V,
    sandwich_check,
    sandwich_table,
)
from resolvent_asym.params import INFINITY, ProblemParams
from resolvent_asym.quadrature import log_sin_kernel, log_sinh_kernel
from resolvent_asym.radial import Geometry


def pp(n=3, p=2.0, eps=0.1):
    return ProblemParams(n=n, p=p, eps=eps)


class TestEnhancedPair:
    def test_U_at_zero_is_one(self):
        b = EnhancedBarriers(pp(), r_i=1.0, r_e=1.0)
        assert enhanced_U(b, 0.0) == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 5.0, INFINITY])
    def test_exp_tau_U_in_unit_interval_decreasing(self, p):
        b = EnhancedBarriers(pp(p=p), r_i=1.0, r_e=1.0)
        taus = np.linspace(0.0, 8.0, 17)
        vals = enhanced_U(b, taus) + taus  # log(e^tau U)
        assert np.all(vals <= 1e-15)
        assert np.all(np.diff(vals) <= 1e-15)

    @pytest.mark.parametrize("p", [1.5, 2.0, 5.0, INFINITY])
    def test_V_nonincreasing_within_branches(self, p):
        b = EnhancedBarriers(pp(p=p, eps=0.25), r_i=1.0, r_e=1.0)
        si = b.sigma_i
        inner = np.linspace(0.0, si * 0.999, 25)
        outer = np.linspace(si * 1.001, 3.0 * si, 25)
        for grid in (inner, outer):
            vals = enhanced_V(b, grid)
            assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 5.0, INFINITY])
    def test_U_below_V_pointwise(self, p):
        b = EnhancedBarriers(pp(p=p, eps=0.3), r_i=0.8, r_e=1.2)
        taus = np.linspace(0.0, 4.0 * b.sigma_i, 60)
        assert np.all(enhanced_U(b, taus) <= enhanced_V(b, taus) + 1e-12)

    def test_V_continuous_at_split_observation(self):
        # not asserted by the formulas, but the sigma_i split makes both
        # branches agree there; record the observation at loose tolerance
        b = EnhancedBarriers(pp(p=2.0, eps=0.3), r_i=1.0, r_e=1.0)
        si = b.sigma_i
        below = enhanced_V(b, si * (1.0 - 1e-9))
        above = enhanced_V(b, si * (1.0 + 1e-9))
        assert below == pytest.approx(above, abs=1e-6)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_U_tends_to_pure_exponential(self, tau):
        devs = []
        for eps in (0.4, 0.1, 0.025):
            b = EnhancedBarriers(pp(p=2.0, eps=eps), r_i=1.0, r_e=1.0)
            devs.append(abs(enhanced_U(b, tau) + tau))
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 0.05

    def test_negative_tau_rejected(self):
        b = EnhancedBarriers(pp(), r_i=1.0, r_e=1.0)
        with pytest.raises(ValueError):
            enhanced_U(b, -0.5)
        with pytest.raises(ValueError):
            enhanced_V(b, -0.5)

    @pytest.mark.parametrize("p", [3.0, INFINITY])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [enhanced_U, enhanced_V])
    def test_non_finite_tau_rejected(self, p, bad, fn):
        b = EnhancedBarriers(pp(p=p), r_i=1.0, r_e=1.0)
        with pytest.raises(ValueError, match=f"got {bad}$"):
            fn(b, np.array([0.5, bad, 1.0]))
        with pytest.raises(ValueError, match="finite and >= 0"):
            fn(b, bad)

    @pytest.mark.parametrize("fn", [enhanced_U, enhanced_V])
    def test_scalar_and_empty_tau(self, fn):
        b = EnhancedBarriers(pp(p=3.0), r_i=1.0, r_e=1.0)
        assert isinstance(fn(b, np.float64(0.5)), float)
        assert fn(b, np.array([0.5]))[0] == fn(b, 0.5)
        assert fn(b, np.array([])).shape == (0,)

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            EnhancedBarriers(pp(), r_i=0.0, r_e=1.0)


class TestSandwich:
    @pytest.mark.parametrize("p", [1.5, 2.0, 5.0, INFINITY])
    @pytest.mark.parametrize("kind", ["ball", "exterior"])
    def test_radial_benchmarks(self, p, kind):
        params = pp(n=3, p=p, eps=0.1)
        if kind == "ball":
            geom = Geometry.ball(1.0)
            grid = np.linspace(0.0, 1.0, 30)
        else:
            geom = Geometry.exterior(1.0)
            grid = np.linspace(1.0, 3.0, 30)
        assert sandwich_check(params, geom, grid) <= 1e-9

    def test_table_rows(self):
        params = pp(n=2, p=2.0, eps=0.2)
        rows = sandwich_table(params, Geometry.ball(1.0),
                              np.linspace(0.0, 1.0, 5))
        assert len(rows) == 5
        for row in rows:
            assert row["log_U"] <= row["log_u"] + 1e-9
            assert row["log_u"] <= row["log_V"] + 1e-9
            assert row["violation"] <= 1e-9


def log_envelopes(params, d_x, d_z, dist_xz):
    """(log e, log E) written out: E = I(0)/I(sqrt(p') d_x/eps) from the
    sin kernel, e = f(sqrt(p') |x-z|/eps)/f(sqrt(p') d_z/eps) from the sinh
    kernel; at p = infinity E = 2/(1 + exp(-2 d_x/eps)) and e = 1."""
    if params.is_infinity:
        return 0.0, math.log(2.0 / (1.0 + math.exp(-2.0 * d_x / params.eps)))
    root, a = math.sqrt(params.p_conjugate), params.alpha
    log_e = (log_sinh_kernel(root * dist_xz / params.eps, a)
             - log_sinh_kernel(root * d_z / params.eps, a))
    log_E = (log_sin_kernel(0.0, a)
             - log_sin_kernel(root * d_x / params.eps, a))
    return log_e, log_E


class TestComparisonChain:
    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 5.0, 10.0, 100.0,
                                   INFINITY])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_ends_are_the_kernel_envelopes(self, p, n):
        # the radial solutions of the inscribed and the witness ball give
        # the envelopes E and e of the kernel ratios
        geom = Geometry.exterior(1.0)
        for eps in (0.15, 1e-2, 1e-3, 1e-4):
            params = pp(n=n, p=p, eps=eps)
            root = math.sqrt(params.p_conjugate)
            for r_x in (1.0, 1.0 + 1e-9, 1.2, 1.8, 3.0, 30.0):
                for r_z in (1e-3, 0.3, 0.6, 0.9, 0.999999):
                    d_x, d_z, dist_xz = r_x - 1.0, 1.0 - r_z, r_x - r_z
                    log_e, log_E = log_envelopes(params, d_x, d_z, dist_xz)
                    lower, _, upper = comparison_chain(params, geom, r_x, r_z)
                    expected = (root * (d_x + d_z - dist_xz) + eps * log_e,
                                eps * log_E)
                    for got, want in zip((lower, upper), expected):
                        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
                    if r_x == 1.0:
                        assert upper == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 5.0, INFINITY])
    def test_chain_holds_with_explicit_witness(self, p):
        params = pp(n=3, p=p, eps=0.15)
        geom = Geometry.exterior(1.0)
        for r_x in (1.0, 1.2, 1.8, 3.0):
            for r_z in (0.3, 0.6, 0.9):
                lower, middle, upper = comparison_chain(params, geom, r_x, r_z)
                assert lower <= middle + 1e-12
                assert middle <= upper + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            comparison_chain(pp(), Geometry.ball(1.0), 0.5, 0.2)
        with pytest.raises(ValueError):
            comparison_chain(pp(), Geometry.exterior(1.0), 1.5, 1.5)
        with pytest.raises(ValueError):
            comparison_chain(pp(), Geometry.exterior(1.0), 0.5, 0.5)
