import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import i0e, k0e

from resolvent_asym.geometry import BallDomain, ExteriorBallDomain
from resolvent_asym.params import INFINITY, ProblemParams
from resolvent_asym.radial import (
    Geometry,
    GeometryKind,
    RadialSolution,
    eval_log_u,
    ode_residual,
    varadhan_residual,
)

BENCH_PS = [1.5, 2.0, 3.0, 5.0, INFINITY]


def make(n, p, eps, kind, R=1.0):
    geom = Geometry.ball(R) if kind == "ball" else Geometry.exterior(R)
    return RadialSolution(ProblemParams(n=n, p=p, eps=eps), geom)


class TestSpecExamples:
    def test_ball_infinity_center(self):
        sol = make(2, INFINITY, 0.1, "ball")
        expected = -(10.0 + math.log1p(math.exp(-20.0)) - math.log(2.0))
        assert eval_log_u(sol, 0.0) == pytest.approx(expected, abs=1e-12)
        assert eval_log_u(sol, 0.0) == pytest.approx(-9.30685, abs=1e-5)

    def test_exterior_infinity_exact_exponential(self):
        sol = make(3, INFINITY, 0.1, "exterior")
        assert eval_log_u(sol, 1.2) == pytest.approx(-2.0, abs=1e-14)


class TestClosedFormOracles:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
    def test_ball_p2_n3_sinh_ratio(self, eps):
        sol = make(3, 2.0, eps, "ball")
        root = math.sqrt(2.0)
        for r in (0.05, 0.3, 0.7, 0.95):
            # (R/r) sinh(sqrt2 r/eps)/sinh(sqrt2 R/eps), written in logs
            expected = (math.log(1.0 / r)
                        + (root * r / eps + math.log1p(-math.exp(-2 * root * r / eps)))
                        - (root / eps + math.log1p(-math.exp(-2 * root / eps))))
            assert eval_log_u(sol, r) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
    def test_exterior_p2_n3_exponential(self, eps):
        sol = make(3, 2.0, eps, "exterior")
        root = math.sqrt(2.0)
        for r in (1.01, 1.5, 2.5, 5.0):
            expected = math.log(1.0 / r) - root * (r - 1.0) / eps
            assert eval_log_u(sol, r) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.3, 0.08])
    def test_ball_p2_n2_bessel_i(self, eps):
        sol = make(2, 2.0, eps, "ball")
        root = math.sqrt(2.0)
        for r in (0.1, 0.5, 0.9):
            sr, sR = root * r / eps, root / eps
            expected = sr - sR + math.log(i0e(sr)) - math.log(i0e(sR))
            assert eval_log_u(sol, r) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.3, 0.08])
    def test_exterior_p2_n2_bessel_k(self, eps):
        sol = make(2, 2.0, eps, "exterior")
        root = math.sqrt(2.0)
        for r in (1.05, 1.4, 2.0):
            sr, sR = root * r / eps, root / eps
            expected = -(sr - sR) + math.log(k0e(sr)) - math.log(k0e(sR))
            assert eval_log_u(sol, r) == pytest.approx(expected, abs=1e-9)


class TestStructuralProperties:
    @pytest.mark.parametrize("p", BENCH_PS)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["ball", "exterior"])
    def test_boundary_value_exact_and_bounds(self, n, p, kind):
        sol = make(n, p, 0.15, kind)
        assert eval_log_u(sol, 1.0) == 0.0
        grid = (np.linspace(0.0, 1.0, 21) if kind == "ball"
                else np.linspace(1.0, 3.0, 21))
        logs = eval_log_u(sol, grid)
        assert np.all(logs <= 1e-15)
        assert np.all(np.isfinite(logs))

    @pytest.mark.parametrize("p", BENCH_PS)
    def test_monotone_in_radius(self, p):
        ball = make(3, p, 0.1, "ball")
        grid = np.linspace(0.0, 1.0, 30)
        logs = eval_log_u(ball, grid)
        assert np.all(np.diff(logs) > 0)
        ext = make(3, p, 0.1, "exterior")
        grid = np.linspace(1.0, 4.0, 30)
        logs = eval_log_u(ext, grid)
        assert np.all(np.diff(logs) < 0)

    @pytest.mark.parametrize("p", BENCH_PS)
    @pytest.mark.parametrize("kind", ["ball", "exterior"])
    def test_monotone_in_eps(self, p, kind):
        r = 0.4 if kind == "ball" else 1.7
        logs = [eval_log_u(make(2, p, eps, kind), r)
                for eps in (0.4, 0.2, 0.1, 0.05)]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=st.sampled_from(BENCH_PS), kind=st.sampled_from(["ball",
                                                             "exterior"]),
           t=st.floats(0.0, 1.0), s=st.floats(0.1, 10.0))
    def test_scaling_invariance(self, p, kind, t, s):
        # u depends on (r/eps, R/eps) only, so scaling r, R and eps by s
        # moves log u by rounding alone
        lo, hi = (0.05, 0.95) if kind == "ball" else (1.05, 2.5)
        r = lo + t * (hi - lo)
        scaled = make(3, p, 0.12 * s, kind, R=s)
        assert abs(eval_log_u(make(3, p, 0.12, kind), r)
                   - eval_log_u(scaled, r * s)) < 1e-9

    def test_rejects_radius_outside_domain(self):
        with pytest.raises(ValueError):
            eval_log_u(make(2, 2.0, 0.1, "ball"), 1.2)
        with pytest.raises(ValueError):
            eval_log_u(make(2, 2.0, 0.1, "exterior"), 0.8)

    @pytest.mark.parametrize("p", [2.0, INFINITY])
    @pytest.mark.parametrize("kind", ["ball", "exterior"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_radius_naming_it(self, p, kind, bad):
        # the error names the radius: not a NaN result, not a sigma error
        sol = make(2, p, 0.1, kind)
        good = 0.5 if kind == "ball" else 1.5
        with pytest.raises(ValueError, match=f"radius must be finite, got "
                                             f"{bad}"):
            eval_log_u(sol, np.array([good, bad, good]))
        with pytest.raises(ValueError, match="radius must be finite"):
            eval_log_u(sol, bad)


class TestOdeResidual:
    @pytest.mark.parametrize("p", BENCH_PS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_ball_interior(self, n, p):
        sol = make(n, p, 0.1, "ball")
        for r in np.linspace(0.15, 0.85, 10):
            assert ode_residual(sol, float(r)) < 1e-3

    @pytest.mark.parametrize("p", BENCH_PS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_exterior_interior(self, n, p):
        sol = make(n, p, 0.1, "exterior")
        for r in np.linspace(1.15, 2.5, 10):
            assert ode_residual(sol, float(r)) < 1e-3

    def test_rejects_stencil_outside_domain(self):
        sol = make(3, 2.0, 0.1, "ball")
        with pytest.raises(ValueError):
            ode_residual(sol, 0.9995)


class TestVaradhanResidual:
    @pytest.mark.parametrize("p", BENCH_PS)
    def test_ball_nonnegative(self, p):
        sol = make(3, p, 0.1, "ball")
        res = varadhan_residual(sol, np.linspace(0.0, 1.0, 40))
        assert np.all(res >= -1e-12)

    @pytest.mark.parametrize("p", BENCH_PS)
    def test_exterior_nonpositive(self, p):
        sol = make(3, p, 0.1, "exterior")
        res = varadhan_residual(sol, np.linspace(1.0, 4.0, 40))
        assert np.all(res <= 1e-12)

    def test_exterior_infinity_identically_zero(self):
        sol = make(2, INFINITY, 0.07, "exterior")
        res = varadhan_residual(sol, np.linspace(1.0, 6.0, 100))
        assert np.max(np.abs(res)) < 1e-12

    @pytest.mark.parametrize("p", [2.0, INFINITY])
    def test_rate_bounded_over_eps(self, p):
        # residual at the center stays within a factor 2 of the median rate
        ratios = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            sol = make(3, p, eps, "ball")
            res = varadhan_residual(sol, 0.0)
            model = eps if p == INFINITY else eps * math.log(1.0 / eps)
            ratios.append(res / model)
        med = sorted(ratios)[len(ratios) // 2]
        assert all(0.5 * med <= r <= 2.0 * med for r in ratios)

    @pytest.mark.parametrize("p", [2.0, INFINITY])
    def test_center_residual_decreases_with_eps(self, p):
        vals = [varadhan_residual(make(3, p, eps, "ball"), 0.0)
                for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ball_infinity_residual_closed_form(self):
        # at r=0: eps log 2 - eps log(1 + e^{-2R/eps})
        eps = 0.05
        sol = make(2, INFINITY, eps, "ball")
        expected = eps * math.log(2.0) - eps * math.log1p(math.exp(-2.0 / eps))
        assert varadhan_residual(sol, 0.0) == pytest.approx(expected, rel=1e-12)


class TestGeometryType:
    def test_constructors(self):
        g = Geometry.ball(2.0)
        assert g.kind is GeometryKind.BALL and g.R == 2.0
        g = Geometry.exterior(0.5)
        assert g.kind is GeometryKind.EXTERIOR

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            Geometry.ball(bad)

    def test_one_type_with_the_domains(self):
        assert Geometry.ball(1.0) == BallDomain(1.0)
        assert Geometry.exterior(1.0) == ExteriorBallDomain(1.0)
        assert Geometry.ball(1.0) != Geometry.exterior(1.0)
        # the benchmark labels its operations by these values
        assert Geometry.ball(1.0).kind.value == "BALL"
        assert Geometry.exterior(1.0).kind.value == "EXTERIOR"
        with pytest.raises(TypeError, match="BallDomain or ExteriorBallDomain"):
            Geometry(1.0)

    @pytest.mark.parametrize("domain", [BallDomain, ExteriorBallDomain])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_validation(self, domain, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            domain(bad)

    def test_distance_and_radius_are_inverse(self):
        ball, ext = Geometry.ball(2.0), Geometry.exterior(2.0)
        r = np.array([0.0, 0.5, 1.25, 2.0])
        assert np.array_equal(ball.distance(r), [2.0, 1.5, 0.75, 0.0])
        assert np.array_equal(ball.radius(ball.distance(r)), r)
        r = np.array([2.0, 2.5, 3.25, 10.0])
        assert np.array_equal(ext.distance(r), [0.0, 0.5, 1.25, 8.0])
        assert np.array_equal(ext.radius(ext.distance(r)), r)
        # past the center a ball's radius stays at 0
        assert np.array_equal(ball.radius(np.array([2.0, 7.0])), [0.0, 0.0])


class TestBatchIndependence:
    """eval_log_u on an array equals its scalar calls element by element:
    the boundary kernel is the solution's own, and no radius changes the
    digits of another."""

    @staticmethod
    def assert_elementwise(sol, radii):
        batch = eval_log_u(sol, radii)
        scalars = np.array([eval_log_u(sol, float(r)) for r in radii])
        assert np.array_equal(batch, scalars)

    @staticmethod
    def radii(kind):
        if kind == "ball":
            return np.concatenate(([0.0, 1e-9], np.linspace(0.01, 1.0, 40)))
        return np.concatenate((np.linspace(1.0, 3.0, 40), [7.5, 40.0]))

    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 10.0, INFINITY])
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["ball", "exterior"])
    def test_p_and_n_grid(self, n, p, kind):
        self.assert_elementwise(make(n, p, 0.05, kind), self.radii(kind))

    @pytest.mark.parametrize("n,kind", [(2, "ball"), (2, "exterior"),
                                        (3, "exterior")])
    @pytest.mark.parametrize("p", [1.5, 2.0, INFINITY])
    @pytest.mark.parametrize("eps", [0.05, 0.02])
    def test_recorded_coarea_grid(self, n, kind, p, eps):
        # the solutions of test_qmeans.TestRecordedCoarea
        self.assert_elementwise(make(n, p, eps, kind), self.radii(kind))

    @pytest.mark.parametrize("p", [1.05, 2.0, 10.0])
    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("kind", ["ball", "exterior"])
    def test_past_scipy_range(self, n, p, kind):
        # sigma = sqrt(p') r / eps > 1e9: scipy's scaled Bessel values are
        # nan there and Debye's expansion answers each entry on its own
        sol = make(n, p, 1e-10, kind)
        radii = (np.linspace(0.2, 1.0, 17) if kind == "ball"
                 else np.linspace(1.0, 3.0, 17))
        self.assert_elementwise(sol, radii)


class TestBoundaryKernelOnce:
    """The boundary kernel is evaluated when the solution is built, never
    again by eval_log_u."""

    @pytest.mark.parametrize("p", [1.5, 2.0, INFINITY])
    @pytest.mark.parametrize("kind", ["ball", "exterior"])
    def test_one_per_solution(self, monkeypatch, p, kind):
        from resolvent_asym import radial

        calls = []
        for name in ("log_sin_kernel", "log_sinh_kernel", "_log_cosh"):
            def counting(sigma, *args, real=getattr(radial, name)):
                calls.append(np.shape(sigma))
                return real(sigma, *args)

            monkeypatch.setattr(radial, name, counting)
        sol = make(3, p, 0.05, kind)
        expected = [] if (p == INFINITY and kind == "exterior") else [()]
        assert calls == expected
        radii = (np.linspace(0.1, 1.0, 5) if kind == "ball"
                 else np.linspace(1.0, 2.0, 5))
        for _ in range(3):
            eval_log_u(sol, radii)
        # one array call per evaluation, over the radii alone
        per_call = [] if (p == INFINITY and kind == "exterior") else [(5,)]
        assert calls == expected + 3 * per_call
