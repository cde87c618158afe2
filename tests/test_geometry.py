import hashlib
import math
import warnings

import numpy as np
import pytest

from resolvent_asym import geometry
from resolvent_asym.qmeans import QMeanQuery, q_mean
from resolvent_asym.quadrature import FixedRule
from resolvent_asym.geometry import (
    BallDomain,
    EllipseDomain,
    ExteriorBallDomain,
    ImplicitDomain,
    ModulusOfContinuity,
    TouchingBallConfig,
    area_ratio_limit,
    ball_volume,
    boundary_distances,
    distance_and_nearest,
    level_set_area,
    level_set_area_mc,
    make_ellipse_domain,
    principal_curvatures,
    psi_of_eps,
    touching_ball,
    unit_sphere_area,
)


def sample_ball(x, R: float, n: int, seed: int) -> np.ndarray:
    """n uniform points of B_R(x) from default_rng(seed): the sampler's
    blocks, concatenated."""
    return np.concatenate(list(geometry._ball_blocks(
        np.random.default_rng(seed), np.asarray(x, dtype=float), R, n)))


def implicit_ball(rho: float, dim: int = 2) -> ImplicitDomain:
    def phi(p):
        p = np.asarray(p, dtype=float)
        return np.sum(p * p, axis=-1) - rho * rho

    def grad(p):
        return 2.0 * np.asarray(p, dtype=float)

    def hess(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (p.shape[-1], p.shape[-1]))
        idx = np.arange(p.shape[-1])
        out[..., idx, idx] = 2.0
        return out

    return ImplicitDomain(phi=phi, grad=grad, hess=hess, dim=dim)


def implicit_ellipsoid(axes) -> ImplicitDomain:
    """sum_i (p_i / a_i)^2 < 1 in N = len(axes) dimensions."""
    inv = 1.0 / np.asarray(axes, dtype=float) ** 2
    n = inv.size

    def phi(p):
        return np.sum(np.asarray(p, dtype=float) ** 2 * inv, axis=-1) - 1.0

    def grad(p):
        return 2.0 * np.asarray(p, dtype=float) * inv

    def hess(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (n, n))
        out[..., np.arange(n), np.arange(n)] = 2.0 * inv
        return out

    return ImplicitDomain(phi=phi, grad=grad, hess=hess, dim=n)


def secular_distance(axes, pts) -> np.ndarray:
    """Unsigned boundary distance for an ellipsoid, by a route independent
    of the Newton projection: the nearest point is
    y_i = a_i^2 p_i / (a_i^2 + t), t the root of
    sum_i (a_i p_i / (a_i^2 + t))^2 = 1 in (-min a_i^2, 0] for interior
    points and in [0, |a p|] outside, where the left side decreases in t
    (D. Eberly, "Distance from a point to an ellipse, an ellipsoid, or a
    hyperellipsoid"); bisection to machine precision.  Interior points need
    p_i != 0 on the shortest axis."""
    a = np.asarray(axes, dtype=float)
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    outside = np.sum((p / a) ** 2, axis=1) > 1.0
    lo = np.where(outside, 0.0, -np.min(a * a))
    hi = np.where(outside, np.linalg.norm(a * p, axis=1), 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = np.sum((a * p / (a * a + mid[:, None])) ** 2, axis=1) > 1.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    y = a * a * p / (a * a + hi[:, None])
    return np.linalg.norm(y - p, axis=1)


def ellipse_parallel_length(s: float, center, R: float, a: float = 2.0,
                            b: float = 1.0, nodes: int = 20_001) -> float:
    """Length inside B_R(center) of the curve at inward distance s from the
    upper arc of x^2/a^2 + y^2/b^2 = 1: int speed (1 - s kappa) dt over the
    arc parameters whose parallel point lies in the ball (trapezoid rule)."""
    t = np.linspace(0.0, math.pi, nodes)
    speed = np.hypot(a * np.sin(t), b * np.cos(t))
    px = a * np.cos(t) - s * b * np.cos(t) / speed
    py = b * np.sin(t) - s * a * np.sin(t) / speed
    inside = np.hypot(px - center[0], py - center[1]) < R
    f = np.where(inside, speed - s * a * b / speed ** 2, 0.0)
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(t)))


class TestSphereFormulas:
    def test_unit_sphere_area(self):
        assert unit_sphere_area(1) == pytest.approx(2.0)
        assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi)
        assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi)

    def test_ball_volume(self):
        assert ball_volume(2, 2.0) == pytest.approx(4.0 * math.pi)
        assert ball_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            unit_sphere_area(0)
        with pytest.raises(ValueError):
            ball_volume(2, -1.0)


class TestDistanceAndNearest:
    def test_ball_generic_and_center(self):
        dom = BallDomain(2.0)
        d, y = distance_and_nearest(dom, [1.0, 0.0])
        assert d == pytest.approx(1.0)
        assert y == pytest.approx([2.0, 0.0])
        d, y = distance_and_nearest(dom, [0.0, 0.0])
        assert d == pytest.approx(2.0)
        assert y == pytest.approx([2.0, 0.0])  # deterministic representative

    def test_exterior(self):
        dom = ExteriorBallDomain(1.0)
        d, y = distance_and_nearest(dom, [0.0, -3.0])
        assert d == pytest.approx(2.0)
        assert y == pytest.approx([0.0, -1.0])

    def test_outside_closed_domain_rejected(self):
        with pytest.raises(ValueError):
            distance_and_nearest(BallDomain(1.0), [1.5, 0.0])
        with pytest.raises(ValueError):
            distance_and_nearest(ExteriorBallDomain(1.0), [0.5, 0.0])
        with pytest.raises(ValueError):
            distance_and_nearest(make_ellipse_domain(), [3.0, 0.0])

    @pytest.mark.parametrize("domain,x", [
        (BallDomain(1.0), [math.nan, 0.0]),
        (ExteriorBallDomain(1.0), [math.nan, 0.0]),
        (make_ellipse_domain(2.0, 1.0), [math.nan, 0.5]),
        (make_ellipse_domain(2.0, 1.0), [0.0, math.inf]),
    ])
    def test_non_finite_point_rejected_naming_it(self, domain, x):
        # every comparison with NaN is false, so no distance check can
        # catch a NaN center; the projection would not converge on one
        with pytest.raises(ValueError, match=r"point \[.*(nan|inf).*\] is "
                                             "not finite"):
            distance_and_nearest(domain, x)
        with pytest.raises(ValueError, match="not finite"):
            touching_ball(domain, x, 0.5)

    def test_point_of_the_wrong_dimension_rejected_naming_both(self):
        ell = EllipseDomain(2.0, 1.0)
        with pytest.raises(ValueError, match=r"shape \(3,\) for N = 2"):
            distance_and_nearest(ell, [0.0, 0.5, 0.0])
        with pytest.raises(ValueError, match=r"shape \(4, 3\) for N = 2"):
            boundary_distances(ell, np.zeros((4, 3)))
        with pytest.raises(ValueError, match=r"shape \(3,\) for N = 2"):
            touching_ball(ell, [0.0, 0.5, 0.0], 0.5)
        with pytest.raises(ValueError, match=r"shape \(3,\) for N = 2"):
            principal_curvatures(ell, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match=r"shape \(1,\) for N = 3"):
            distance_and_nearest(implicit_ball(1.0, dim=3), [0.5])
        for dom in (BallDomain(1.0), ExteriorBallDomain(1.0)):
            with pytest.raises(ValueError, match="dimension 0"):
                distance_and_nearest(dom, [])

    def test_implicit_matches_closed_form(self):
        dom = implicit_ball(1.5)
        for pt in ([0.3, 0.4], [-1.0, 0.2], [0.0, 1.2]):
            d, y = distance_and_nearest(dom, pt)
            r = np.linalg.norm(pt)
            assert d == pytest.approx(1.5 - r, abs=1e-10)
            assert np.linalg.norm(y) == pytest.approx(1.5, abs=1e-10)

    def test_ellipse_minor_axis(self):
        dom = make_ellipse_domain(2.0, 1.0)
        d, y = distance_and_nearest(dom, [0.0, 0.5])
        assert d == pytest.approx(0.5, abs=1e-10)
        assert y == pytest.approx([0.0, 1.0], abs=1e-10)

    def test_projection_idempotent(self):
        dom = make_ellipse_domain(2.0, 1.0)
        _, y = distance_and_nearest(dom, [0.3, 0.4])
        d2, _ = distance_and_nearest(dom, y)
        assert abs(d2) < 1e-10

    def test_ellipse_against_dense_parametric_minimum(self):
        # the sample of the workload ball touching the minor-axis vertex;
        # deep points there have a tiny |grad phi| and four critical points
        dom = make_ellipse_domain(2.0, 1.0)
        pts = sample_ball(np.array([0.0, 0.5]), 0.5, 20_000, 101)
        d = np.linalg.norm(geometry._project_implicit(dom, pts) - pts, axis=1)
        # 4e4 parametric nodes; the points have y >= 0 and reflecting
        # y -> -y brings a lower boundary point nearer, so the upper half
        # of the nodes suffices.  |p - (2 cos t, sin t)|^2 =
        # |p|^2 + 1 + 3 cos^2 t - 4 p_x cos t - 2 p_y sin t.
        t = np.linspace(0.0, 2.0 * math.pi, 40_000, endpoint=False)
        t = t[t <= math.pi]
        c, sn = np.cos(t), np.sin(t)
        weights = np.stack([4.0 * c, 2.0 * sn])
        base = 1.0 + 3.0 * c * c
        best = np.empty(len(pts))
        for lo in range(0, len(pts), 256):
            block = pts[lo:lo + 256]
            best[lo:lo + 256] = np.min(base - block @ weights, axis=1)
        dense = np.sqrt(np.maximum(best + np.sum(pts * pts, axis=1), 0.0))
        # the node minimum is never below the true minimum
        assert int(np.sum(d > dense + 1e-6)) == 0

    @pytest.mark.parametrize("pt,expected", [
        ([0.12, 0.05], 0.94764),
        ([0.07, 0.005], 0.99418),
    ])
    def test_ellipse_deep_points(self, pt, expected):
        # one linearization step from these points lands near (2, 0),
        # in the basin of a far critical point
        d, y = distance_and_nearest(make_ellipse_domain(2.0, 1.0), pt)
        assert d == pytest.approx(secular_distance([2.0, 1.0], pt)[0],
                                  abs=1e-12)
        assert d == pytest.approx(expected, abs=5e-6)
        assert y[1] > 0.99

    @pytest.mark.parametrize("pt,expected", [
        ([1.0, 0.1, 0.1], 0.72029),
        ([0.3, 0.1, 0.2], 0.87029),
    ])
    def test_ellipsoid_points(self, pt, expected):
        axes = [2.0, 1.0, 1.5]
        d, y = distance_and_nearest(implicit_ellipsoid(axes), pt)
        assert d == pytest.approx(secular_distance(axes, pt)[0], abs=1e-12)
        assert d == pytest.approx(expected, abs=5e-6)
        assert np.sum((y / axes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_ellipsoid_batch(self):
        axes = np.array([2.0, 1.0, 1.5])
        dom = implicit_ellipsoid(axes)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.0, 1.0, (40_000, 3)) * axes
        pts = pts[dom.phi(pts) < 0.0][:20_000]
        d = np.linalg.norm(geometry._project_implicit(dom, pts) - pts, axis=1)
        assert np.max(np.abs(d - secular_distance(axes, pts))) < 1e-9

    def test_ellipse_signed_distances_inside_and_out(self):
        dom = make_ellipse_domain(2.0, 1.0)
        pts = np.random.default_rng(1).uniform(-6.0, 6.0, (20_000, 2))
        sign = np.where(dom.phi(pts) <= 0.0, 1.0, -1.0)
        d = boundary_distances(dom, pts)
        assert np.max(np.abs(d - sign * secular_distance([2.0, 1.0], pts))) \
            < 1e-9

    def test_ellipse_center(self):
        # grad phi vanishes at the center: the start follows the eigenvector
        # of the largest Hessian eigenvalue, here the minor axis
        dom = make_ellipse_domain(2.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, y = distance_and_nearest(dom, [0.0, 0.0])
        assert d == pytest.approx(1.0, abs=1e-12)
        assert abs(y[0]) < 1e-12 and abs(y[1]) == pytest.approx(1.0,
                                                                abs=1e-12)
        pts = np.array([[0.3, 0.2], [0.0, 0.0], [1.0, -0.1]])
        d = boundary_distances(dom, pts)
        assert d[1] == pytest.approx(1.0, abs=1e-12)
        assert d[[0, 2]] == pytest.approx(
            secular_distance([2.0, 1.0], pts[[0, 2]]), abs=1e-12)

    def test_ellipsoid_center(self):
        axes = [2.0, 1.0, 1.5]
        dom = implicit_ellipsoid(axes)
        d, y = distance_and_nearest(dom, [0.0, 0.0, 0.0])
        assert d == pytest.approx(1.0, abs=1e-12)
        assert np.sum((y / axes) ** 2) == pytest.approx(1.0, abs=1e-12)
        pts = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, 0.2]])
        d = boundary_distances(dom, pts)
        assert d[0] == pytest.approx(1.0, abs=1e-12)
        assert d[1] == pytest.approx(secular_distance(axes, pts[1])[0],
                                     abs=1e-12)

    def test_degenerate_start_rejected(self):
        # x^4 + y^4 < 1: gradient and Hessian both vanish at the origin
        def phi(p):
            return np.sum(np.asarray(p, dtype=float) ** 4, axis=-1) - 1.0

        def grad(p):
            return 4.0 * np.asarray(p, dtype=float) ** 3

        def hess(p):
            p = np.asarray(p, dtype=float)
            out = np.zeros(p.shape[:-1] + (2, 2))
            out[..., [0, 1], [0, 1]] = 12.0 * p ** 2
            return out

        dom = ImplicitDomain(phi=phi, grad=grad, hess=hess, dim=2)
        with pytest.raises(RuntimeError, match="no positive eigenvalue"):
            distance_and_nearest(dom, [0.0, 0.0])
        assert distance_and_nearest(dom, [0.5, 0.0])[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("x", [[0.8, 0.0], [-2.0, 0.0]])
    def test_stop_on_a_local_maximum_raises(self, x):
        # Newton from a point on the major axis stays on it and stops at a
        # vertex, a local maximum of the distance along the boundary
        # (T^T (I - lam H) T = -11.8 at (4, 0) from (0.8, 0))
        dom = make_ellipse_domain(4.0, 1.0)
        with pytest.raises(RuntimeError,
                           match="local maximum of the distance for 1 of 1"):
            distance_and_nearest(dom, x)
        pts = np.array([[0.8, 0.3], x, x, [0.0, 0.0]])
        with pytest.raises(RuntimeError, match="for 2 of 4 points"):
            boundary_distances(dom, pts)

    def test_off_the_axis_finds_the_nearest_point(self):
        # the medial-axis distance b sqrt(1 - x1^2/(a^2 - b^2)), moved by
        # less than 1e-9 at 1e-9 off the axis
        d, _ = distance_and_nearest(make_ellipse_domain(4.0, 1.0),
                                    [0.8, 1e-9])
        assert d == pytest.approx(math.sqrt(1.0 - 0.8 ** 2 / 15.0), abs=2e-9)

    def test_blocks_change_no_bit(self, monkeypatch):
        dom = make_ellipse_domain(2.0, 1.0)
        m = 2 * geometry._BLOCK + 1234
        pts = np.random.default_rng(2).uniform(-3.0, 3.0, (m, 2))
        d = boundary_distances(dom, pts)
        by_block = np.concatenate([boundary_distances(dom, pts[lo:lo + 5000])
                                   for lo in range(0, m, 5000)])
        assert np.array_equal(d, by_block)
        monkeypatch.setattr(geometry, "_BLOCK", 777)
        assert np.array_equal(boundary_distances(dom, pts), d)

    def test_nan_gradient_in_a_later_block_is_reported(self):
        ell = make_ellipse_domain(2.0, 1.0)
        m = 2 * geometry._BLOCK + 100
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, (m, 2))
        pts *= [1.4, 0.7]
        bad = pts[geometry._BLOCK + 17].copy()

        def grad(p):
            out = ell.grad(p)
            out[np.all(np.asarray(p) == bad, axis=-1)] = np.nan
            return out

        dom = ImplicitDomain(phi=ell.phi, grad=grad, hess=ell.hess, dim=2)
        with np.errstate(invalid="ignore"), pytest.raises(
                RuntimeError, match=f"did not converge for 1 of {m} points"):
            boundary_distances(dom, pts)

    def test_batch_signed_distances(self):
        dom = BallDomain(1.0)
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
        d = boundary_distances(dom, pts)
        assert d == pytest.approx([1.0, 0.5, -1.0])


class TestPrincipalCurvatures:
    def test_ball_and_exterior(self):
        assert principal_curvatures(BallDomain(2.0), [2.0, 0.0]) == pytest.approx(
            [0.5])
        assert principal_curvatures(
            ExteriorBallDomain(0.5), [0.5, 0.0, 0.0]) == pytest.approx(
            [-2.0, -2.0])

    def test_ellipse_vertices(self):
        dom = make_ellipse_domain(2.0, 1.0)
        # top of the minor axis: kappa = b/a^2 -> here 1/4
        assert principal_curvatures(dom, [0.0, 1.0]) == pytest.approx(
            [0.25], abs=1e-12)
        # end of the major axis: kappa = a/b^2 -> here 2
        assert principal_curvatures(dom, [2.0, 0.0]) == pytest.approx(
            [2.0], abs=1e-12)

    def test_implicit_ball_matches_convention(self):
        dom = implicit_ball(1.5, dim=2)
        got = principal_curvatures(dom, [1.5, 0.0])
        assert got == pytest.approx([1.0 / 1.5], abs=1e-12)


class TestTouchingBall:
    def test_ball_benchmark(self):
        cfg = touching_ball(BallDomain(1.0), [0.5, 0.0], 0.5)
        assert cfg.y_x == pytest.approx([1.0, 0.0])
        assert cfg.curvatures == pytest.approx([1.0])
        assert cfg.pi_gamma == pytest.approx(0.5)

    def test_exterior_benchmark(self):
        cfg = touching_ball(ExteriorBallDomain(1.0), [2.0, 0.0, 0.0], 1.0)
        assert cfg.curvatures == pytest.approx([-1.0, -1.0])
        assert cfg.pi_gamma == pytest.approx(4.0)

    def test_ellipse_touching(self):
        cfg = touching_ball(make_ellipse_domain(2.0, 1.0), [0.0, 0.5], 0.5)
        assert cfg.pi_gamma == pytest.approx(1.0 - 0.5 * 0.25, abs=1e-10)

    def test_wrong_distance_rejected(self):
        with pytest.raises(ValueError):
            touching_ball(BallDomain(1.0), [0.5, 0.0], 0.4)

    def test_degenerate_center_rejected(self):
        # ball about the center touches everywhere: curvature test fires first
        with pytest.raises(ValueError):
            touching_ball(BallDomain(1.0), [0.0, 0.0], 1.0)

    def test_nonunique_contact_rejected(self):
        # near the center of the ellipse the ball almost touches both the top
        # and the bottom vertex; the direction probe must notice the second
        # contact even though curvature and distance checks pass
        dom = make_ellipse_domain(2.0, 1.0)
        delta = 1e-6
        with pytest.raises(ValueError, match="not unique"):
            touching_ball(dom, [0.0, delta], 1.0 - delta)


class TestLevelSetArea:
    def ball_cfg(self):
        return touching_ball(BallDomain(1.0), [0.5, 0.0], 0.5)

    def test_planar_benchmark_limit(self):
        cfg = self.ball_cfg()
        limit = area_ratio_limit(cfg)
        assert limit == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        ratios = []
        for s in (1e-2, 1e-3, 1e-4):
            a = level_set_area(cfg.domain, cfg, s)
            ratios.append(a / s ** 0.5)
        devs = [abs(r - limit) / limit for r in ratios]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.01

    @pytest.mark.parametrize("n,expected", [(2, 2.0), (3, math.pi)])
    def test_exterior_limits(self, n, expected):
        x = np.zeros(n)
        x[0] = 2.0
        cfg = touching_ball(ExteriorBallDomain(1.0), x, 1.0)
        assert area_ratio_limit(cfg) == pytest.approx(expected, rel=1e-12)
        s = 1e-4
        a = level_set_area(cfg.domain, cfg, s)
        assert a / s ** (0.5 * (n - 1)) == pytest.approx(expected, rel=0.01)

    def test_level_set_leaves_ball(self):
        cfg = self.ball_cfg()
        assert level_set_area(cfg.domain, cfg, 1.0) == 0.0
        assert level_set_area(cfg.domain, cfg, 0.999999) > 0.0

    def test_invalid_level_rejected(self):
        cfg = self.ball_cfg()
        with pytest.raises(ValueError):
            level_set_area(cfg.domain, cfg, 0.0)
        with pytest.raises(ValueError):
            level_set_area(cfg.domain, cfg, -0.1)
        with pytest.raises(ValueError):
            level_set_area(cfg.domain, cfg, np.array([0.1, 0.0]))

    @pytest.mark.parametrize("domain,x,R", [
        # R > rho/2: levels s in (rho, 2R) have rho - s <= 0 inside B_R(x)
        (BallDomain(1.0), [0.25, 0.0], 0.75),
        (BallDomain(2.0), [1.2, 0.0, 0.0], 0.8),
        (ExteriorBallDomain(1.0), [2.0, 0.0, 0.0], 1.0),
    ])
    def test_array_call_matches_scalar_calls(self, domain, x, R):
        cfg = touching_ball(domain, x, R)
        s = np.array([1e-9, 1e-3, 0.1, 0.5, 0.74, 0.99, 1.0, 1.2, 1.49,
                      1.5, 1.6, 2.0, 5.0])
        areas = level_set_area(domain, cfg, s)
        assert areas.shape == s.shape
        scalar = [level_set_area(domain, cfg, float(t)) for t in s]
        assert all(isinstance(a, float) for a in scalar)
        assert np.array_equal(areas, scalar)
        assert np.all(areas[s >= 2.0 * R] == 0.0)
        assert level_set_area(domain, cfg, np.array([])).shape == (0,)

    def test_rejects_a_domain_other_than_the_configurations(self):
        # an area on BallDomain(3.0) at a configuration of BallDomain(1.0)
        # would mix two domains; an equal domain is the same domain
        cfg = self.ball_cfg()
        for oracle in (level_set_area, level_set_area_mc):
            with pytest.raises(ValueError, match="is not cfg.domain"):
                oracle(BallDomain(3.0), cfg, 0.1)
        assert level_set_area(BallDomain(1.0), cfg, 0.1) == pytest.approx(
            0.8118482612332721, rel=1e-14)

    def test_rejects_implicit_domain(self):
        dom = implicit_ball(1.0, dim=2)
        cfg = touching_ball(dom, [0.5, 0.0], 0.5)
        with pytest.raises(ValueError, match="level_set_area_mc"):
            level_set_area(dom, cfg, np.array([0.1, 0.4]))

    def test_mc_oracle_agrees_closed_form(self):
        cfg = self.ball_cfg()
        s, hw = 0.05, 0.005
        area, se = level_set_area_mc(cfg.domain, cfg, s, n_samples=1_000_000,
                                     seed=7, half_width=hw)
        # compare to the bin-average of the closed form, not the midpoint
        grid = np.linspace(s - hw, s + hw, 41)
        avg = np.mean([level_set_area(cfg.domain, cfg, float(t))
                       for t in grid])
        assert abs(area - avg) <= 3.0 * se
        assert se < 0.05 * avg

    @pytest.mark.parametrize("domain,x,R,s,hw,n,seed,expected", [
        (BallDomain(1.0), [0.5, 0.0], 0.5, 0.05, 0.005, 200_000, 1,
         (0.5929756133650735, 0.014902196990668578)),
        (ExteriorBallDomain(1.0), [2.0, 0.0, 0.0], 1.0, 0.05, 0.005,
         200_000, 1, (0.17383479349863526, 0.019053056551140014)),
        (make_ellipse_domain(2.0, 1.0), [0.0, 0.5], 0.5, 0.05, 0.005,
         200_000, 1, (0.4747731897737575, 0.013420558769139227)),
        # s + hw >= R: every stratum can reach the bin
        (BallDomain(1.0), [0.5, 0.0], 0.5, 0.45, 0.05, 50_000, 4,
         (1.0822786691616837, 0.011599075666742443)),
    ])
    def test_mc_equals_full_draw(self, domain, x, R, s, hw, n, seed,
                                 expected):
        # recorded from a draw of every stratum: skipping the strata that
        # cannot reach the bin leaves the estimate bit-identical
        cfg = touching_ball(domain, x, R)
        assert level_set_area_mc(domain, cfg, s, n_samples=n, seed=seed,
                                 half_width=hw) == expected

    def test_mc_draws_only_strata_that_reach_the_bin(self, monkeypatch):
        cfg = self.ball_cfg()
        drawn = []

        def counting(domain, pts):
            drawn.append(len(pts))
            return boundary_distances(domain, pts)

        monkeypatch.setattr(geometry, "boundary_distances", counting)
        level_set_area_mc(cfg.domain, cfg, 0.05, n_samples=64_000, seed=1,
                          half_width=0.005)
        # stratum j reaches radius R sqrt((j+1)/64), which exceeds
        # R - s - hw = 0.445 from j = 50 on
        assert drawn == [1000] * 14

    @pytest.mark.parametrize("s", [0.9, 0.99])
    def test_mc_deep_level_on_ellipse(self, s):
        dom = make_ellipse_domain(2.0, 1.0)
        cfg = touching_ball(dom, [0.0, 0.5], 0.5)
        hw = 0.1 * s
        ref = np.mean([ellipse_parallel_length(g, cfg.x, cfg.R)
                       for g in np.linspace(s - hw, s + hw, 201)])
        area, se = level_set_area_mc(dom, cfg, s, n_samples=200_000, seed=7)
        assert abs(area - ref) <= 3.0 * se

    @pytest.mark.parametrize("kwargs", [
        {"n_samples": 0}, {"n_samples": -5}, {"n_samples": 2.5},
        {"n_samples": True},
    ])
    def test_mc_rejects_bad_counts(self, kwargs):
        cfg = self.ball_cfg()
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            level_set_area_mc(cfg.domain, cfg, 0.05, **kwargs)

    def test_mc_rejects_bin_below_zero(self):
        # at s = 0.01, hw = 0.02 the bin [-0.01, 0.03] takes no samples
        # from d < 0 and the estimate came out low (0.240 against a bin
        # average of 0.321 over d > 0)
        cfg = self.ball_cfg()
        with pytest.raises(ValueError, match="below d = 0"):
            level_set_area_mc(cfg.domain, cfg, 0.01, n_samples=1000,
                              half_width=0.02)
        area, se = level_set_area_mc(cfg.domain, cfg, 0.01, n_samples=1000,
                                     half_width=0.01)
        assert area > 0.0 and se > 0.0

    def test_mc_deterministic_given_seed(self):
        cfg = self.ball_cfg()
        a1 = level_set_area_mc(cfg.domain, cfg, 0.1, n_samples=200_000, seed=11)
        a2 = level_set_area_mc(cfg.domain, cfg, 0.1, n_samples=200_000, seed=11)
        assert a1 == a2

    def test_implicit_domain_binning(self):
        # implicit unit ball vs the closed-form domain, same configuration
        dom = implicit_ball(1.0, dim=2)
        cfg_impl = touching_ball(dom, [0.5, 0.0], 0.5)
        cfg_ball = self.ball_cfg()
        s = 0.1
        closed = level_set_area(cfg_ball.domain, cfg_ball, s)
        approx, se = level_set_area_mc(dom, cfg_impl, s, n_samples=100_000,
                                       seed=3)
        assert abs(approx - closed) <= max(3.0 * se, 0.05 * closed)


def parallel_length(s: float, a: float, b: float, center, R: float,
                    grid: int = 4001) -> float:
    """Length of {d_Gamma = s} inside B_R(center) on x^2/a^2 + y^2/b^2 < 1,
    independently of the tube formula's code: the parameters t whose point
    y(t) + s nu(t) lies in the ball and before the cut are located on a
    grid and their ends bisected 60 times on that indicator; each arc's
    int |y'| (1 - s kappa) dt is a composite Gauss-Legendre rule, its panels
    doubled until two rules agree to 1e-14."""
    def inside(t):
        speed = np.hypot(a * np.sin(t), b * np.cos(t))
        px = a * np.cos(t) - s * b * np.cos(t) / speed
        py = b * np.sin(t) - s * a * np.sin(t) / speed
        cut = min(a, b) * speed / max(a, b)
        return (np.hypot(px - center[0], py - center[1]) < R) & (s <= cut)

    def speed_term(t):
        w2 = (a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2
        return np.sqrt(w2) - s * a * b / w2

    t = np.linspace(-math.pi, math.pi, grid)
    flags = inside(t)
    assert not (flags[0] or flags[-1]), "an arc crosses the seam"
    edges = np.flatnonzero(np.diff(flags.astype(int)))
    ends = []
    for k in edges:
        lo, hi = t[k], t[k + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if inside(np.array([mid]))[0] == flags[k]:
                lo = mid
            else:
                hi = mid
        ends.append(0.5 * (lo + hi))
    x, w = np.polynomial.legendre.leggauss(20)
    total = 0.0
    for t1, t2 in zip(ends[0::2], ends[1::2]):
        prev, panels = None, 1
        while True:
            e = np.linspace(t1, t2, panels + 1)
            mid, half = 0.5 * (e[1:] + e[:-1]), 0.5 * np.diff(e)
            val = float(np.sum(half[:, None] * w
                               * speed_term(mid[:, None] + half[:, None] * x)))
            if prev is not None and abs(val - prev) <= 1e-14 * abs(val):
                break
            prev, panels = val, 2 * panels
        total += val
    return total


def tanh_sinh_nodes(a: float, b: float, level: int, beta: float
                    ) -> np.ndarray:
    """The abscissae FixedRule(level, beta) evaluates on [a, b]."""
    seen = []
    FixedRule(level, beta)(lambda x, *rest: seen.append(x) or np.zeros_like(x),
                           a, b)
    return seen[0]


ELLIPSE_CFG = touching_ball(make_ellipse_domain(2.0, 1.0), [0.0, 0.5], 0.5)


class TestEllipseTube:
    """level_set_area on ellipses: the tube formula."""

    def test_domain_records_its_axes(self):
        dom = make_ellipse_domain(2.0, 1.0)
        assert isinstance(dom, EllipseDomain)
        assert isinstance(dom, ImplicitDomain)
        assert (dom.a, dom.b, dom.dim) == (2.0, 1.0, 2)
        with pytest.raises(ValueError):
            make_ellipse_domain(0.0, 1.0)
        with pytest.raises(ValueError):
            EllipseDomain(-1.0, 1.0)

    @pytest.mark.parametrize("a,b,name", [
        (math.inf, 1.0, "a"), (1e300, 1.0, "a"), (2.0, math.nan, "b"),
        (2.0, 1e-200, "b")])
    def test_axis_out_of_the_float_range_rejected_naming_it(self, a, b, name):
        # an infinite axis gave curvature 0 at touching_ball, and its limit
        # experiment stopped inside np.roots; the square of 1e-200 is 0
        with pytest.raises(ValueError, match=f"semi-axis {name} must be"):
            EllipseDomain(a, b)

    def test_circle_matches_ball(self):
        ball = touching_ball(BallDomain(1.0), [0.5, 0.0], 0.5)
        circle = touching_ball(make_ellipse_domain(1.0, 1.0), [0.5, 0.0], 0.5)
        # rounding limits both ends: the cap's arccos(1 - s) as s -> 0, and
        # the tube formula's L - s theta as s -> 2R = rho, where
        # 1 - s kappa -> 0 (2e-12 at s = 0.9999)
        s = np.concatenate([np.geomspace(1e-3, 0.1, 30),
                            np.linspace(0.1, 0.999, 60)])
        closed = level_set_area(ball.domain, ball, s)
        tube = level_set_area(circle.domain, circle, s)
        assert np.max(np.abs(tube / closed - 1.0)) <= 1e-12
        assert level_set_area(circle.domain, circle,
                              np.array([1.0, 1.5])).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("s", [0.01, 0.05, 0.3, 0.6, 0.9, 0.99])
    def test_matches_parallel_curve_length(self, s):
        ref = parallel_length(s, 2.0, 1.0, ELLIPSE_CFG.x, ELLIPSE_CFG.R)
        area = level_set_area(ELLIPSE_CFG.domain, ELLIPSE_CFG, s)
        assert isinstance(area, float)
        assert area == pytest.approx(ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("axes,x,s", [
        # touched at the major vertex, whose own normal is cut at
        # s = b^2/a = 0.5: the parallel curve past its cut crosses the ball
        ((2.0, 1.0), (1.7, 0.0), 0.3),
        ((2.0, 1.0), (1.7, 0.0), 0.55),
        # two arcs below the cut's onset (s < b^2/a = 0.25), with the far
        # normals through x off the vertices
        ((4.0, 1.0), (0.5, 0.05), 0.2),
    ])
    def test_cut_and_far_normals(self, axes, x, s):
        dom = make_ellipse_domain(*axes)
        cfg = touching_ball(dom, x, distance_and_nearest(dom, x)[0])
        assert level_set_area(dom, cfg, s) == pytest.approx(
            parallel_length(s, *axes, cfg.x, cfg.R), rel=1e-9, abs=0.0)

    def test_near_2R_against_mpmath(self, monkeypatch):
        # at s = 2R - 1e-10 every term of the interior test is O(1e-10):
        # 30-digit roots of |y + s nu - x| = R and the arc's length between.
        # The area, 1.9e-5, is a difference of primitives of size 1 with
        # their rounding (4e-16), hence 1e-10 relative
        mp = pytest.importorskip("mpmath")
        monkeypatch.setattr(mp.mp, "dps", 30)
        a, b, x1, R = mp.mpf(2), mp.mpf(1), mp.mpf("0.5"), mp.mpf("0.5")
        s = mp.mpf(1.0 - 1e-10)  # the float level itself

        def w2(t):
            return a * a * mp.sin(t) ** 2 + b * b * mp.cos(t) ** 2

        def g(t):
            w = mp.sqrt(w2(t))
            return ((a - s * b / w) * mp.cos(t)) ** 2 \
                + ((b - s * a / w) * mp.sin(t) - x1) ** 2 - R * R

        ends = [mp.findroot(g, mp.pi / 2 + k * mp.mpf("6e-6")) for k in (-1, 1)]
        ref = mp.quad(lambda t: mp.sqrt(w2(t)) - s * a * b / w2(t), ends)
        area = level_set_area(ELLIPSE_CFG.domain, ELLIPSE_CFG, 1.0 - 1e-10)
        assert area == pytest.approx(float(ref), rel=1e-10, abs=0.0)

    def test_reflection_keeps_the_areas(self):
        # the same ellipse with its major axis vertical
        tall = touching_ball(make_ellipse_domain(1.0, 2.0), [0.5, 0.0], 0.5)
        s = np.linspace(0.01, 0.99, 25)
        assert level_set_area(tall.domain, tall, s) == pytest.approx(
            level_set_area(ELLIPSE_CFG.domain, ELLIPSE_CFG, s),
            rel=1e-13, abs=0.0)

    def test_two_arcs_in_the_ball(self):
        # the ball covers the middle of a thin ellipse, so the level set
        # s = 0.5 meets it in the contact arc (length 1.70) and in the
        # opposite arc across the major axis
        dom = make_ellipse_domain(4.0, 1.0)
        cfg = touching_ball(dom, [0.0, 0.05], 0.95)
        s, hw = 0.5, 0.05
        area = level_set_area(dom, cfg, s)
        assert area == pytest.approx(parallel_length(s, 4.0, 1.0, cfg.x, cfg.R),
                                     rel=1e-9, abs=0.0)
        assert area > 3.0
        est, se = level_set_area_mc(dom, cfg, s, n_samples=200_000, seed=5,
                                    half_width=hw)
        avg = float(np.mean(level_set_area(dom, cfg, np.linspace(
            s - hw, s + hw, 101))))
        assert abs(est - avg) <= 3.0 * se

    def test_mc_oracle_agrees(self):
        s, hw = 0.05, 0.005
        est, se = level_set_area_mc(ELLIPSE_CFG.domain, ELLIPSE_CFG, s,
                                    n_samples=200_000, seed=1, half_width=hw)
        avg = float(np.mean(level_set_area(ELLIPSE_CFG.domain, ELLIPSE_CFG,
                                           np.linspace(s - hw, s + hw, 41))))
        assert abs(est - avg) <= 3.0 * se

    @pytest.mark.parametrize("level", [6, 7])
    def test_finite_at_every_quadrature_node(self, level):
        # the co-area integrals' nodes crowd both ends of (0, 2R)
        cfg = ELLIPSE_CFG
        s = np.concatenate([tanh_sinh_nodes(0.0, 1.0, level, 0.5),
                            tanh_sinh_nodes(0.0, 0.02, level, 1.0),
                            tanh_sinh_nodes(0.02, 1.0, level, 1.0),
                            [1e-300, 5e-324, 1.0 - 2.0 ** -53]])
        s = s[s > 0.0]
        area = level_set_area(cfg.domain, cfg, s)
        assert np.all(np.isfinite(area))
        assert np.all(area >= 0.0)
        # sqrt growth off s = 0: area / sqrt(s) -> 2 sqrt(2R / Pi_Gamma)
        small = (s > 1e-12) & (s < 1e-8)
        assert np.allclose(area[small] / np.sqrt(s[small]),
                           area_ratio_limit(cfg), rtol=1e-3)


def circle_distances(axes, x, R: float, theta: np.ndarray) -> np.ndarray:
    """secular_distance at the points x + R (cos theta, sin theta)."""
    return secular_distance(axes, np.asarray(x, dtype=float) + R * np.stack(
        [np.cos(theta), np.sin(theta)], axis=1))


def circle_corner_peak(axes, x, R: float) -> float:
    """Largest boundary distance of an ellipse on the circle |z - x| = R,
    where it peaks at a corner (on the medial axis, whose points have two
    nearest boundary points), from secular_distance alone.  A grid of
    20,000 angles brackets the peak to one step; the distance is smooth on
    either side of it, but secular_distance loses digits next to the axis
    (4e-9 at 1e-9 from it), so the quadratics through the values 2, 3 and 4
    steps to either side are continued to where they meet."""
    h = 2.0 * math.pi / 20_000
    grid = h * (np.arange(20_000) + 0.5)
    peak = grid[np.argmax(circle_distances(axes, x, R, grid))]
    steps = np.array([2.0, 3.0, 4.0])
    left = np.polyfit(-steps, circle_distances(axes, x, R, peak - h * steps),
                      2)
    right = np.polyfit(steps, circle_distances(axes, x, R, peak + h * steps),
                       2)
    roots = np.roots(left - right)
    meet = roots[np.argmin(np.abs(roots))]
    assert abs(meet) <= 1.0 and meet.imag == 0.0
    return float(np.polyval(left, meet.real))


def contact_config(axes, t0: float, R: float) -> TouchingBallConfig:
    """The touching ball of radius R at the boundary point (a cos t0,
    b sin t0) of the ellipse with semi-axes axes = (a, b)."""
    a, b = axes
    w = math.hypot(a * math.sin(t0), b * math.cos(t0))
    x = [a * math.cos(t0) * (1.0 - R * b / (a * w)),
         b * math.sin(t0) * (1.0 - R * a / (b * w))]
    return touching_ball(make_ellipse_domain(a, b), x, R)


def s_max(cfg: TouchingBallConfig) -> float:
    return cfg.domain.level_sets(cfg)[0]


class TestLargestDistance:
    """The s_max of EllipseDomain.level_sets: the largest boundary
    distance in B_R(x)."""

    # contacts whose normal is cut before 2R, by balls that miss the
    # center: at the major vertex, off it, and with the major axis second
    CORNERS = [((2.0, 1.0), 0.0, 0.3), ((1.0, 2.0), 0.5 * math.pi, 0.3),
               ((2.0, 1.0), 0.3, 0.35), ((2.0, 1.0), 0.3 + math.pi, 0.35),
               ((1.0, 2.0), 1.2, 0.35)]

    @pytest.mark.parametrize("axes,t0,R", CORNERS)
    def test_corner_peak_matches_the_secular_oracle(self, axes, t0, R):
        cfg = contact_config(axes, t0, R)
        s = s_max(cfg)
        assert s == pytest.approx(circle_corner_peak(axes, cfg.x, R),
                                  abs=1e-9)
        assert s < min(2.0 * R, *axes) - 0.01
        # the largest level whose set still meets the ball
        below, above = level_set_area(cfg.domain, cfg,
                                      s * np.array([1.0 - 1e-9, 1.0 + 1e-9]))
        assert below > 0.0
        assert above == 0.0

    # 2R before the cut b w/a = 1 gives 2R, a ball that holds the center b;
    # the last normal is cut at 0.967, before 2R = 1.4
    @pytest.mark.parametrize("t0,R,expected", [
        (0.5 * math.pi, 0.2, 0.4), (-0.5 * math.pi, 0.3, 0.6),
        (0.5 * math.pi, 0.5, 1.0), (0.5 * math.pi - 0.3, 0.7, 1.0)])
    def test_center_or_uncut_normal_gives_the_bound(self, t0, R, expected):
        cfg = contact_config((2.0, 1.0), t0, R)
        s = s_max(cfg)
        assert s == expected
        theta = 2.0 * math.pi / 20_000 * (np.arange(20_000) + 0.5)
        assert np.max(circle_distances((2.0, 1.0), cfg.x, R, theta)) \
            <= s + 1e-12

    def test_midrange_at_q_infinity(self):
        # exp(-tau) at xi = 0.1: the midrange with exp(-5.88), where the
        # bound 2R = 0.6 gave exp(-6) and 0.501239
        cfg = contact_config((2.0, 1.0), 0.0, 0.3)
        res = q_mean(QMeanQuery(cfg=cfg, q=math.inf, xi=0.1,
                                profile=lambda t: np.exp(-np.asarray(t))))
        assert res.mu == pytest.approx(
            0.5 * (1.0 + math.exp(-10.0 * s_max(cfg))), rel=1e-14)
        assert res.mu == pytest.approx(0.501386, abs=5e-7)

    def test_other_implicit_domains_are_refused(self):
        ell = make_ellipse_domain(2.0, 1.0)
        dom = ImplicitDomain(phi=ell.phi, grad=ell.grad, hess=ell.hess, dim=2)
        with pytest.raises(ValueError, match="use q_mean_bruteforce"):
            s_max(touching_ball(dom, [0.0, 0.5], 0.5))


B = geometry._BLOCK


class TestBallBlocks:
    """The block sampler against the one-shot draws it replaces: uniform in
    the ball (radii R U^{1/N}) and in a radius stratum (R ((j + U)/S)^{1/N})."""

    @pytest.mark.parametrize("m", [1, B - 1, B, B + 1, 3 * B + 5])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("j,strata", [(0, 1), (5, 64), (63, 64)])
    def test_blocks_are_the_one_shot_draw(self, m, n, j, strata):
        x, R = np.linspace(0.3, -0.7, n), 0.75
        one_shot = np.random.default_rng(42)
        if strata == 1:
            radii = R * one_shot.random(m) ** (1.0 / n)
        else:
            radii = R * ((j + one_shot.random(m)) / strata) ** (1.0 / n)
        expected = one_shot.standard_normal((m, n))
        expected /= np.linalg.norm(expected, axis=1)[:, None]
        expected *= radii[:, None]
        expected += x
        rng = np.random.default_rng(42)
        blocks = list(geometry._ball_blocks(rng, x, R, m, j, strata))
        assert [len(b) for b in blocks] == \
            [B] * (m // B) + ([m % B] if m % B else [])
        assert np.concatenate(blocks).tobytes() == expected.tobytes()
        assert rng.bit_generator.state == one_shot.bit_generator.state


class TestRecordedOutputs:
    """sha256 digests recorded before the column and block rewrite of the
    Monte Carlo geometry: sampling and projection stay bit-identical."""

    @staticmethod
    def digest(a: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    def test_ellipse_distances(self):
        pts = np.random.default_rng(1).uniform(-6.0, 6.0, (10_000, 2))
        d = boundary_distances(make_ellipse_domain(2.0, 1.0), pts)
        assert self.digest(d) == ("8f84ca9d424f48b3afb66e922882989d"
                                  "b5324337e3a342b9110aba7e38800db6")

    def test_ellipsoid_distances(self):
        axes = np.array([2.0, 1.0, 1.5])
        dom = implicit_ellipsoid(axes)
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, (20_000, 3)) * axes
        pts = pts[dom.phi(pts) < 0.0][:10_000]
        assert len(pts) == 10_000
        assert self.digest(boundary_distances(dom, pts)) == (
            "c42d0ea1ee68911ff0711358bc6e087d2346c53f12918ea104db3b00cdf87882")

    @pytest.mark.parametrize("x,R,expected", [
        ([0.5, 0.0], 0.5,
         "4a74dba551917d0ae4a017036dcd8c5b0276241e058c33325e0eabb1fe78b628"),
        ([2.0, 0.0, 0.0], 1.0,
         "84b2a22ca7c47d10d142c67de89aeb2bccc0eb807f3333afb3854c066fc73d25"),
    ])
    def test_sample_ball(self, x, R, expected):
        assert self.digest(sample_ball(np.array(x), R, 50_000, 3)) == expected

    @pytest.mark.parametrize("domain,x,R,expected", [
        (BallDomain(1.0), [0.5, 0.0], 0.5,
         (0.5918251904261007, 0.006505405897499607)),
        (ExteriorBallDomain(1.0), [2.0, 0.0, 0.0], 1.0,
         (0.16337231275408773, 0.008067435965794496)),
        (make_ellipse_domain(2.0, 1.0), [0.0, 0.5], 0.5,
         (0.47319052810834017, 0.005844532138771606)),
    ])
    def test_level_set_area_mc_uneven_strata(self, domain, x, R, expected):
        # recorded before the sampler drew in blocks: 64 strata of 16,385
        # or 16,386 points, each more than two blocks of 8,192
        cfg = touching_ball(domain, x, R)
        assert level_set_area_mc(domain, cfg, 0.05,
                                 n_samples=64 * (2 * 8192 + 1) + 17,
                                 seed=31) == expected


def sqrt_modulus_root(eps: float) -> float:
    """The real root of 2x^3 + x = eps by Newton from x = eps: on the graph
    of sqrt, the point nearest (0, eps) is (x^2, x)."""
    x = eps
    for _ in range(8):
        x -= (2.0 * x ** 3 + x - eps) / (6.0 * x * x + 1.0)
    return x


class TestModulusAndPsi:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModulusOfContinuity(lambda s: -s, 1.0)
        with pytest.raises(ValueError):
            ModulusOfContinuity(lambda s: np.ones_like(s), 1.0)
        with pytest.raises(ValueError):
            ModulusOfContinuity(lambda s: s, 0.0)

    def test_linear_closed_form(self):
        for L in (0.5, 1.0, 3.0):
            mod = ModulusOfContinuity(lambda s, L=L: L * s, 1.0)
            for eps in (0.3, 0.1, 0.02):
                expected = eps / math.sqrt(1.0 + L * L)
                assert psi_of_eps(mod, eps) == pytest.approx(expected,
                                                             rel=1e-9)

    def test_linear_ratio_limit(self):
        L = 2.0
        mod = ModulusOfContinuity(lambda s: L * s, 1.0)
        ratios = [psi_of_eps(mod, eps) / eps for eps in (0.1, 0.01, 0.001)]
        for r in ratios:
            assert r == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-6)

    def test_sqrt_modulus_quadratic_psi(self):
        mod = ModulusOfContinuity(lambda s: np.sqrt(s), 1.0)
        for eps in (0.1, 0.03, 0.01):
            psi = psi_of_eps(mod, eps)
            assert 0.2 * eps ** 2 < psi < 2.0 * eps ** 2

    def test_dini_type_modulus(self):
        mod = ModulusOfContinuity(lambda s: 1.0 / np.log(1.0 / s), 0.5)
        # omega(s) = eps at s = e^{-1/eps}; the graph is nearly vertical
        # there, so psi tracks the horizontal offset
        for eps in (0.05, 0.02, 0.01):
            val = eps * math.log(psi_of_eps(mod, eps))
            assert val == pytest.approx(-1.0, abs=0.15)

    def test_eps_above_omega_r_rejected(self):
        mod = ModulusOfContinuity(lambda s: s, 1.0)
        with pytest.raises(ValueError):
            psi_of_eps(mod, 1.5)

    def test_psi_never_exceeds_eps(self):
        mod = ModulusOfContinuity(lambda s: np.sqrt(s), 1.0)
        for eps in (0.3, 0.1):
            assert psi_of_eps(mod, eps) <= eps + 1e-15

    def test_r_over_tiny_past_the_float_range(self):
        # r / tiny overflows once r > 4
        mod = ModulusOfContinuity(lambda s: s, 10.0)
        assert psi_of_eps(mod, 5.0) == pytest.approx(5.0 / math.sqrt(2.0),
                                                     rel=1e-12)

    def test_sqrt_modulus_cubic_oracle(self):
        # d^2 = x^4 + (x - eps)^2 at s = x^2 is least where 2x^3 + x = eps
        mod = ModulusOfContinuity(lambda s: np.sqrt(s), 1.0)
        for eps in np.geomspace(1e-6, 0.3, 40):
            x = sqrt_modulus_root(eps)
            assert psi_of_eps(mod, eps) == pytest.approx(
                math.hypot(x * x, x - eps), rel=1e-12), eps

    def test_dini_modulus_crossing_oracle(self):
        # the graph of 1/log(1/s) crosses eps at s = e^{-1/eps} with slope
        # eps^2 e^{1/eps}, at least 1.2e6 here, so psi is e^{-1/eps} to
        # 1e-12; at eps = 0.0132 the slope is about 1e29
        mod = ModulusOfContinuity(lambda s: 1.0 / np.log(1.0 / s), 0.5)
        for eps in np.geomspace(1.0 / 700.0, 0.05, 200):
            assert psi_of_eps(mod, eps) == pytest.approx(
                math.exp(-1.0 / eps), rel=1e-12), eps

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_psi_below_the_float_range_rejected(self, eps):
        # omega(tiny) = 1/log(1/tiny) = 1.41e-3 > eps: psi = e^{-1/eps}
        # underflows
        mod = ModulusOfContinuity(lambda s: 1.0 / np.log(1.0 / s), 0.5)
        with pytest.raises(ValueError, match=rf"^eps = {eps} is below omega"
                           r".*psi\(eps\) underflows$"):
            psi_of_eps(mod, eps)

    @pytest.mark.parametrize("omega,nearest", [
        (lambda s: 2.0 * s, lambda eps: 0.4 * eps),
        (np.sqrt, lambda eps: sqrt_modulus_root(eps) ** 2),
        (lambda s: 1.0 / np.log(1.0 / s), lambda eps: math.exp(-1.0 / eps)),
    ], ids=["linear", "sqrt", "dini"])
    @pytest.mark.parametrize("eps", [0.05, 0.0132, 0.002])
    def test_no_point_of_a_fine_local_grid_is_nearer(self, omega, nearest,
                                                     eps):
        psi = psi_of_eps(ModulusOfContinuity(omega, 0.5), eps)
        s = nearest(eps) * np.exp(np.linspace(-1e-3, 1e-3, 400_001))
        assert psi <= np.hypot(s, omega(s) - eps).min() * (1.0 + 1e-12)

    @pytest.mark.parametrize("omega", [lambda s: 2.0 * s, np.sqrt,
                                       lambda s: 1.0 / np.log(1.0 / s)],
                             ids=["linear", "sqrt", "dini"])
    def test_search_shape(self, omega):
        # each search narrows whole arrays: no one-point calls, and few
        sizes = []

        def recorded(s):
            sizes.append(np.size(s))
            return omega(s)

        mod = ModulusOfContinuity(recorded, 0.5)
        for eps in (0.3, 0.0132, 0.002):
            sizes.clear()
            psi_of_eps(mod, eps)
            assert min(sizes) >= 2
            assert len(sizes) <= 40
