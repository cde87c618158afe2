import collections
import gc
import hashlib
import math
import sys
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from resolvent_asym.barriers import enhanced_U, enhanced_V
from resolvent_asym.geometry import (
    BallDomain,
    ExteriorBallDomain,
    ImplicitDomain,
    boundary_distances,
    level_set_area,
    make_ellipse_domain,
    touching_ball,
)
from resolvent_asym.params import (
    INFINITY,
    ProblemParams,
    c_nq,
    conjugate,
    limit_prediction,
)
from resolvent_asym.radial import Geometry, RadialSolution, eval_log_u
from resolvent_asym.quadrature import (
    integrate_sin_weighted,
    integrate_sinh_weighted,
    log_sin_kernel,
    log_sinh_kernel,
)
from resolvent_asym import geometry, qmeans, quadrature
from resolvent_asym.qmeans import (
    QMeanQuery,
    _empirical_qmean,
    q_mean,
    q_mean_bruteforce,
    qmean_limit_experiment,
    qmean_profile_limit,
    solution_profile,
)


def sample_ball(x, R: float, n: int, seed: int) -> np.ndarray:
    """n uniform points of B_R(x) from default_rng(seed): the sampler's
    blocks, concatenated."""
    return np.concatenate(list(geometry._ball_blocks(
        np.random.default_rng(seed), np.asarray(x, dtype=float), R, n)))


BALL_CFG = touching_ball(BallDomain(1.0), [0.5, 0.0], 0.5)
EXT_CFG = touching_ball(ExteriorBallDomain(1.0), [2.0, 0.0], 1.0)


def exp_profile(tau):
    return np.exp(-np.asarray(tau, dtype=float))


ELLIPSE_CFG = touching_ball(make_ellipse_domain(2.0, 1.0), [0.0, 0.5], 0.5)


def barrier_bruteforce(cfg, pp, barrier, q, n_samples, seed):
    """q_mean_bruteforce of exp(barrier(pp, R, d/xi)), d the clipped
    boundary distance: the Monte Carlo barrier rows that
    qmean_limit_experiment drew on implicit domains before the ellipse had
    closed-form areas."""
    def raw(pts):
        d = np.maximum(boundary_distances(cfg.domain, pts), 0.0)
        return np.exp(barrier(pp, cfg.R, d / pp.xi))

    return q_mean_bruteforce(cfg, q, raw, n_samples=n_samples, seed=seed)


class TestKernelTable:
    """The closed-form kernels that solution profiles evaluate."""

    def test_sin_table_accuracy(self):
        for s in (0.0, 0.37, 1.0, 4.2, 55.0, 1.7e3, 2.9e4):
            assert log_sin_kernel(s, 0.0) == pytest.approx(
                integrate_sin_weighted(s, 0.0).log_magnitude, abs=1e-9)

    def test_sinh_table_accuracy(self):
        for s in (2e-4, 0.31, 7.7, 940.0, 1.9e4):
            assert log_sinh_kernel(s, 0.5) == pytest.approx(
                integrate_sinh_weighted(s, 0.5).log_magnitude, abs=1e-9)

    def test_array_and_scalar_calls(self):
        for kernel in (log_sin_kernel, log_sinh_kernel):
            arr = kernel(np.array([0.5, 3.0, 100.0]), 0.0)
            assert arr.shape == (3,)
            assert arr[1] == pytest.approx(kernel(3.0, 0.0))
            assert isinstance(kernel(3.0, 0.0), float)


class TestQueryValidation:
    def test_q_range(self):
        with pytest.raises(ValueError):
            QMeanQuery(cfg=BALL_CFG, q=1.0, xi=0.1, profile=exp_profile)
        with pytest.raises(ValueError):
            QMeanQuery(cfg=BALL_CFG, q=0.5, xi=0.1, profile=exp_profile)

    def test_xi_positive(self):
        with pytest.raises(ValueError):
            QMeanQuery(cfg=BALL_CFG, q=2.0, xi=0.0, profile=exp_profile)

    def test_exactly_one_function(self):
        # the profile is a required argument
        with pytest.raises(TypeError, match="profile"):
            QMeanQuery(cfg=BALL_CFG, q=2.0, xi=0.1)

    def test_increasing_profile_rejected(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            QMeanQuery(cfg=BALL_CFG, q=2.0, xi=0.1,
                       profile=lambda t: np.asarray(t, dtype=float))

    def test_negative_profile_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            QMeanQuery(cfg=BALL_CFG, q=2.0, xi=0.1,
                       profile=lambda t: -1.0 - np.asarray(t, dtype=float))

    def test_nan_profile_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            QMeanQuery(cfg=BALL_CFG, q=2.0, xi=0.1, profile=lambda t: np.where(
                np.asarray(t) > 1.0, math.nan, 1.0))

    def test_implicit_domain_rejected(self):
        # the same ellipse without its semi-axes has no closed-form areas
        ell = make_ellipse_domain(2.0, 1.0)
        dom = ImplicitDomain(phi=ell.phi, grad=ell.grad, hess=ell.hess, dim=2)
        cfg = touching_ball(dom, [0.0, 0.5], 0.5)
        with pytest.raises(ValueError, match="q_mean_bruteforce"):
            QMeanQuery(cfg=cfg, q=2.0, xi=0.1, profile=exp_profile)
        QMeanQuery(cfg=ELLIPSE_CFG, q=2.0, xi=0.1, profile=exp_profile)


class TestEmpiricalRoot:
    def test_constant_exact(self):
        mu, res = _empirical_qmean(np.full(1000, 0.3), 2.0)
        assert mu == 0.3
        assert res == 0.0

    def test_q2_equals_mean(self):
        rng = np.random.default_rng(5)
        v = rng.random(20_000)
        mu, res = _empirical_qmean(v, 2.0)
        assert mu == pytest.approx(float(np.mean(v)), abs=1e-12)
        assert abs(res) < 1e-12

    def test_keeps_no_reference_to_the_sample(self):
        # the root search must not leave the sample in a reference cycle,
        # which only the cyclic garbage collector would free
        v = np.exp(-3.0 * np.random.default_rng(7).random(10_000))
        ref = weakref.ref(v)
        gc.disable()
        try:
            _empirical_qmean(v, 3.0)
            del v
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 6.0])
    def test_root_residual_small(self, q):
        rng = np.random.default_rng(6)
        v = np.exp(-3.0 * rng.random(10_000))
        mu, res = _empirical_qmean(v, q)
        assert v.min() < mu < v.max()
        assert abs(res) < 1e-12

    def test_small_mean_is_resolved(self):
        # one value 1 among 999 zeros at q = 1.1: mu / (1 - mu) = 999^-10,
        # far below 2^-60 (max - min), where the root once stopped
        v = np.zeros(1000)
        v[-1] = 1.0
        mu, _ = _empirical_qmean(v, 1.1)
        assert mu == pytest.approx(999.0 ** -10, rel=1e-12, abs=0.0)

    def test_tiny_sample_is_not_constant(self):
        # values far below 1 with spread: the root, not the midrange
        v = 1e-200 * np.exp(-3.0 * np.random.default_rng(6).random(1000))
        mu, _ = _empirical_qmean(v, 1.5)
        assert mu == brentq_root(lambda m: qmeans._sample_G(
            m, v, 0.5, np.empty_like(v)), v.min(), v.max())


class TestConstantFixedPoint:
    @pytest.mark.parametrize("q", [1.5, 2.0, 4.0])
    def test_profile_constant(self, q):
        query = QMeanQuery(cfg=BALL_CFG, q=q, xi=0.1,
                           profile=lambda t: np.full_like(
                               np.asarray(t, dtype=float), 0.7))
        res = q_mean(query)
        assert res.mu == 0.7
        assert res.residual == 0.0

    @pytest.mark.parametrize("scale", [1e-15, 1e-20])
    def test_small_profile_is_not_constant(self, scale):
        # the q-mean scales with the profile; below 1e-14 it came back as
        # the midrange 0.50002 scale, against 0.0868 scale
        def prof(t):
            return np.exp(-np.asarray(t, dtype=float))

        mu = q_mean(QMeanQuery(cfg=BALL_CFG, q=2.0, xi=0.1, profile=prof)).mu
        small = q_mean(QMeanQuery(cfg=BALL_CFG, q=2.0, xi=0.1,
                                  profile=lambda t: scale * prof(t))).mu
        assert small == pytest.approx(scale * mu, rel=1e-12, abs=0.0)

    def test_raw_constant(self):
        mu, se = q_mean_bruteforce(BALL_CFG, 3.0,
                                   lambda pts: np.full(len(pts), 0.25),
                                   n_samples=10_000)
        assert (mu, se) == (0.25, 0.0)

    def test_infinity_constant(self):
        query = QMeanQuery(cfg=BALL_CFG, q=INFINITY, xi=0.1,
                           profile=lambda t: np.full_like(
                               np.asarray(t, dtype=float), 0.4))
        assert q_mean(query).mu == pytest.approx(0.4)


class TestCoareaRoute:
    def test_q2_is_volume_average(self):
        # direct Fubini integration with an unrelated adaptive integrator
        params = ProblemParams(n=2, p=2.0, eps=0.05)
        prof = solution_profile(params, BALL_CFG.domain)
        query = QMeanQuery(cfg=BALL_CFG, q=2.0, xi=params.xi, profile=prof)
        res = q_mean(query)

        def num(s):
            return prof(s / params.xi) * level_set_area(
                BALL_CFG.domain, BALL_CFG, s)

        def den(s):
            return level_set_area(BALL_CFG.domain, BALL_CFG, s)

        smax = min(2.0 * BALL_CFG.R, 1.0)
        top, _ = quad(num, 0.0, smax, epsabs=1e-13, epsrel=1e-12, limit=200)
        bot, _ = quad(den, 0.0, smax, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert res.mu == pytest.approx(top / bot, abs=1e-8)
        assert abs(res.residual) < 1e-12

    def test_step_profile_against_lens_area(self):
        # indicator of {d_Gamma < t}: the q=2 mean is a volume fraction with
        # a two-circle intersection closed form
        t = 0.19
        xi = 0.05
        T = t / xi
        prof = lambda tau: (np.asarray(tau, dtype=float) < T).astype(float)
        query = QMeanQuery(cfg=BALL_CFG, q=2.0, xi=xi, profile=prof)
        res = q_mean(query)
        r1, r2, c = BALL_CFG.R, 1.0 - t, 0.5
        lens = (r1 * r1 * math.acos((c * c + r1 * r1 - r2 * r2)
                                    / (2.0 * c * r1))
                + r2 * r2 * math.acos((c * c + r2 * r2 - r1 * r1)
                                      / (2.0 * c * r2))
                - 0.5 * math.sqrt((-c + r1 + r2) * (c + r1 - r2)
                                  * (c - r1 + r2) * (c + r1 + r2)))
        vol = math.pi * r1 * r1
        assert res.mu == pytest.approx((vol - lens) / vol, abs=1e-9)

    def test_residual_below_tolerance(self):
        for q in (1.5, 2.5, 4.0):
            query = QMeanQuery(cfg=EXT_CFG, q=q, xi=0.08, profile=exp_profile)
            res = q_mean(query)
            assert abs(res.residual) < 1e-12
            assert 0.0 < res.mu < 1.0

    @pytest.mark.parametrize("n,eps", [(4, 1e-5), (5, 1e-5), (6, 1e-4),
                                       (6, 1e-5), (4, 2.1544e-5),
                                       (5, 6.8129e-5)])
    def test_small_mean_is_resolved(self, n, eps):
        # mu ~ (eps/R)^((N+1)/(2(q-1))) falls below 2^-60 (f0 - fend), where
        # the root once stopped: at fend = 0, or, in the last two cases,
        # at 5.45e-19 and 4.34e-19; the scaled mu is within 1% of its limit
        cfg = touching_ball(BallDomain(1.0), [0.5] + [0.0] * (n - 1), 0.5)
        pp = ProblemParams(n=n, p=3.0, eps=eps)
        res = q_mean(QMeanQuery(cfg=cfg, q=1.5, xi=pp.xi,
                                profile=solution_profile(pp, cfg.domain)))
        scaled = (cfg.R / eps) ** ((n + 1) / (2.0 * 0.5)) * res.mu
        prediction = limit_prediction(n, 3.0, 1.5, cfg.curvatures, cfg.R)
        assert scaled == pytest.approx(prediction, rel=0.01)
        assert abs(res.residual) < 1e-12

    def test_small_resolved_mean_returns(self):
        cfg = touching_ball(BallDomain(1.0), [0.5] + [0.0] * 5, 0.5)
        pp = ProblemParams(n=6, p=3.0, eps=1e-3)
        prof = solution_profile(pp, cfg.domain)
        res = q_mean(QMeanQuery(cfg=cfg, q=1.5, xi=pp.xi, profile=prof))
        # the profile's end value fend = prof(smax/xi) underflows to 0
        assert prof(1.0 / pp.xi) == 0.0
        assert res.mu == pytest.approx(4.3988061e-14, rel=1e-7)


class TestInfinityMidrange:
    def test_literal_formula(self):
        query = QMeanQuery(cfg=BALL_CFG, q=INFINITY, xi=0.25,
                           profile=exp_profile)
        expected = 0.5 * (1.0 + math.exp(-2.0 * 0.5 / 0.25))
        assert q_mean(query).mu == pytest.approx(expected, rel=1e-14)

    def test_tends_to_half(self):
        vals = [q_mean(QMeanQuery(cfg=BALL_CFG, q=INFINITY, xi=xi,
                                  profile=exp_profile)).mu
                for xi in (0.2, 0.05, 0.01)]
        devs = [abs(v - 0.5) for v in vals]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-3

    def test_ball_reaching_the_center(self):
        # R > rho/2: the largest distance in B_R(x) is rho = 1, not 2R = 1.5
        cfg = touching_ball(BallDomain(1.0), [0.25, 0.0], 0.75)
        query = QMeanQuery(cfg=cfg, q=INFINITY, xi=1.0, profile=exp_profile)
        assert q_mean(query).mu == pytest.approx(
            0.5 * (1.0 + math.exp(-1.0)), rel=1e-14)

    def test_wrong_q_rejected(self):
        # only +inf is the midrange; nan and -inf are not exponents
        for q in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="q must be > 1"):
                QMeanQuery(cfg=BALL_CFG, q=q, xi=0.1, profile=exp_profile)

    def test_result_fields(self):
        res = q_mean(QMeanQuery(cfg=BALL_CFG, q=INFINITY, xi=0.25,
                                profile=exp_profile))
        assert res.residual == 0.0


class TestInvariants:
    def test_translation_equivariance_raw(self):
        xi = 0.1

        def base(pts):
            d = np.maximum(boundary_distances(BALL_CFG.domain, pts), 0.0)
            return np.exp(-d / xi)

        shift = -0.2
        mu0, _ = q_mean_bruteforce(BALL_CFG, 3.0, base, n_samples=50_000)
        mu1, _ = q_mean_bruteforce(BALL_CFG, 3.0, lambda p: base(p) + shift,
                                   n_samples=50_000)
        assert mu1 - mu0 == pytest.approx(shift, abs=1e-12)

    def test_order_preservation_on_barriers(self):
        dom = make_ellipse_domain(2.0, 1.0)
        cfg = touching_ball(dom, [0.0, 0.5], 0.5)
        params = ProblemParams(n=2, p=INFINITY, eps=0.05)
        pts = sample_ball(cfg.x, cfg.R, 40_000, seed=9)
        d = np.maximum(boundary_distances(dom, pts), 0.0)
        tau = d / params.xi
        u_vals = np.exp(enhanced_U(params, cfg.R, tau))
        v_vals = np.exp(enhanced_V(params, cfg.R, tau))
        assert np.all(u_vals <= v_vals + 1e-15)
        mu_u, _ = _empirical_qmean(u_vals, 2.0)
        mu_v, _ = _empirical_qmean(v_vals, 2.0)
        assert mu_u <= mu_v

    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_coarea_matches_bruteforce(self, q):
        params = ProblemParams(n=2, p=2.0, eps=0.1)
        prof = solution_profile(params, BALL_CFG.domain)
        res = q_mean(QMeanQuery(cfg=BALL_CFG, q=q, xi=params.xi,
                                profile=prof))

        def raw(pts):
            d = np.maximum(boundary_distances(BALL_CFG.domain, pts), 0.0)
            return prof(d / params.xi)

        mu_mc, se = q_mean_bruteforce(BALL_CFG, q, raw, n_samples=400_000,
                                      seed=21)
        assert abs(res.mu - mu_mc) <= 3.0 * se
        assert se < 0.01

    def test_bruteforce_q2_se_is_mean_error(self):
        raw = lambda pts: np.asarray(pts[:, 0], dtype=float)
        mu, se = q_mean_bruteforce(BALL_CFG, 2.0, raw, n_samples=100_000,
                                   seed=3)
        pts = sample_ball(BALL_CFG.x, BALL_CFG.R, 100_000, seed=3)
        v = pts[:, 0]
        assert mu == pytest.approx(float(np.mean(v)), abs=1e-10)
        assert se == pytest.approx(float(np.std(v)) / math.sqrt(v.size),
                                   rel=1e-3)

    @pytest.mark.parametrize("domain,x,R,expected", [
        (BallDomain(1.0), [0.5, 0.0], 0.5,
         (0.08656110488767073, 0.0005045168626329552)),
        (ExteriorBallDomain(1.0), [2.0, 0.0], 1.0,
         (0.018413685169259467, 0.0002476145834543002)),
        (ExteriorBallDomain(1.0), [2.0, 0.0, 0.0], 1.0,
         (0.007851599085123265, 0.00013438818778155838)),
    ])
    def test_bruteforce_recorded(self, domain, x, R, expected):
        # recorded before the column rewrite of the sampler and distances
        cfg = touching_ball(domain, np.array(x), R)
        pp = ProblemParams(n=cfg.n, p=INFINITY, eps=0.1)
        prof = solution_profile(pp, domain)

        def raw(pts):
            return prof(np.maximum(boundary_distances(domain, pts), 0.0)
                        / pp.xi)

        assert q_mean_bruteforce(cfg, 2.0, raw, n_samples=100_000,
                                 seed=17) == expected

    def test_bruteforce_implicit_recorded(self):
        # the implicit-domain q-mean: q_mean's former Monte Carlo branch gave
        # this mu on the same sample
        dom = make_ellipse_domain(2.0, 1.0)
        cfg = touching_ball(dom, [0.0, 0.5], 0.5)

        def raw(pts):
            return exp_profile(np.maximum(boundary_distances(dom, pts), 0.0)
                               / 0.1)

        mu, _ = q_mean_bruteforce(cfg, 2.0, raw, n_samples=50_000, seed=3)
        assert mu == 0.06926128851375023

    @pytest.mark.parametrize("n_samples", [0, 1, 2.5, np.float64(100.0)])
    def test_bruteforce_rejects_bad_sample_counts(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            q_mean_bruteforce(BALL_CFG, 2.0, lambda pts: pts[:, 0],
                              n_samples=n_samples)

    def test_bruteforce_rejects_infinite_q(self):
        with pytest.raises(ValueError):
            q_mean_bruteforce(BALL_CFG, INFINITY,
                              lambda pts: np.ones(len(pts)))

    def test_bruteforce_small_values_not_taken_as_constant(self):
        # N = 6, p = 3, q = 1.5, eps = 1e-4: the solution underflows away
        # from the contact, and 10 points at seed 5 are the smallest sample
        # with a nonzero value (9.1e-204).  Its spread was below the
        # absolute 1e-14 that marked a sample constant, so the midrange
        # 4.6e-204 came back with se 1.7e-204; with nine zeros the sample's
        # q-mean is 1/82 of its max, and its error bar exceeds it
        x = np.zeros(6)
        x[0] = 0.5
        cfg = touching_ball(BallDomain(1.0), x, 0.5)
        pp = ProblemParams(n=6, p=3.0, eps=1e-4)
        prof = solution_profile(pp, cfg.domain)

        def raw(pts):
            return prof(np.maximum(boundary_distances(cfg.domain, pts), 0.0)
                        / pp.xi)

        v = sample_ball(cfg.x, cfg.R, 10, seed=5)
        top = float(np.max(raw(v)))
        assert top == pytest.approx(9.105917828836623e-204, rel=1e-12, abs=0)
        mu, se = q_mean_bruteforce(cfg, 1.5, raw, n_samples=10, seed=5)
        assert mu == pytest.approx(top / 82.0, rel=1e-12, abs=0)
        assert se > mu


class TestProfileLimit:
    @pytest.mark.parametrize("cfg,n", [(BALL_CFG, 2), (EXT_CFG, 2)])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_exponential_profile_closed_form(self, cfg, n, q):
        got = qmean_profile_limit(cfg, q, exp_profile)
        expected = c_nq(n, q) * cfg.pi_gamma ** (-1.0 / (2.0 * (q - 1.0)))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_pi_gamma_power_law(self):
        # Pi grows by a factor 4 between the two configs; at q = 1.5 the
        # exponent -1/(2(q-1)) is -1, so the limit drops by that same factor
        a = qmean_profile_limit(BALL_CFG, 1.5, exp_profile)   # Pi = 0.5
        b = qmean_profile_limit(EXT_CFG, 1.5, exp_profile)    # Pi = 2.0
        assert a / b == pytest.approx(4.0, rel=1e-10)

    def test_infinity_returns_half_f0(self):
        assert qmean_profile_limit(BALL_CFG, INFINITY, exp_profile) == \
            pytest.approx(0.5)
        assert qmean_profile_limit(
            BALL_CFG, INFINITY,
            lambda t: 0.6 * np.ones_like(np.asarray(t, dtype=float))) == \
            pytest.approx(0.3)

    def test_zero_profile_rejected(self):
        with pytest.raises(ValueError, match="integrates to zero"):
            qmean_profile_limit(BALL_CFG, 2.0, lambda t: np.zeros_like(
                np.asarray(t, dtype=float)))

    def test_divergent_profile_rejected(self):
        slow = lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float))
        with pytest.raises(ValueError, match="converge"):
            qmean_profile_limit(EXT_CFG, 2.0, slow)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, INFINITY])
    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_two_constant_routes_agree(self, p, q):
        # profile-integral route vs the gamma-function closed form
        n = 2
        route_a = limit_prediction(n, p, q, BALL_CFG.curvatures, BALL_CFG.R)
        pp = conjugate(p)
        route_b = qmean_profile_limit(BALL_CFG, q, exp_profile) \
            * pp ** (-(n + 1.0) / (4.0 * (q - 1.0)))
        assert route_b == pytest.approx(route_a, rel=1e-10)


class TestRecordedCoarea:
    """sha256 of the co-area q-means and profile limits, recorded before the
    fixed-level rule evaluated all of its levels in one integrand call.  The
    q-mean digest was re-recorded when the sphere caps took the half-angle
    form (each of its 54 mu moved by at most 4.3e-15 relative), and again
    when Brent stopped at 4 ulp of the root rather than at 2^-60 of the
    bracket (21 mu moved, by at most 7.0e-14 relative).
    test_mpmath_oracles checks the p = inf means on these domains at
    q = 1.5, 2 and 3 against mpmath to 1e-14."""

    CONFIGS = (BALL_CFG, EXT_CFG,
               touching_ball(ExteriorBallDomain(1.0), [2.0, 0.0, 0.0], 1.0))

    def test_q_mean_digest(self):
        records = []
        for cfg in self.CONFIGS:
            for p in (1.5, 2.0, INFINITY):
                for eps in (0.05, 0.02):
                    pp = ProblemParams(n=cfg.n, p=p, eps=eps)
                    prof = solution_profile(pp, cfg.domain)
                    for q in (1.5, 2.0, 3.0):
                        res = q_mean(QMeanQuery(cfg=cfg, q=q, xi=pp.xi,
                                                profile=prof))
                        scaled = (cfg.R / pp.xi) ** qmeans._scaled_exponent(
                            cfg.n, q) * res.mu
                        records.append(repr((res.mu, scaled, res.residual)))
        assert len(records) == 54
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert digest == (
            "14dd642edc5f8b4a51fe64e27b7c529f65000cc37e3b5e69236b38d16b414f5a")

    def test_one_area_call_per_integral(self):
        calls = []
        cfg = self.CONFIGS[2]
        _, area = cfg.domain.level_sets(cfg)

        def counted(s):
            calls.append(s)
            return area(s)

        pp = ProblemParams(n=3, p=2.0, eps=0.05)
        prof = solution_profile(pp, cfg.domain)
        query = QMeanQuery(cfg=cfg, q=2.0, xi=pp.xi, profile=prof)
        object.__setattr__(query, "area", counted)
        smax = 2.0 * cfg.R
        assert query.s_max == smax
        # mu between the profile's end values: both integrals are taken
        mu = 0.5 * (prof(0.0) + prof(smax / pp.xi))
        qmeans._coarea_G(mu, query)
        assert len(calls) == 2

    def test_profile_limit_digest(self):
        records = [repr(qmean_profile_limit(cfg, q, exp_profile))
                   for cfg in self.CONFIGS for q in (1.5, 2.0, 3.0)]
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert digest == (
            "c957a613462b547c2bdee5ee92103a29dc1dcc02cd918419142624f19d591e70")


class TestRecordedMonteCarlo:
    """Monte Carlo q-means recorded before the sampler drew in blocks; the
    sample sizes are not multiples of the 8,192-point block."""

    ELLIPSE_CFG = ELLIPSE_CFG

    @pytest.mark.parametrize("case,q,expected", [
        ("ball", 1.5, (0.02351428233484927, 0.0003326081287788858)),
        ("ball", 3.0, (0.12504818811647175, 0.0011853935577060956)),
        ("ext3", 1.5, (0.00023258020433325835, 9.207583572668864e-06)),
        ("ext3", 3.0, (0.027567933196670568, 0.0010877973533818096)),
        ("ellipse", 1.5, (0.03337970499262071, 0.000419003120808755)),
        ("ellipse", 3.0, (0.13944036712349073, 0.00118071019272742)),
    ])
    def test_bruteforce(self, case, q, expected):
        if case == "ellipse":
            cfg, prof, xi = self.ELLIPSE_CFG, exp_profile, 0.1
        else:
            cfg = BALL_CFG if case == "ball" else touching_ball(
                ExteriorBallDomain(1.0), [2.0, 0.0, 0.0], 1.0)
            pp = ProblemParams(n=cfg.n, p=2.0, eps=0.1)
            prof, xi = solution_profile(pp, cfg.domain), pp.xi

        def raw(pts):
            return prof(np.maximum(boundary_distances(cfg.domain, pts), 0.0)
                        / xi)

        assert q_mean_bruteforce(cfg, q, raw, n_samples=5 * 8192 + 3,
                                 seed=23) == expected

    @pytest.mark.parametrize("p,expected", [
        (2.0, [0.06272024307306359, 0.0661006659082048,
               0.0380219715811156, 0.0390348855463204]),
        (INFINITY, [0.0826777555303361, 0.08268321287076061,
                    0.049779444865857364, 0.04977944498967818]),
    ])
    def test_implicit_limit_rows(self, p, expected):
        # the barrier rows the limit experiment drew on the ellipse before
        # its areas had a closed form: now the Monte Carlo oracle's
        mus = [barrier_bruteforce(self.ELLIPSE_CFG,
                                  ProblemParams(n=2, p=p, eps=e), barrier,
                                  3.0, 3 * 8192 + 5, 9)[0]
               for e in (0.05, 0.025) for barrier in (enhanced_U, enhanced_V)]
        assert mus == expected


def coarea_queries():
    """The 54 queries of TestRecordedCoarea.test_q_mean_digest."""
    for cfg in TestRecordedCoarea.CONFIGS:
        for p in (1.5, 2.0, INFINITY):
            for eps in (0.05, 0.02):
                pp = ProblemParams(n=cfg.n, p=p, eps=eps)
                prof = solution_profile(pp, cfg.domain)
                for q in (1.5, 2.0, 3.0):
                    yield QMeanQuery(cfg=cfg, q=q, xi=pp.xi, profile=prof)


def recorded_mc_means(q):
    """The sample q-means of TestRecordedMonteCarlo at q: the three
    brute-force cases and the Monte Carlo barrier rows at p = 2."""
    for case in ("ball", "ext3", "ellipse"):
        if case == "ellipse":
            cfg = TestRecordedMonteCarlo.ELLIPSE_CFG
            prof, xi = exp_profile, 0.1
        else:
            cfg = BALL_CFG if case == "ball" else touching_ball(
                ExteriorBallDomain(1.0), [2.0, 0.0, 0.0], 1.0)
            pp = ProblemParams(n=cfg.n, p=2.0, eps=0.1)
            prof, xi = solution_profile(pp, cfg.domain), pp.xi
        q_mean_bruteforce(
            cfg, q, lambda pts: prof(np.maximum(
                boundary_distances(cfg.domain, pts), 0.0) / xi),
            n_samples=5 * 8192 + 3, seed=23)
    for eps in (0.05, 0.025):
        for barrier in (enhanced_U, enhanced_V):
            barrier_bruteforce(ELLIPSE_CFG, ProblemParams(n=2, p=2.0, eps=eps),
                               barrier, q, 3 * 8192 + 5, 9)


def record(monkeypatch, name):
    """Replace qmeans.<name> by a wrapper that appends each call's
    arguments to the returned list."""
    calls = []
    real = getattr(qmeans, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qmeans, name, recording)
    return calls


def brentq_root(G, lo, hi):
    return brentq(G, lo, hi, xtol=sys.float_info.min, rtol=qmeans._RTOL)


# the port itself, whatever a test patches into qmeans._root
port_root = qmeans._root


class TestBrentPort:
    """qmeans._root is scipy's brentq line for line, fed with the end values
    its caller already holds: the same roots, never G twice at one point."""

    def assert_matches_brentq(self, roots):
        for G, lo, hi, g_lo, g_hi in roots:
            # the caller's end values are G's own
            assert (g_lo, g_hi) == (G(lo), G(hi))
            root, residual = port_root(G, lo, hi, g_lo, g_hi)
            assert type(root) is float
            assert residual == G(root) / max(abs(g_lo), abs(g_hi), 1e-300)
            if g_lo > 0.0 > g_hi:
                assert root == brentq_root(G, lo, hi)

    def test_coarea_roots_match_brentq(self, monkeypatch):
        # the q-means' G and every profile crossing they evaluate
        roots = record(monkeypatch, "_root")
        for query in coarea_queries():
            q_mean(query)
        monkeypatch.undo()
        # the crossings, on [0, smax], are among them
        assert {hi for _, lo, hi, _, _ in roots if lo == 0.0} == {1.0, 2.0}
        self.assert_matches_brentq(roots)

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_sample_roots_match_brentq(self, monkeypatch, q):
        # checked at the call: the brute-force oracle reuses its sample
        # array once the root is found
        checked = []

        def checking(*args):
            self.assert_matches_brentq([args])
            checked.append(args)
            return port_root(*args)

        monkeypatch.setattr(qmeans, "_root", checking)
        recorded_mc_means(q)
        assert len(checked) == 7

    def test_both_fail_after_100_iterations(self):
        # nonincreasing, with a root where the flat 20th power defeats
        # both the interpolation and Brent's step-halving test
        def G(x):
            return 0.9 - x if x < 0.9 else -1e6 * (x - 0.9) ** 20

        with pytest.raises(RuntimeError, match="100 iterations"):
            brentq_root(G, 0.0, 1.0)
        with pytest.raises(RuntimeError, match="100 iterations"):
            qmeans._root(G, 0.0, 1.0, G(0.0), G(1.0))

    def test_nan_raises_naming_x(self):
        def G(x):
            return math.nan if 0.25 < x < 0.75 else 0.5 - x

        # the first secant step from the ends lands on 0.5
        with pytest.raises(RuntimeError, match=r"NaN at x=0\.5$"):
            qmeans._root(G, 0.0, 1.0, G(0.0), G(1.0))
        with pytest.raises(RuntimeError, match=r"NaN at x=1\.0$"):
            qmeans._root(G, 0.0, 1.0, 0.5, math.nan)

    def test_no_coarea_G_argument_repeats(self, monkeypatch):
        calls = record(monkeypatch, "_coarea_G")
        ends = record(monkeypatch, "_coarea_ends")
        for query in coarea_queries():
            del calls[:], ends[:]
            q_mean(query)
            # G at both ends (fend, f0) from one call, then Brent's iterates
            assert ends == [(query,)]
            f0, fend = query.ends
            mus = [fend, f0] + [mu for mu, _ in calls]
            assert len(mus) == len(set(mus)) >= 2

    def test_no_crossing_evaluates_the_profile_at_an_end(self):
        for query in coarea_queries():
            taus = []

            def recording(tau, real=query.profile):
                if np.size(tau) == 1:
                    taus.append(float(tau[0]))
                return real(tau)

            object.__setattr__(query, "profile", recording)
            q_mean(query)
            # the crossing's one-element calls, all strictly inside
            tau_max = query.s_max / query.xi
            assert taus
            assert all(0.0 < t < tau_max for t in taus)

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_one_sample_G_per_distinct_mu(self, monkeypatch, q):
        empirical = record(monkeypatch, "_empirical_qmean")
        calls = record(monkeypatch, "_sample_G")
        recorded_mc_means(q)
        # three brute-force means and four barrier rows
        assert len(empirical) == 7
        mus = [args[0] for args in calls]
        assert len(mus) == len(set(mus))


class TestSetUpOnce:
    """A QMeanQuery builds its fixed-level rule once, and one profile call
    and one area call give both end values of G; counted on sweeps shaped
    like the benchmark's co-area and ellipse q-mean passes.  How many G
    evaluations Brent takes is the root's business, so the sweeps check
    the relation of the counts to it, not the count itself."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = collections.Counter()
        for module, name in ((quadrature, "_level_abscissae"),
                             (geometry, "_sphere_cap_area"),
                             (geometry, "_ellipse_level_area"),
                             (qmeans, "_coarea_G")):
            def counting(*args, name=name, real=getattr(module, name)):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        return counts

    @staticmethod
    def assert_set_up_once(counts, queries, area):
        # one rule of 7 levels per query; one area call for both end values
        # of each query, and one per integral, two in each G inside the
        # bracket
        assert set(counts) == {"_level_abscissae", area, "_coarea_G"}
        assert counts["_level_abscissae"] == 7 * queries
        assert counts[area] == queries + 2 * counts["_coarea_G"]

    def test_ball_sweep(self, counts):
        # 4 queries, two p by two eps
        for p in (2.0, INFINITY):
            seq = [ProblemParams(n=2, p=p, eps=e) for e in (0.02, 0.01)]
            qmean_limit_experiment(seq, BALL_CFG, 2.0)
        self.assert_set_up_once(counts, 4, "_sphere_cap_area")

    def test_four_row_ellipse_experiment(self, counts):
        # one query per row
        seq = [ProblemParams(n=2, p=INFINITY, eps=e) for e in (0.05, 0.025)]
        assert len(qmean_limit_experiment(seq, ELLIPSE_CFG, 2.0)) == 4
        self.assert_set_up_once(counts, 4, "_ellipse_level_area")

    def test_no_rule_at_q_infinity(self, counts):
        query = QMeanQuery(cfg=BALL_CFG, q=INFINITY, xi=0.1,
                           profile=exp_profile)
        assert query.rule is None
        q_mean(query)
        assert counts == {}

    def test_one_rule_per_profile_limit(self, counts):
        # level 7 over up to 16 segments: the abscissae of levels 0..7 once
        qmean_profile_limit(BALL_CFG, 1.5, exp_profile)
        assert counts == {"_level_abscissae": 8}

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_end_values_match_two_integrals(self, q):
        # _coarea_ends is _coarea_G at fend and f0, bit for bit
        for query in coarea_queries():
            if query.q != q:
                continue
            f0, fend = query.ends
            ends = qmeans._coarea_ends(query)
            pair = (qmeans._coarea_G(fend, query),
                    qmeans._coarea_G(f0, query))
            assert repr(ends) == repr(pair)

    def test_query_ends_are_the_scalar_profile_values(self):
        # the ends kept from the 129-point check are, bit for bit, the
        # profile called at 0 and at s_max/xi on its own
        def scalar_ends(query):
            prof = query.profile
            return tuple(float(prof(np.array([t]))[0])
                         for t in (0.0, query.s_max / query.xi))

        queries = list(coarea_queries())
        for p in (2.0, INFINITY):
            for eps in (0.05, 0.025):
                pp = ProblemParams(n=2, p=p, eps=eps)
                for barrier in (enhanced_U, enhanced_V):
                    queries.append(QMeanQuery(
                        cfg=ELLIPSE_CFG, q=2.0, xi=pp.xi,
                        profile=lambda tau, barrier=barrier, pp=pp:
                        np.exp(barrier(pp, ELLIPSE_CFG.R, tau))))
        assert len(queries) == 62
        for query in queries:
            assert repr(query.ends) == repr(scalar_ends(query))


class TestOneTubePerQuery:
    """EllipseDomain.level_sets builds one _EllipseTube per configuration."""

    @pytest.fixture
    def tubes(self, monkeypatch):
        calls = []
        real = geometry._EllipseTube.at.__func__

        def counting(cls, *args):
            calls.append(args)
            return real(cls, *args)

        monkeypatch.setattr(geometry._EllipseTube, "at",
                            classmethod(counting))
        return calls

    @pytest.mark.parametrize("q", [2.0, 1.5, 3.0])
    def test_one_per_q_mean(self, tubes, q):
        q_mean(QMeanQuery(cfg=ELLIPSE_CFG, q=q, xi=0.1, profile=exp_profile))
        assert len(tubes) == 1

    def test_one_per_level_set_area(self, tubes):
        level_set_area(ELLIPSE_CFG.domain, ELLIPSE_CFG,
                       np.linspace(0.1, 1.5, 15))
        level_set_area(ELLIPSE_CFG.domain, ELLIPSE_CFG, 0.5)
        assert len(tubes) == 2

    def test_four_row_experiment(self, tubes):
        # one tube per row
        seq = [ProblemParams(n=2, p=INFINITY, eps=e) for e in (0.02, 0.01)]
        assert len(qmean_limit_experiment(seq, ELLIPSE_CFG, 2.0)) == 4
        assert len(tubes) == 4


class TestLimitExperiment:
    def test_ball_ratio_toward_one(self):
        seq = [ProblemParams(n=2, p=2.0, eps=e) for e in (0.02, 0.01, 0.005)]
        rows = qmean_limit_experiment(seq, BALL_CFG, 2.0)
        assert [r["path"] for r in rows] == ["coarea"] * 3
        devs = [abs(r["ratio"] - 1.0) for r in rows]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.15
        assert all(not r["ill_conditioned"] for r in rows)

    def test_exterior_infinity_p(self):
        seq = [ProblemParams(n=2, p=INFINITY, eps=e)
               for e in (0.02, 0.01, 0.005)]
        rows = qmean_limit_experiment(seq, EXT_CFG, 2.0)
        devs = [abs(r["ratio"] - 1.0) for r in rows]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.1

    def test_infinity_q_column(self):
        seq = [ProblemParams(n=2, p=2.0, eps=e) for e in (0.02, 0.005)]
        rows = qmean_limit_experiment(seq, BALL_CFG, INFINITY)
        for r in rows:
            assert r["scaled"] == r["mu"]
            assert r["prediction"] == 0.5
        assert abs(rows[-1]["mu"] - 0.5) < 1e-3

    def test_implicit_infinity_q_draws_no_sample(self, monkeypatch):
        # the ellipse rows come from closed forms: no point is sampled or
        # projected, at q = INFINITY or finite q, and the seed changes
        # nothing.  At q = INFINITY the rows are those recorded when all
        # n_samples points were still drawn
        seq = [ProblemParams(n=2, p=2.0, eps=e) for e in (0.05, 0.025)]
        calls = []

        def counted(name):
            real = getattr(geometry, name)

            def counting(*args):
                calls.append(name)
                return real(*args)
            return counting

        for name in ("boundary_distances", "_project_implicit",
                     "_ball_blocks"):
            monkeypatch.setattr(geometry, name, counted(name))
        monkeypatch.setattr(qmeans, "_ball_blocks", counted("_ball_blocks"))
        for q in (INFINITY, 2.0, 3.0):
            rows = qmean_limit_experiment(seq, ELLIPSE_CFG, q,
                                          n_samples=1000, seed=9)
            assert calls == []
            assert rows == qmean_limit_experiment(seq, ELLIPSE_CFG, q,
                                                  n_samples=1000, seed=10)
            assert [r["path"] for r in rows] == ["barrier-U",
                                                 "barrier-V"] * 2
            if q == INFINITY:
                assert [r["mu"] for r in rows] == [
                    0.5000000000001511, 0.5000000000034528, 0.5, 0.5]
                assert [r["residual"] for r in rows] == [0.0] * 4
            with pytest.raises(ValueError, match="n_samples"):
                qmean_limit_experiment(seq, ELLIPSE_CFG, q, n_samples=0)
            with pytest.raises(ValueError, match="seed"):
                qmean_limit_experiment(seq, ELLIPSE_CFG, q, seed=-1)

    @pytest.mark.parametrize("cfg", [BALL_CFG, EXT_CFG], ids=["ball", "ext"])
    @pytest.mark.parametrize("name, bad", [("n_samples", 0), ("seed", -1)])
    def test_sampling_arguments_checked_on_radial_domains(self, cfg, name,
                                                          bad):
        seq = [ProblemParams(n=2, p=2.0, eps=0.05)]
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            qmean_limit_experiment(seq, cfg, 2.0, **{name: bad})

    def test_ill_conditioned_flag(self):
        seq = [ProblemParams(n=2, p=2.0, eps=0.02)]
        rows = qmean_limit_experiment(seq, BALL_CFG, 1.1)
        assert rows[0]["ill_conditioned"]

    def test_implicit_barrier_bracketing(self):
        dom = make_ellipse_domain(2.0, 1.0)
        cfg = touching_ball(dom, [0.0, 0.5], 0.5)
        seq = [ProblemParams(n=2, p=INFINITY, eps=e) for e in (0.05, 0.02)]
        rows = qmean_limit_experiment(seq, cfg, 2.0, n_samples=60_000)
        assert [r["path"] for r in rows] == ["barrier-U", "barrier-V"] * 2
        for lo, hi in zip(rows[0::2], rows[1::2]):
            assert lo["eps"] == hi["eps"]
            assert lo["scaled"] <= hi["scaled"]
            assert 0.2 < lo["ratio"] and hi["ratio"] < 5.0

    def test_implicit_recorded(self):
        # the Monte Carlo barrier rows, recorded before the column and block
        # rewrite of the projection, now drawn by the Monte Carlo oracle
        mus = [barrier_bruteforce(ELLIPSE_CFG,
                                  ProblemParams(n=2, p=INFINITY, eps=e),
                                  barrier, 2.0, 100_000, 9)[0]
               for e in (0.05, 0.025) for barrier in (enhanced_U, enhanced_V)]
        assert mus == [
            0.025826428316150615, 0.025832154545288595,
            0.009361254883457916, 0.009361255014499827]

    def test_implicit_rows_match_bruteforce(self):
        # the deterministic co-area rows against the Monte Carlo oracle on
        # the same barriers, 2e5 points
        seq = [ProblemParams(n=2, p=INFINITY, eps=e) for e in (0.05, 0.025)]
        rows = qmean_limit_experiment(seq, ELLIPSE_CFG, 2.0)
        for row, (pp, barrier) in zip(rows, [(pp, barrier) for pp in seq
                                             for barrier in (enhanced_U,
                                                             enhanced_V)]):
            mu, se = barrier_bruteforce(ELLIPSE_CFG, pp, barrier, 2.0,
                                        200_000, 11)
            assert abs(row["mu"] - mu) <= 3.0 * se

    def test_implicit_barrier_order_over_the_benchmark_range(self):
        # mu_U <= mu_V wherever the barriers' q-means differ by as little as
        # 1e-9 relative: eps0 in 0.05 e^[-0.1, 0.1] and eps0 / 2, at p = inf
        for eps0 in 0.05 * np.exp(np.linspace(-0.1, 0.1, 9)):
            seq = [ProblemParams(n=2, p=INFINITY, eps=e)
                   for e in (eps0, 0.5 * eps0)]
            rows = qmean_limit_experiment(seq, ELLIPSE_CFG, 2.0)
            for lo, hi in zip(rows[0::2], rows[1::2]):
                assert lo["mu"] <= hi["mu"]

    def test_other_implicit_domains_rejected(self):
        ell = make_ellipse_domain(2.0, 1.0)
        dom = ImplicitDomain(phi=ell.phi, grad=ell.grad, hess=ell.hess, dim=2)
        cfg = touching_ball(dom, [0.0, 0.5], 0.5)
        seq = [ProblemParams(n=2, p=INFINITY, eps=0.05)]
        with pytest.raises(ValueError, match="q_mean_bruteforce"):
            qmean_limit_experiment(seq, cfg, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            qmean_limit_experiment([], BALL_CFG, 2.0)
        mixed = [ProblemParams(n=2, p=2.0, eps=0.1),
                 ProblemParams(n=2, p=3.0, eps=0.05)]
        with pytest.raises(ValueError):
            qmean_limit_experiment(mixed, BALL_CFG, 2.0)
        wrong_n = [ProblemParams(n=3, p=2.0, eps=0.1)]
        with pytest.raises(ValueError):
            qmean_limit_experiment(wrong_n, BALL_CFG, 2.0)


class TestSolutionProfile:
    def test_exterior_infinity_is_exponential(self):
        params = ProblemParams(n=3, p=INFINITY, eps=0.1)
        prof = solution_profile(params, ExteriorBallDomain(1.0))
        tau = np.array([0.0, 0.7, 3.0])
        assert prof(tau) == pytest.approx(np.exp(-tau), rel=1e-14)

    def test_implicit_rejected(self):
        params = ProblemParams(n=2, p=2.0, eps=0.1)
        with pytest.raises(ValueError, match="radial domains only"):
            solution_profile(params, make_ellipse_domain())

    @pytest.mark.parametrize("cfg,geometry", [
        (BALL_CFG, Geometry.ball(1.0)), (EXT_CFG, Geometry.exterior(1.0))])
    def test_configuration_domain_is_the_radial_geometry(self, cfg, geometry):
        # the touching configuration's domain is the solution's geometry:
        # no conversion between two radial types
        params = ProblemParams(n=2, p=3.0, eps=0.1)
        sol = RadialSolution(params, cfg.domain)
        assert sol == RadialSolution(params, geometry)
        tau = np.linspace(0.0, 4.0, 9)
        r = geometry.radius(params.xi * tau)
        assert np.array_equal(solution_profile(params, cfg.domain)(tau),
                              np.exp(eval_log_u(sol, r)))

    def test_scalar_call(self):
        params = ProblemParams(n=2, p=INFINITY, eps=0.1)
        prof = solution_profile(params, ExteriorBallDomain(1.0))
        assert isinstance(prof(0.5), float)
