"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is checked at its stated tolerance and runtime budget.
Budgets are wall-clock seconds on a desk machine; each test hard-fails if
its budget is exceeded.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from resolvent_asym.barriers import enhanced_U, enhanced_V, sandwich_check
from resolvent_asym.experiments import GeometrySpec, SweepConfig, emit, \
    run_qmean_sweep, run_varadhan_sweep
from resolvent_asym.geometry import BallDomain, ExteriorBallDomain, \
    area_ratio_limit, boundary_distances, level_set_area, level_set_area_mc, \
    make_ellipse_domain, touching_ball
from resolvent_asym.params import INFINITY, ProblemParams, conjugate, \
    limit_prediction
from resolvent_asym.qmeans import QMeanQuery, q_mean, \
    q_mean_bruteforce, qmean_limit_experiment, qmean_profile_limit, \
    solution_profile
from resolvent_asym.radial import Geometry, RadialSolution, eval_log_u, \
    ode_residual, varadhan_residual
from resolvent_asym.special import MollifierKind, \
    bessel_k_identity_residual, f_asymptotic, f_exact, mollifier_expectation

BALL_CFG = touching_ball(BallDomain(1.0), np.array([0.5, 0.0]), 0.5)
EXT2_CFG = touching_ball(ExteriorBallDomain(1.0), np.array([2.0, 0.0]), 1.0)
EXT3_CFG = touching_ball(ExteriorBallDomain(1.0),
                         np.array([2.0, 0.0, 0.0]), 1.0)


@contextmanager
def criterion(num, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"[acceptance] criterion {num} {name}: FAIL")
        raise AssertionError(
            f"criterion {num} exceeded its {budget:.0f}s budget "
            f"({elapsed:.2f}s)")
    print(f"[acceptance] criterion {num} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_closed_form_exactness():
    with criterion(1, "closed-form exactness", budget=1.0):
        for sigma in (0.1, 1.0, 10.0, 100.0):
            f = f_exact(sigma, 1.0).value()
            assert f == pytest.approx(1.0 / sigma, rel=1e-10)
        params = ProblemParams(n=2, p=INFINITY, eps=0.1)
        sol = RadialSolution(params, Geometry.exterior(1.0))
        radii = np.linspace(1.0, 5.0, 100)
        res = np.asarray(varadhan_residual(sol, radii))
        assert np.max(np.abs(res)) <= 1e-12


def test_criterion_02_kernel_asymptotics():
    with criterion(2, "kernel asymptotic branches", budget=10.0):
        alphas = (-0.5, 0.0, 0.5, 1.0, 2.0)
        sigma = 1e3
        for alpha in alphas:
            branch = f_asymptotic(sigma, alpha)
            ratio = math.exp(f_exact(sigma, alpha).log_magnitude
                             - branch.leading_value)
            assert abs(ratio - 1.0) <= 10.0 / sigma, \
                f"large-sigma branch off at alpha={alpha}: ratio {ratio}"
        for alpha in (0.5, 1.0, 2.0):
            devs = []
            for small in (1e-3, 1e-4, 1e-5):
                branch = f_asymptotic(small, alpha)
                ratio = math.exp(f_exact(small, alpha).log_magnitude
                                 - branch.leading_value)
                devs.append(abs(ratio - 1.0))
            # at alpha = 1 the branch is exact and devs sit at rounding
            # level, so the decrease is only required above that floor
            assert all(b <= max(a, 1e-12) for a, b in zip(devs, devs[1:])), \
                f"small-sigma ratios not monotone at alpha={alpha}: {devs}"
            assert devs[2] < 0.02
        for sigma_g in (0.5, 5.0, 50.0):
            for alpha_g in (-0.5, 0.5, 1.5):
                assert abs(bessel_k_identity_residual(sigma_g, alpha_g)) \
                    < 1e-6


def test_criterion_03_mollifier_concentration():
    with criterion(3, "mollifier concentration", budget=5.0):
        for alpha in (0.0, 1.0):
            assert abs(mollifier_expectation(np.cos, 1e3, alpha,
                                             MollifierKind.MU) - 1.0) < 0.05
            assert abs(mollifier_expectation(np.cos, 1e5, alpha,
                                             MollifierKind.MU) - 1.0) < 0.005


def test_criterion_04_barrier_sandwich():
    with criterion(4, "barrier sandwich", budget=30.0):
        for p, n, eps in itertools.product((1.5, 2.0, 3.0, 5.0, INFINITY),
                                           (2, 3), (0.2, 0.05)):
            params = ProblemParams(n=n, p=p, eps=eps)
            violation = sandwich_check(params, Geometry.ball(1.0),
                                       np.linspace(0.0, 1.0, 50))
            assert violation <= 1e-9, \
                f"ball sandwich broken at p={p}, N={n}, eps={eps}"
            violation = sandwich_check(params, Geometry.exterior(1.0),
                                       np.linspace(1.0, 3.0, 50))
            assert violation <= 1e-9, \
                f"exterior sandwich broken at p={p}, N={n}, eps={eps}"


def test_criterion_05_ode_residual():
    with criterion(5, "radial equation residual", budget=10.0):
        for p, n in itertools.product((1.5, 2.0, 5.0, INFINITY), (2, 3)):
            params = ProblemParams(n=n, p=p, eps=0.1)
            sol = RadialSolution(params, Geometry.ball(1.0))
            for r in np.linspace(0.15, 0.85, 10):
                assert abs(ode_residual(sol, float(r))) < 1e-3, \
                    f"ball residual at p={p}, N={n}, r={r}"
            sol = RadialSolution(params, Geometry.exterior(1.0))
            for r in np.linspace(1.1, 2.5, 10):
                assert abs(ode_residual(sol, float(r))) < 1e-3, \
                    f"exterior residual at p={p}, N={n}, r={r}"


def test_criterion_06_varadhan_rates():
    with criterion(6, "distance-asymptotics rates", budget=30.0):
        cfg = SweepConfig(n_values=(2,), p_values=(2.0, 3.0, INFINITY),
                          q_values=(2.0,), eps_start=0.1, eps_factor=0.1,
                          eps_count=4,
                          geometry=GeometrySpec("ball", 1.0, 0.5))
        rows, fits = run_varadhan_sweep(cfg)
        eps_seq = np.asarray(cfg.eps_sequence)
        for p in cfg.p_values:
            center = np.array([row["residual"] for row in rows
                               if row["p"] == p and row["r"] == 0.0])
            model = eps_seq if p == INFINITY \
                else eps_seq * np.log(1.0 / eps_seq)
            ratios = center / model
            med = float(np.median(ratios))
            assert np.max(ratios) <= 2.0 * med, f"ratio grows at p={p}"
            assert np.min(ratios) >= 0.5 * med, f"ratio decays at p={p}"
            assert np.all(np.diff(center) < 0.0), \
                f"center residual not decreasing at p={p}"
            assert not fits[(2, p)].degenerate


def test_criterion_07_level_set_area_limit():
    with criterion(7, "level-set area limit", budget=60.0):
        for cfg in (BALL_CFG, EXT2_CFG, EXT3_CFG):
            n = cfg.n
            limit = area_ratio_limit(cfg)
            s = 1e-4
            ratio = level_set_area(cfg.domain, cfg, s) / s ** (0.5 * (n - 1))
            assert ratio == pytest.approx(limit, rel=0.01)
            s_mc, hw = 0.05, 0.005
            est, se = level_set_area_mc(cfg.domain, cfg, s_mc,
                                        n_samples=10_000_000, seed=5,
                                        half_width=hw)
            grid = np.linspace(s_mc - hw, s_mc + hw, 201)
            ref = float(np.mean([level_set_area(cfg.domain, cfg, float(g))
                                 for g in grid]))
            assert se > 0.0
            assert abs(est - ref) <= 3.0 * se, \
                f"MC area off by {abs(est-ref)/se:.1f} sigma in dim {n}"


def test_criterion_08_qmean_limit():
    with criterion(8, "scaled q-mean limit", budget=120.0):
        cfg = SweepConfig(n_values=(2,), p_values=(2.0, INFINITY),
                          q_values=(2.0, 3.0), eps_start=0.02,
                          eps_factor=0.5, eps_count=3,
                          geometry=GeometrySpec("ball", 1.0, 0.5))
        rows = run_qmean_sweep(cfg)
        assert len(rows) == 12
        for k in range(4):
            last = rows[3 * k + 2]
            assert last["eps"] == pytest.approx(0.005)
            assert abs(last["richardson"] / last["prediction"] - 1.0) < 0.05, \
                f"extrapolated limit off for p={last['p']}, q={last['q']}"
        for p, q in itertools.product((2.0, INFINITY), (2.0, 3.0)):
            closed = limit_prediction(2, p, q, BALL_CFG.curvatures,
                                      BALL_CFG.R)
            bridge = conjugate(p) ** (-(2 + 1) / (4.0 * (q - 1.0)))
            integral = qmean_profile_limit(
                BALL_CFG, q, lambda tau: np.exp(-tau)) * bridge
            assert integral == pytest.approx(closed, rel=1e-10)
        for p in (2.0, INFINITY):
            params = ProblemParams(n=2, p=p, eps=0.005)
            prof = solution_profile(params, BallDomain(1.0))
            query = QMeanQuery(cfg=BALL_CFG, q=INFINITY, xi=params.xi,
                               profile=prof)
            assert abs(q_mean(query).mu - 0.5) < 1e-3
        # the ellipse (2, 1) touched at its minor vertex, Pi_Gamma = 7/8:
        # the barrier pair's deterministic rows close in on the prediction
        ell = touching_ball(make_ellipse_domain(2.0, 1.0),
                            np.array([0.0, 0.5]), 0.5)
        assert ell.pi_gamma == pytest.approx(0.875, abs=1e-10)
        seq = [ProblemParams(n=2, p=INFINITY, eps=e)
               for e in (0.02, 0.01, 0.005, 0.0025)]
        rows = qmean_limit_experiment(seq, ell, 2.0)
        for path in ("barrier-U", "barrier-V"):
            devs = [abs(r["ratio"] - 1.0) for r in rows if r["path"] == path]
            assert devs[0] > devs[1] > devs[2] > devs[3]
            assert devs[3] < 0.005


def test_criterion_09_qmean_solver_properties():
    with criterion(9, "q-mean solver properties", budget=60.0):
        query = QMeanQuery(cfg=BALL_CFG, q=3.0, xi=0.05,
                           profile=lambda tau: np.full_like(
                               np.asarray(tau, dtype=float), 0.7))
        assert q_mean(query).mu == 0.7

        params = ProblemParams(n=2, p=2.0, eps=0.05)
        prof = solution_profile(params, BallDomain(1.0))
        xi = params.xi
        query = QMeanQuery(cfg=BALL_CFG, q=2.0, xi=xi, profile=prof)
        mu = q_mean(query).mu
        s_max = 1.0
        num = quad(lambda s: prof(s / xi)
                   * level_set_area(BALL_CFG.domain, BALL_CFG, s),
                   0.0, s_max, limit=400, epsabs=1e-13)[0]
        den = math.pi * BALL_CFG.R ** 2
        assert mu == pytest.approx(num / den, abs=1e-8)

        pp = ProblemParams(n=2, p=INFINITY, eps=0.1)
        prof_u = lambda tau: np.exp(enhanced_U(pp, 1.0, np.asarray(tau)))
        prof_v = lambda tau: np.exp(enhanced_V(pp, 1.0, np.asarray(tau)))
        for q in (1.5, 3.0):
            mu_u = q_mean(QMeanQuery(cfg=BALL_CFG, q=q, xi=0.1,
                                     profile=prof_u)).mu
            mu_v = q_mean(QMeanQuery(cfg=BALL_CFG, q=q, xi=0.1,
                                     profile=prof_v)).mu
            assert mu_u <= mu_v + 1e-10

        rng = np.random.default_rng(424242)
        cases = list(zip((2.0, INFINITY, 3.0, 2.0, INFINITY),
                         (BALL_CFG, EXT2_CFG, BALL_CFG, EXT2_CFG, BALL_CFG)))
        for i, (p, cfg) in enumerate(cases):
            q = 1.5 + 2.5 * float(rng.random())
            eps = 0.05 + 0.1 * float(rng.random())
            params = ProblemParams(n=2, p=p, eps=eps)
            dom = cfg.domain
            prof = solution_profile(params, dom)
            mu_c = q_mean(QMeanQuery(cfg=cfg, q=q, xi=params.xi,
                                     profile=prof)).mu

            def raw(pts, prof=prof, xi=params.xi, dom=dom):
                return prof(np.maximum(boundary_distances(dom, pts), 0.0)
                            / xi)

            mu_mc, se = q_mean_bruteforce(cfg, q, raw, n_samples=400_000,
                                          seed=90 + i)
            assert se < 0.02
            assert abs(mu_c - mu_mc) <= 3.0 * se, \
                f"case {i}: co-area {mu_c} vs MC {mu_mc} +- {se}"


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical reruns"):
        def pipeline(outdir):
            outdir.mkdir(exist_ok=True)
            cfg_q = SweepConfig(n_values=(2,), p_values=(INFINITY,),
                                q_values=(2.0,), eps_start=0.05,
                                eps_factor=0.5, eps_count=2,
                                geometry=GeometrySpec("ball", 1.0, 0.5),
                                seed=13)
            rows = run_qmean_sweep(cfg_q)
            emit(rows, str(outdir / "qmean.csv"), config=cfg_q)
            emit(rows, str(outdir / "qmean.json"), config=cfg_q)
            cfg_v = SweepConfig(n_values=(2,), p_values=(2.0, INFINITY),
                                q_values=(2.0,), eps_start=0.1,
                                eps_factor=0.1, eps_count=4,
                                geometry=GeometrySpec("exterior", 1.0, 1.0),
                                seed=13)
            vrows, _ = run_varadhan_sweep(cfg_v)
            emit(vrows, str(outdir / "rates.csv"), config=cfg_v)
            emit(vrows, str(outdir / "rates.json"), config=cfg_v)

        pipeline(tmp_path / "run_a")
        pipeline(tmp_path / "run_b")
        for name in ("qmean.csv", "qmean.json", "rates.csv", "rates.json"):
            a = (tmp_path / "run_a" / name).read_bytes()
            b = (tmp_path / "run_b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
