"""Scaling invariance as an oracle on the radial domains and the ellipse.

Replacing (domain, x, R, eps) by (k domain, k x, k R, k eps) leaves every
q-mean mu, log u at a given tau = d/xi and the barrier values unchanged,
and scales the level-set areas by k^(N-1).  With k = 2^j the scaling is
exact in floating point, so an answer that moves with k shows the
algorithm's own scale dependence, not rounding.  Two setups, each at
eps = 0.02 k with the exact radial solution as the profile:

- the ball, N = 2, of radius k, x = (k/2, 0), R = k/2
- the exterior of the ball of radius k, N = 3, x = (2k, 0, 0), R = k

j runs over the range where touching_ball accepts the squares of R and
|x|: to 512 on the ball, and to 510 on the exterior, whose |x| = 2k.

The ellipse with semi-axes (2k, k), x = (0, k/2), R = k/2 is built from
its k = 1 touching ball with every length times k and the curvature over k,
since touching_ball's projection does not reach these scales; its barrier
rows of qmean_limit_experiment are compared from k = 2^-332 to 2^332.
"""

import functools

import numpy as np
import pytest

from resolvent_asym.barriers import enhanced_U, enhanced_V
from resolvent_asym.geometry import (BallDomain, EllipseDomain,
                                     ExteriorBallDomain, TouchingBallConfig,
                                     level_set_area, touching_ball)
from resolvent_asym.params import INFINITY, ProblemParams
from resolvent_asym.qmeans import (QMeanQuery, q_mean, qmean_limit_experiment,
                                   solution_profile)
from resolvent_asym.radial import RadialSolution, eval_log_u

SCALES = (-509, -350, -100, 0, 100, 350, 509)
# kind: (domain class, N, x / k, R / k, the exponents j of k = 2^j)
SETUPS = {"ball": (BallDomain, 2, (0.5, 0.0), 0.5, SCALES + (512,)),
          "exterior": (ExteriorBallDomain, 3, (2.0, 0.0, 0.0), 1.0,
                       SCALES + (510,))}
DISTANCES = np.array([0.0, 0.01, 0.3])
TAUS = np.array([0.0, 1.0, 5.0])
LEVELS = np.array([0.01, 0.3, 0.9])


def configuration(kind: str, j: int):
    """(domain, touching ball, k) of the setup at k = 2^j."""
    cls, _, x, R, _ = SETUPS[kind]
    k = 2.0 ** j
    domain = cls(k)
    return domain, touching_ball(domain, [k * xi for xi in x], k * R), k


@functools.lru_cache(maxsize=None)
def answers(kind: str, j: int) -> dict:
    """Every scale-free answer of the setup at k = 2^j, by name."""
    domain, cfg, k = configuration(kind, j)
    out = {"area": level_set_area(domain, cfg, k * LEVELS)
           / 2.0 ** (j * (cfg.n - 1))}
    for p in (2.0, INFINITY):
        pp = ProblemParams(n=cfg.n, p=p, eps=0.02 * k)
        out[f"log_u p={p}"] = eval_log_u(RadialSolution(pp, domain),
                                         domain.radius(k * DISTANCES))
        out[f"U p={p}"] = enhanced_U(pp, cfg.R, TAUS)
        out[f"V p={p}"] = enhanced_V(pp, cfg.R, TAUS)
        profile = solution_profile(pp, domain)
        for q in (1.5, 2.0, 3.0):
            out[f"mu p={p} q={q}"] = q_mean(QMeanQuery(
                cfg=cfg, q=q, xi=pp.xi, profile=profile)).mu
    return out


@pytest.mark.parametrize("kind,j", [(kind, j) for kind in SETUPS
                                    for j in SETUPS[kind][4] if j != 0])
def test_answers_do_not_move_with_the_scale(kind, j):
    got, want = answers(kind, j), answers(kind, 0)
    for name, value in want.items():
        np.testing.assert_allclose(got[name], value, rtol=1e-12, atol=0.0,
                                   err_msg=name)


def test_touching_radius_checked_relative_to_r():
    # d(x) = 5e-101 = 5 R: an absolute tolerance of 1e-9 let this through
    with pytest.raises(ValueError, match="not R = 1e-101"):
        touching_ball(BallDomain(1e-100), [5e-101, 0.0], 1e-101)


ELLIPSE = touching_ball(EllipseDomain(2.0, 1.0), [0.0, 0.5], 0.5)
ELLIPSE_LEVELS = np.array([0.01, 0.1, 0.3, 0.6, 0.9])


@functools.lru_cache(maxsize=None)
def ellipse_answers(j: int) -> dict:
    """The ellipse's areas over k and its 8 barrier-row mu at k = 2^j."""
    k = 2.0 ** j
    cfg = TouchingBallConfig(x=k * ELLIPSE.x, R=k * ELLIPSE.R,
                             y_x=k * ELLIPSE.y_x,
                             curvatures=ELLIPSE.curvatures / k,
                             domain=EllipseDomain(2.0 * k, k))
    out = {"area": level_set_area(cfg.domain, cfg, k * ELLIPSE_LEVELS) / k}
    for p, q in ((INFINITY, 2.0), (3.0, 1.5)):
        rows = qmean_limit_experiment(
            [ProblemParams(n=2, p=p, eps=e * k) for e in (0.05, 0.02)], cfg, q)
        for row in rows:
            out[f"mu p={p} q={q} eps={row['eps'] / k:g} {row['path']}"] = \
                row["mu"]
    return out


@pytest.mark.parametrize("j", [-332, -300, -100, 100, 256, 300, 332])
def test_ellipse_answers_do_not_move_with_the_scale(j):
    got, want = ellipse_answers(j), ellipse_answers(0)
    assert len(want) == 9
    for name, value in want.items():
        np.testing.assert_allclose(got[name], value, rtol=1e-12, atol=0.0,
                                   err_msg=name)
