"""Property tests of the co-area q-mean: homogeneity, translation and order,
and its Brent root against scipy's brentq.

Each q-mean example runs a few co-area q-means over the closed-form level-set
areas of the ball and the two- and three-dimensional ball complements.
"""

import math
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, event, example, given, settings, strategies as st  # noqa: E402
from scipy.optimize import brentq  # noqa: E402

from resolvent_asym.barriers import enhanced_U, enhanced_V  # noqa: E402
from resolvent_asym.geometry import (  # noqa: E402
    BallDomain,
    ExteriorBallDomain,
    touching_ball,
)
from resolvent_asym.params import ProblemParams, conjugate  # noqa: E402
from resolvent_asym.qmeans import _RTOL, QMeanQuery, _root, q_mean  # noqa: E402

CONFIGS = {
    "ball": touching_ball(BallDomain(1.0), [0.5, 0.0], 0.5),
    "ext-2d": touching_ball(ExteriorBallDomain(1.0), [2.0, 0.0], 1.0),
    "ext-3d": touching_ball(ExteriorBallDomain(1.0), [2.0, 0.0, 0.0], 1.0),
}

cfgs = st.sampled_from(sorted(CONFIGS))
qs = st.floats(1.2, 5.0)
xis = st.floats(0.02, 0.32)
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def exp_profile(tau):
    return np.exp(-np.asarray(tau, dtype=float))


def mu_of(name, q, xi, profile):
    return q_mean(QMeanQuery(cfg=CONFIGS[name], q=q, xi=xi,
                             profile=profile)).mu


@SETTINGS
@given(name=cfgs, q=qs, xi=xis, c=st.floats(0.1, 5.0))
def test_positive_homogeneity(name, q, xi, c):
    base = mu_of(name, q, xi, exp_profile)
    scaled = mu_of(name, q, xi, lambda tau: c * exp_profile(tau))
    assert scaled == pytest.approx(c * base, rel=1e-12)


@SETTINGS
@given(name=cfgs, q=qs, xi=xis, shift=st.floats(0.0, 1.0))
def test_translation_equivariance(name, q, xi, shift):
    base = mu_of(name, q, xi, exp_profile)
    moved = mu_of(name, q, xi, lambda tau: exp_profile(tau) + shift)
    assert moved == pytest.approx(base + shift, abs=1e-12)


@SETTINGS
@given(name=cfgs, q=qs, xi=xis, p=st.floats(1.1, 20.0))
def test_barrier_order_preserved(name, q, xi, p):
    cfg = CONFIGS[name]
    params = ProblemParams(n=cfg.n, p=p, eps=xi * math.sqrt(conjugate(p)))
    mu_u = mu_of(name, q, params.xi,
                 lambda tau: np.exp(enhanced_U(params, cfg.R,
                                               np.asarray(tau))))
    mu_v = mu_of(name, q, params.xi,
                 lambda tau: np.exp(enhanced_V(params, cfg.R,
                                               np.asarray(tau))))
    assert mu_u <= mu_v + 1e-12


def _outcome(solve):
    try:
        return solve()
    except RuntimeError as e:
        assert "100 iterations" in str(e)
        return "no convergence"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["power", "steps"]), lo=st.floats(-10.0, 10.0),
       width=st.floats(1e-12, 20.0), at=st.floats(0.0, 1.0),
       k=st.floats(0.05, 25.0), w=st.floats(0.0, 2.0),
       ripple=st.floats(0.0, 2e-5))
# a step test that dropped its "- delta" would take another root here
@example(kind="power", lo=0.462, width=0.068, at=0.119, k=0.354, w=0.0,
         ripple=1.41e-06)
def test_root_is_brentq(kind, lo, width, at, k, w, ripple):
    # G crossing 0 near c: a signed power plus a slope and a ripple of
    # slope at most 1e-4 (nonincreasing but for that ripple), or a
    # nonincreasing staircase with k steps per unit that never touches 0
    hi, c = lo + width, lo + at * width
    if kind == "power":
        def G(x):
            return (-math.copysign(abs(x - c) ** k, x - c) - w * (x - c)
                    + ripple * math.sin(5.0 * x))
    else:
        def G(x):
            return -math.floor(k * (x - c)) - 0.5
    g_lo, g_hi = G(lo), G(hi)
    assume(g_lo > 0.0 > g_hi)
    ours = _outcome(lambda: _root(G, lo, hi, g_lo, g_hi)[0])
    theirs = _outcome(lambda: brentq(G, lo, hi, xtol=sys.float_info.min,
                                     rtol=_RTOL))
    event(f"{kind}: {'no convergence' if ours == 'no convergence' else 'root'}")
    assert ours == theirs
    assert ours == "no convergence" or type(ours) is float
