"""Working sets of the Monte Carlo oracles, by tracemalloc.

The samplers draw in blocks, so memory grows with the sample size only
through the arrays a caller keeps (one float per sample for each), never
through an (n, N) array of points or full-length temporaries.
"""

import tracemalloc

import numpy as np

from resolvent_asym.geometry import (
    BallDomain,
    ExteriorBallDomain,
    boundary_distances,
    level_set_area_mc,
    make_ellipse_domain,
    touching_ball,
)
from resolvent_asym.params import INFINITY, ProblemParams
from resolvent_asym.qmeans import q_mean_bruteforce, solution_profile


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, as tracemalloc sees them."""
    fn()  # first calls import modules and fill caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bruteforce_peak(n: int) -> int:
    """Peak bytes of one q_mean_bruteforce call at n samples."""
    cfg = touching_ball(ExteriorBallDomain(1.0), [2.0, 0.0, 0.0], 1.0)
    pp = ProblemParams(n=3, p=INFINITY, eps=0.1)
    prof = solution_profile(pp, cfg.domain)

    def raw(pts):
        return prof(np.maximum(boundary_distances(cfg.domain, pts), 0.0)
                    / pp.xi)

    return traced_peak(lambda: q_mean_bruteforce(cfg, 2.0, raw, n_samples=n,
                                                 seed=11))


def test_bruteforce_within_four_floats_per_sample():
    n = 400_000
    assert bruteforce_peak(n) <= 4 * 8 * n


def test_bruteforce_variance_takes_no_full_length_temporary():
    # the values, the estimating function g (its variance taken in place)
    # and a mask: about 2.2 floats per sample, where a full-length
    # temporary such as np.var(g)'s would add a third
    n = 400_000
    assert bruteforce_peak(n) <= 2.5 * 8 * n


def test_level_set_area_mc_does_not_grow_with_samples():
    cfg = touching_ball(BallDomain(1.0), [0.5, 0.0], 0.5)

    def peak(n):
        return traced_peak(lambda: level_set_area_mc(
            cfg.domain, cfg, 0.05, n_samples=n, seed=11, half_width=0.005))

    assert peak(4_000_000) <= 1.25 * peak(1_000_000)


def test_projection_blocks_bound_boundary_distances():
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, (100_000, 2))
    pts *= [1.4, 0.7]
    dom = make_ellipse_domain(2.0, 1.0)
    assert traced_peak(lambda: boundary_distances(dom, pts)) <= 5 * 2 ** 20
