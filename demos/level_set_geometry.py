"""Boundary geometry entering the q-mean limit.

Principal curvatures and the curvature product Pi at touching points, the
s -> 0 limit of area({d_Gamma = s} in B_R(x)) / s^{(N-1)/2}, and one Monte
Carlo cross-check of the closed-form cap areas.
"""

import math

import numpy as np

from resolvent_asym.geometry import BallDomain, EllipseDomain, \
    ExteriorBallDomain, area_ratio_limit, level_set_area, \
    level_set_area_mc, touching_ball


def main():
    ellipse = EllipseDomain(2.0, 1.0)
    print("ellipse x^2/4 + y^2 = 1, inward-normal principal curvatures:")
    for point in ((0.0, 1.0), (2.0, 0.0)):
        kappa = ellipse.curvatures(point)
        print(f"  at {point}: {kappa[0]:.6f}")

    configs = (
        ("ball(1), R=0.5, N=2", touching_ball(BallDomain(1.0),
                                              np.array([0.5, 0.0]), 0.5)),
        ("exterior(1), R=1, N=2", touching_ball(ExteriorBallDomain(1.0),
                                                np.array([2.0, 0.0]), 1.0)),
        ("exterior(1), R=1, N=3", touching_ball(
            ExteriorBallDomain(1.0), np.array([2.0, 0.0, 0.0]), 1.0)),
        ("ellipse, R=0.5 at (0,1)", touching_ball(ellipse,
                                                  np.array([0.0, 0.5]), 0.5)),
    )
    print("\ncurvature products and area-ratio limits:")
    for label, cfg in configs:
        print(f"  {label:24s} Pi={cfg.pi_gamma:8.4f} "
              f"limit={area_ratio_limit(cfg):10.6f}")

    print("\narea(s)/s^{(N-1)/2} approaching the limit "
          "(ball(1), R=0.5, N=2; limit 2 sqrt(2) = 2.828427...):")
    cfg = configs[0][1]
    for s in (1e-1, 1e-2, 1e-3, 1e-4):
        ratio = level_set_area(cfg.domain, cfg, s) / math.sqrt(s)
        print(f"  s={s:7.0e}  ratio={ratio:10.6f}")

    s, hw = 0.05, 0.005
    est, se = level_set_area_mc(cfg.domain, cfg, s, n_samples=1_000_000,
                                seed=5, half_width=hw)
    grid = np.linspace(s - hw, s + hw, 41)
    ref = float(np.mean([level_set_area(cfg.domain, cfg, float(g))
                         for g in grid]))
    print(f"\nMonte Carlo cross-check at s={s}: estimate {est:.5f} "
          f"+- {se:.5f}, closed-form bin average {ref:.5f} "
          f"({abs(est - ref) / se:.2f} sigma)")


if __name__ == "__main__":
    main()
