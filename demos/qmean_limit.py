"""Scaled q-means of the resolvent approaching their curvature limit.

On B_R(x) with x touching the boundary, (R/eps)^{(N+1)/(2(q-1))} mu_q tends
to c_{N,q} / {(p')^{(N+1)/2} Pi}^{1/(2(q-1))}.  The table shows the raw
scaled value, its two-point Richardson extrapolation, and the prediction;
the optional ellipse run brackets a non-radial domain between the barrier
pair, whose q-means are deterministic (co-area over the tube formula's
level-set areas).
"""

import argparse

import numpy as np

from resolvent_asym.experiments import GeometrySpec, SweepConfig, \
    run_qmean_sweep
from resolvent_asym.geometry import EllipseDomain, touching_ball
from resolvent_asym.params import INFINITY, ProblemParams
from resolvent_asym.qmeans import qmean_limit_experiment


def p_label(p):
    return "inf" if p == INFINITY else f"{p:g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ellipse", action="store_true",
                    help="also bracket the q-mean on an ellipse domain")
    args = ap.parse_args()

    cfg = SweepConfig(n_values=(2,), p_values=(2.0, INFINITY),
                      q_values=(2.0, 3.0), eps_start=0.02, eps_factor=0.5,
                      eps_count=3, geometry=GeometrySpec("ball", 1.0, 0.5))
    rows = run_qmean_sweep(cfg)

    print("ball benchmark, N=2, touching radius R=0.5")
    print("p".rjust(5) + "q".rjust(4) + "eps".rjust(9) + "scaled".rjust(12)
          + "richardson".rjust(12) + "prediction".rjust(12)
          + "ratio".rjust(9))
    for row in rows:
        rich = f"{row['richardson']:12.6f}" \
            if not np.isnan(row["richardson"]) else " " * 12
        print(f"{p_label(row['p']):>5}{row['q']:4g}{row['eps']:9.3f}"
              f"{row['scaled']:12.6f}{rich}{row['prediction']:12.6f}"
              f"{row['ratio']:9.4f}")

    if args.ellipse:
        print("\nellipse x^2/4 + y^2 = 1, touching point (0, 1), R=0.5, "
              "p=inf, q=2; the q-mean is bracketed by the barrier pair, "
              "whose rows are deterministic:")
        dom = EllipseDomain(2.0, 1.0)
        cfg_t = touching_ball(dom, np.array([0.0, 0.5]), 0.5)
        seq = [ProblemParams(n=2, p=INFINITY, eps=e)
               for e in (0.05, 0.02, 0.01, 0.005)]
        for row in qmean_limit_experiment(seq, cfg_t, 2.0):
            print(f"  eps={row['eps']:5.3f} {row['path']:9s} "
                  f"scaled={row['scaled']:9.6f} "
                  f"prediction={row['prediction']:9.6f} "
                  f"ratio={row['ratio']:7.4f}")


if __name__ == "__main__":
    main()
