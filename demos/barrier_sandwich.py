"""The barrier sandwich log U <= log u <= log V on radial benchmarks.

Prints the full triple along the radius for one configuration and then the
worst violation over a grid of exponents and dimensions.  The violation
column should sit at rounding level throughout: one side of the sandwich is
exact on each geometry.
"""

import argparse
import itertools

import numpy as np

from resolvent_asym.barriers import sandwich_check, sandwich_table
from resolvent_asym.geometry import BallDomain, ExteriorBallDomain
from resolvent_asym.params import INFINITY, ProblemParams


def p_label(p):
    return "inf" if np.isinf(p) else f"{p:g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=0.1)
    args = ap.parse_args()

    params = ProblemParams(n=2, p=3.0, eps=args.eps)
    print(f"ball benchmark, N=2, p=3, eps={args.eps}")
    print("r".rjust(7) + "log_U".rjust(13) + "log_u".rjust(13)
          + "log_V".rjust(13) + "violation".rjust(13))
    for row in sandwich_table(params, BallDomain(1.0),
                              np.linspace(0.0, 1.0, 9)):
        print(f"{row['r']:7.3f}{row['log_U']:13.6f}{row['log_u']:13.6f}"
              f"{row['log_V']:13.6f}{row['violation']:13.2e}")

    print("\nworst violation across the benchmark grid "
          "(positive would break the sandwich):")
    for geometry, label, grid in (
            (BallDomain(1.0), "ball", np.linspace(0.0, 1.0, 50)),
            (ExteriorBallDomain(1.0), "exterior", np.linspace(1.0, 3.0, 50))):
        worst = -np.inf
        worst_at = None
        for p, n in itertools.product((1.5, 2.0, 3.0, 5.0, INFINITY), (2, 3)):
            v = sandwich_check(ProblemParams(n=n, p=p, eps=args.eps),
                               geometry, grid)
            if v > worst:
                worst, worst_at = v, (p, n)
        print(f"  {label:9s} max violation {worst:.2e} "
              f"at p={p_label(worst_at[0])}, N={worst_at[1]}")


if __name__ == "__main__":
    main()
