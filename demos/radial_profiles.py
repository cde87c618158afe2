"""Radial solution profiles across exponents.

Prints log u along the radius on the unit ball and on the exterior of the
unit ball for several p, showing the boundary layer of width ~ eps/sqrt(p')
and the exact decay -(r-R)/eps of the exterior p = infinity case.
"""

import argparse

import numpy as np

from resolvent_asym.geometry import BallDomain, ExteriorBallDomain
from resolvent_asym.params import INFINITY, ProblemParams, conjugate
from resolvent_asym.radial import RadialSolution, eval_log_u, \
    varadhan_residual

P_VALUES = (1.5, 2.0, 4.0, INFINITY)


def p_label(p):
    return "inf" if np.isinf(p) else f"{p:g}"


def profile_table(n, eps, geometry, radii):
    sols = [RadialSolution(ProblemParams(n=n, p=p, eps=eps), geometry)
            for p in P_VALUES]
    header = "r".rjust(8) + "".join(
        f"  log_u(p={p_label(p)})".rjust(16) for p in P_VALUES)
    print(header)
    for r in radii:
        cells = "".join(f"{eval_log_u(sol, float(r)):16.6f}" for sol in sols)
        print(f"{r:8.3f}{cells}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2, help="dimension")
    ap.add_argument("--eps", type=float, default=0.1)
    args = ap.parse_args()

    print(f"unit ball, N={args.n}, eps={args.eps}")
    profile_table(args.n, args.eps, BallDomain(1.0),
                  np.linspace(0.0, 1.0, 11))

    print(f"\nexterior of the unit ball, N={args.n}, eps={args.eps}")
    profile_table(args.n, args.eps, ExteriorBallDomain(1.0),
                  np.linspace(1.0, 2.0, 11))

    print("\ncenter value against the distance rate "
          "(eps log u(0) vs -sqrt(p') R):")
    for p in P_VALUES:
        params = ProblemParams(n=args.n, p=p, eps=args.eps)
        sol = RadialSolution(params, BallDomain(1.0))
        res = varadhan_residual(sol, 0.0)
        rate = np.sqrt(conjugate(p))
        print(f"  p={p_label(p):>4}: eps log u(0) = "
              f"{args.eps * eval_log_u(sol, 0.0):10.6f}   "
              f"-sqrt(p') R = {-rate:10.6f}   residual = {res:.3e}")


if __name__ == "__main__":
    main()
