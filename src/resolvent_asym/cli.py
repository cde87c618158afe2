"""Command line interface.

Exit codes: 0 on success, 2 on validation errors (bad flags, bad config
files, I/O failures), 3 on numerical failures: adaptive quadrature that does
not converge ("numerical non-convergence: ...") and any other failed
numerical check, such as a growing residual/model ratio in a rate sweep or a
nearest-point projection that does not converge, stops on a local maximum of
the distance or has no direction to start in ("numerical failure: ...").
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .barriers import EnhancedBarriers, enhanced_U, enhanced_V
from .experiments import (
    RADIAL_KINDS,
    GeometrySpec,
    SweepConfig,
    _format_cell,
    emit,
    make_modulus,
    run_psi_rate_table,
    run_qmean_sweep,
    run_varadhan_sweep,
    touching_config,
)
from .geometry import area_ratio_limit, level_set_area
from .params import ProblemParams
from .quadrature import NonConvergenceError
from .radial import RadialSolution, eval_log_u, varadhan_residual
from .special import bessel_k_identity_residual, f_exact


def _write_or_print(rows, cfg: SweepConfig) -> None:
    emit(rows, cfg.output or None, config=cfg)
    if cfg.output:
        print(f"wrote {len(rows)} rows to {cfg.output}")


def _load_config(path: str) -> SweepConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"config file {path} is not valid JSON: {e}")
    return SweepConfig.from_dict(doc)


def _cmd_eval_radial(args) -> int:
    params = ProblemParams(n=args.N, p=args.p, eps=args.eps)
    sol = RadialSolution(params, RADIAL_KINDS[args.geometry](args.R))
    r = np.asarray(args.r, dtype=float)
    rows = [{"r": float(ri), "log_u": float(lu), "varadhan_residual": float(vr)}
            for ri, lu, vr in zip(r, eval_log_u(sol, r),
                                  varadhan_residual(sol, r))]
    emit(rows)
    return 0


def _cmd_special_f(args) -> int:
    lv = f_exact(args.sigma, args.alpha)
    row = {"sigma": args.sigma, "alpha": args.alpha,
           "f": lv.value(), "log_f": lv.log_magnitude}
    if args.check_bessel:
        row["bessel_residual"] = bessel_k_identity_residual(
            args.sigma, args.alpha)
    emit([row])
    return 0


def _cmd_barriers(args) -> int:
    params = ProblemParams(n=args.N, p=args.p, eps=args.eps)
    b = EnhancedBarriers(params, r_i=args.r_inner, r_e=args.r_outer)
    tau = np.asarray(args.tau, dtype=float)
    rows = [{"tau": float(t), "log_U": float(lu), "log_V": float(lv)}
            for t, lu, lv in zip(tau, enhanced_U(b, tau), enhanced_V(b, tau))]
    emit(rows)
    return 0


def _cmd_geom(args) -> int:
    spec = GeometrySpec(kind=args.kind, domain_radius=args.domain_radius,
                        R=args.R)
    cfg = touching_config(spec, args.N)
    limit = area_ratio_limit(cfg)
    areas = level_set_area(cfg.domain, cfg, np.asarray(args.s, dtype=float))
    rows = [{"s": s, "area": area,
             "ratio": area / s ** (0.5 * (args.N - 1)),
             "predicted_limit": limit}
            for s, area in zip(args.s, areas)]
    emit(rows)
    return 0


def _cmd_qmean(args) -> int:
    cfg = _load_config(args.config)
    rows = run_qmean_sweep(cfg)
    _write_or_print(rows, cfg)
    return 0


def _cmd_rates(args) -> int:
    cfg = _load_config(args.config)
    rows, fits = run_varadhan_sweep(cfg)
    # the psi table, like the sweep, fails before anything is written
    psi = (run_psi_rate_table(make_modulus(cfg.modulus), cfg.eps_sequence)
           if cfg.modulus is not None else None)
    _write_or_print(rows, cfg)
    for (n, p), fit in fits.items():
        print(f"fit N={n} p={_format_cell(p)} model={fit.model.value} "
              f"coefficient={fit.coefficient:.6g} "
              f"r_squared={fit.r_squared:.6g} max_ratio={fit.max_ratio:.6g} "
              f"degenerate={_format_cell(fit.degenerate)} "
              f"matched={_format_cell(fit.matched)}")
    if psi is not None:
        psi_rows, converges = psi
        emit(psi_rows)
        print(f"eps_log_psi_converges {_format_cell(converges)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resolvent-asym",
        description="Radial resolvent solutions, barriers, distance "
                    "asymptotics and q-mean limits at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval-radial",
                        help="log of the radial solution and its distance "
                             "residual")
    sp.add_argument("--N", type=int, required=True, help="dimension")
    sp.add_argument("--p", type=float, required=True,
                    help="exponent > 1, or inf")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--geometry", choices=RADIAL_KINDS, required=True)
    sp.add_argument("--R", type=float, required=True, help="boundary radius")
    sp.add_argument("--r", type=float, nargs="+", required=True,
                    help="radii to evaluate at")
    sp.set_defaults(func=_cmd_eval_radial)

    sp = sub.add_parser("special-f",
                        help="the decaying kernel f and its identities")
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--check-bessel", action="store_true",
                    help="also print the Bessel-K identity residual")
    sp.set_defaults(func=_cmd_special_f)

    sp = sub.add_parser("barriers",
                        help="log of the enhanced barrier pair (U, V)")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--r-inner", type=float, required=True,
                    help="interior touching ball radius")
    sp.add_argument("--r-outer", type=float, required=True,
                    help="exterior touching ball radius")
    sp.add_argument("--tau", type=float, nargs="+", required=True,
                    help="scaled boundary distances")
    sp.set_defaults(func=_cmd_barriers)

    sp = sub.add_parser("geom",
                        help="level-set areas against the curvature limit")
    sp.add_argument("--kind", choices=RADIAL_KINDS, required=True)
    sp.add_argument("--domain-radius", type=float, required=True)
    sp.add_argument("--R", type=float, required=True,
                    help="touching ball radius")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--s", type=float, nargs="+", required=True,
                    help="level distances")
    sp.set_defaults(func=_cmd_geom)

    sp = sub.add_parser("qmean", help="scaled q-mean sweep from a config")
    sp.add_argument("--config", required=True, help="JSON sweep config")
    sp.set_defaults(func=_cmd_qmean)

    sp = sub.add_parser("rates",
                        help="distance-asymptotics rate sweep from a config")
    sp.add_argument("--config", required=True, help="JSON sweep config")
    sp.set_defaults(func=_cmd_rates)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as e:
        print(f"numerical non-convergence: {e}", file=sys.stderr)
        return 3
    except RuntimeError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
