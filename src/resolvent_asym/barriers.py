"""Comparison barriers sandwiching the resolvent, all as logarithms.

The enhanced pair (U, V) holds under uniform interior/exterior ball
conditions and is tight enough to drive the q-mean limits; the sandwich
checks log U <= log u <= log V on the radial benchmarks.  The comparison
chain bounds eps log u + sqrt(p') d_Gamma on the exterior of a ball by the
radial solutions of two more balls: the one inscribed at x from above, and
the complement of a ball about a witness z from below.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

from .geometry import BallDomain, ExteriorBallDomain, Geometry
from .params import ProblemParams
from .quadrature import _log_cosh, log_sin_kernel, log_sinh_kernel
from .radial import RadialSolution, eval_log_u, varadhan_residual


def _checked(params: ProblemParams, name: str, r: float,
             tau: Union[float, np.ndarray]) -> Tuple[float, np.ndarray]:
    """(sigma = sqrt(p') r / eps, tau as a 1-d array) for the one ball radius
    r a barrier reads, named in the error unless finite and positive.  One
    min and one max of tau: a NaN, infinite or negative tau shows in one."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {r}")
    sigma = params.sigma(r)
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if tau.size and not (tau.min() >= 0.0 and math.isfinite(tau.max())):
        bad = tau[~(np.isfinite(tau) & (tau >= 0.0))][0]
        raise ValueError(f"tau must be finite and >= 0, got {bad}")
    return sigma, tau


def enhanced_U(params: ProblemParams, r_e: float,
               tau: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """log U(tau) = -tau + log f(sigma_e + tau) - log f(sigma_e); p=inf: -tau.

    sigma_e = sqrt(p') r_e / eps for the exterior ball radius r_e.  U(0) = 1
    and e^tau U(tau) decreases from 1: the lower barrier.
    """
    sigma_e, tau_arr = _checked(params, "r_e", r_e, tau)
    if params.is_infinity:
        out = -tau_arr
    else:
        log_f = log_sinh_kernel(sigma_e + np.append(tau_arr, 0.0),
                                params.alpha)
        out = -tau_arr + log_f[:-1] - log_f[-1]
    return float(out[0]) if np.ndim(tau) == 0 else out


def enhanced_V(params: ProblemParams, r_i: float,
               tau: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """log V(tau): the upper barrier, piecewise across tau = sigma_i, with
    sigma_i = sqrt(p') r_i / eps for the interior ball radius r_i.

    Finite p:  tau <  sigma_i: -tau + log I(sigma_i - tau) - log I(sigma_i)
               tau >= sigma_i: -tau + log I(0) - log I(tau)
    p = infinity: cosh(sigma_i - tau)/cosh(sigma_i), then 1/cosh(tau).
    Continuity at the split is a numerical observation, not asserted here.
    """
    si, tau_arr = _checked(params, "r_i", r_i, tau)
    first = tau_arr < si
    if params.is_infinity:
        out = np.where(first, _log_cosh(si - tau_arr) - _log_cosh(si),
                       -_log_cosh(tau_arr))
    else:
        # one call for every branch argument, then I(sigma_i) and I(0)
        log_i = log_sin_kernel(
            np.concatenate([np.where(first, si - tau_arr, tau_arr),
                            [si, 0.0]]), params.alpha)
        log_k, base, zero = log_i[:-2], log_i[-2], log_i[-1]
        out = -tau_arr + np.where(first, log_k - base, zero - log_k)
    return float(out[0]) if np.ndim(tau) == 0 else out


def _sandwich(params: ProblemParams, geometry: Geometry, r_grid: np.ndarray):
    """(r, d_Gamma, log U, log u, log V) on a radius grid, as arrays."""
    sol = RadialSolution(params, geometry)
    r = np.atleast_1d(np.asarray(r_grid, dtype=float))
    d = geometry.distance(r)
    tau = math.sqrt(params.p_conjugate) * d / params.eps
    return (r, d, enhanced_U(params, geometry.R, tau), eval_log_u(sol, r),
            enhanced_V(params, geometry.R, tau))


def sandwich_check(params: ProblemParams, geometry: Geometry,
                   r_grid: np.ndarray) -> float:
    """Max signed violation of log U <= log u <= log V over the radius grid.

    Positive return means a violation; exactness of one side per geometry
    (U on the exterior, the first V branch on the ball) keeps the result at
    rounding level for the radial benchmarks.
    """
    _, _, log_low, log_u, log_high = _sandwich(params, geometry, r_grid)
    return float(np.max(np.maximum(log_low - log_u, log_u - log_high)))


def sandwich_table(params: ProblemParams, geometry: Geometry,
                   r_grid: np.ndarray) -> list:
    """Rows (r, d_gamma, log_U, log_u, log_V, violation) for reporting."""
    return [{"r": float(r), "d_gamma": float(d), "log_U": float(lo),
             "log_u": float(lu), "log_V": float(hi),
             "violation": float(max(lo - lu, lu - hi))}
            for r, d, lo, lu, hi in zip(*_sandwich(params, geometry, r_grid))]


def comparison_chain(params: ProblemParams, geometry: Geometry,
                     r_x: float, r_z: float) -> tuple:
    """(lower, middle, upper) of the eps-scaled comparison chain on the exterior.

    x and z lie on one ray through the origin, z inside the excluded ball,
    with d_x = r_x - R and d_z = R - r_z.  B_{d_x}(x) lies in the domain and
    the domain outside B_{d_z}(z), so comparison gives
      varadhan_residual of the exterior of B_{d_z}(z) at x
        <= eps log u(x) + sqrt(p') d_x
        <= varadhan_residual of B_{d_x}(x) at x,
    the upper end 0 (u = 1) when x lies on the boundary.
    """
    if not isinstance(geometry, ExteriorBallDomain):
        raise ValueError("the witness chain is set on the exterior geometry")
    R = geometry.R
    if not (0.0 < r_z < R):
        raise ValueError(f"witness radius must lie in (0, {R}), got {r_z}")
    if not r_x >= R:
        raise ValueError(f"evaluation radius must be >= {R}, got {r_x}")
    d_x = geometry.distance(r_x)
    lower = varadhan_residual(
        RadialSolution(params, ExteriorBallDomain(R - r_z)), r_x - r_z)
    middle = varadhan_residual(RadialSolution(params, geometry), r_x)
    upper = 0.0 if d_x == 0.0 else varadhan_residual(
        RadialSolution(params, BallDomain(d_x)), 0.0)
    return lower, middle, upper
