"""Comparison barriers sandwiching the resolvent between kernel ratios.

Two layers: the coarse envelope pair (E from above through the sin kernel,
e from below through the sinh kernel at an exterior witness point), and the
enhanced pair (U, V) available under uniform interior/exterior ball
conditions, which is tight enough to drive the q-mean limits.  All values are
logarithms of the corresponding barrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .params import ProblemParams
from .quadrature import _log_cosh, log_sin_kernel, log_sinh_kernel
from .radial import Geometry, GeometryKind, RadialSolution, eval_log_u


def upper_E(params: ProblemParams, dist: float) -> float:
    """log of the upper envelope at boundary distance dist.

    Finite p: E = I(0) / I(sqrt(p') dist / eps); at p = infinity
    E = 2 / (1 + exp(-2 dist/eps)).  Always in (0... 1]-reciprocal sense:
    E >= 1 with E(0) = 1, and eps log u + sqrt(p') d <= eps log E.
    """
    if dist < 0.0:
        raise ValueError(f"boundary distance must be >= 0, got {dist}")
    if params.is_infinity:
        return math.log(2.0) - math.log1p(math.exp(-2.0 * dist / params.eps))
    root = math.sqrt(params.p_conjugate)
    a = params.alpha
    return log_sin_kernel(0.0, a) - log_sin_kernel(root * dist / params.eps, a)


def lower_e(params: ProblemParams, dist_x_z: float,
            dist_gamma_z: float) -> float:
    """log of the lower envelope seen from a witness z outside the domain.

    e = f(sqrt(p') |x-z|/eps) / f(sqrt(p') d_Gamma(z)/eps) for finite p
    (requires |x-z| >= d_Gamma(z) > 0), identically 1 at p = infinity.
    """
    if not dist_gamma_z > 0.0:
        raise ValueError(f"d_Gamma(z) must be > 0, got {dist_gamma_z}")
    if dist_x_z < dist_gamma_z:
        raise ValueError(
            f"|x - z| = {dist_x_z} < d_Gamma(z) = {dist_gamma_z}; the witness "
            "must be no closer to x than to the boundary")
    if params.is_infinity:
        return 0.0
    root = math.sqrt(params.p_conjugate)
    a = params.alpha
    return (log_sinh_kernel(root * dist_x_z / params.eps, a)
            - log_sinh_kernel(root * dist_gamma_z / params.eps, a))


@dataclass(frozen=True)
class EnhancedBarriers:
    """Barrier pair under interior/exterior ball radii (r_i, r_e).

    U uses sigma_e = sqrt(p') r_e / eps, V uses sigma_i = sqrt(p') r_i / eps
    in its first branch; both are functions of the scaled boundary distance
    tau = sqrt(p') d_Gamma / eps.
    """

    params: ProblemParams
    r_i: float
    r_e: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r_i < math.inf and 0.0 < self.r_e < math.inf):
            raise ValueError(f"ball radii must be finite and positive, got "
                             f"r_i={self.r_i}, r_e={self.r_e}")

    @property
    def sigma_i(self) -> float:
        return math.sqrt(self.params.p_conjugate) * self.r_i / self.params.eps

    @property
    def sigma_e(self) -> float:
        return math.sqrt(self.params.p_conjugate) * self.r_e / self.params.eps


def _check_tau(tau: np.ndarray) -> None:
    """One min and one max: a NaN, infinite or negative tau shows in one."""
    if tau.size and not (tau.min() >= 0.0 and math.isfinite(tau.max())):
        bad = tau[~(np.isfinite(tau) & (tau >= 0.0))][0]
        raise ValueError(f"tau must be finite and >= 0, got {bad}")


def enhanced_U(b: EnhancedBarriers, tau: Union[float, np.ndarray]
               ) -> Union[float, np.ndarray]:
    """log U(tau) = -tau + log f(sigma_e + tau) - log f(sigma_e); p=inf: -tau.

    U(0) = 1 and e^tau U(tau) decreases from 1: the lower barrier.
    """
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    _check_tau(tau_arr)
    if b.params.is_infinity:
        out = -tau_arr
    else:
        log_f = log_sinh_kernel(b.sigma_e + np.append(tau_arr, 0.0),
                                b.params.alpha)
        out = -tau_arr + log_f[:-1] - log_f[-1]
    return float(out[0]) if np.ndim(tau) == 0 else out


def enhanced_V(b: EnhancedBarriers, tau: Union[float, np.ndarray]
               ) -> Union[float, np.ndarray]:
    """log V(tau): the upper barrier, piecewise across tau = sigma_i.

    Finite p:  tau <  sigma_i: -tau + log I(sigma_i - tau) - log I(sigma_i)
               tau >= sigma_i: -tau + log I(0) - log I(tau)
    p = infinity: cosh(sigma_i - tau)/cosh(sigma_i), then 1/cosh(tau).
    Continuity at the split is a numerical observation, not asserted here.
    """
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    _check_tau(tau_arr)
    si = b.sigma_i
    first = tau_arr < si
    if b.params.is_infinity:
        out = np.where(first, _log_cosh(si - tau_arr) - _log_cosh(si),
                       -_log_cosh(tau_arr))
    else:
        # one call for every branch argument, then I(sigma_i) and I(0)
        log_i = log_sin_kernel(
            np.concatenate([np.where(first, si - tau_arr, tau_arr),
                            [si, 0.0]]), b.params.alpha)
        log_k, base, zero = log_i[:-2], log_i[-2], log_i[-1]
        out = -tau_arr + np.where(first, log_k - base, zero - log_k)
    return float(out[0]) if np.ndim(tau) == 0 else out


def _sandwich(params: ProblemParams, geometry: Geometry, r_grid: np.ndarray):
    """(r, d_Gamma, log U, log u, log V) on a radius grid, as arrays."""
    sol = RadialSolution(params, geometry)
    b = EnhancedBarriers(params, r_i=geometry.R, r_e=geometry.R)
    r = np.atleast_1d(np.asarray(r_grid, dtype=float))
    d = geometry.distance(r)
    tau = math.sqrt(params.p_conjugate) * d / params.eps
    return r, d, enhanced_U(b, tau), eval_log_u(sol, r), enhanced_V(b, tau)


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

    With x, z on the same ray through the origin, z inside the excluded ball:
      sqrt(p') (d_Gamma(x) + d_Gamma(z) - |x-z|) + eps log e
        <= eps log u(x) + sqrt(p') d_Gamma(x) <= eps log E(d_Gamma(x)).
    """
    if geometry.kind is not GeometryKind.EXTERIOR:
        raise ValueError("the witness chain is set on the exterior geometry")
    R = geometry.R
    if not (0.0 < r_z < R):
        raise ValueError(f"witness radius must lie in (0, {R}), got {r_z}")
    if not r_x >= R:
        raise ValueError(f"evaluation radius must be >= {R}, got {r_x}")
    root = math.sqrt(params.p_conjugate)
    eps = params.eps
    d_x = geometry.distance(r_x)
    d_z = -geometry.distance(r_z)
    dist_xz = r_x - r_z
    sol = RadialSolution(params, geometry)
    middle = eps * eval_log_u(sol, r_x) + root * d_x
    lower = (root * (d_x + d_z - dist_xz)
             + eps * lower_e(params, dist_xz, d_z))
    upper = eps * upper_E(params, d_x)
    return lower, middle, upper
