"""Exact radial solutions of eps^2 Lap_p u = u with boundary value 1.

On a ball of radius R the solution is a ratio of sin-weighted kernels with a
peak factor exp(sqrt(p') (r - R)/eps), on a ball's complement the sinh ratio
with the opposite peak; at p = infinity they collapse to cosh and exp.  The
log numerator (kernel and peak factor) is chosen, and the denominator, the
kernel at R, evaluated, once per RadialSolution.  All of it is in the log
domain, so the deep interior (u below 1e-300) stays usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .geometry import Geometry, GeometryKind
from .params import ProblemParams
from .quadrature import _log_cosh, log_sin_kernel, log_sinh_kernel


@dataclass(frozen=True)
class RadialSolution:
    """log u = log_num(r) - log_k_R: the log numerator (kernel and peak
    factor) for the geometry and p is chosen once, here, and log_k_R, the
    log kernel at the boundary, evaluated once.  An eps so small that
    sqrt(p') R / eps overflows is rejected here."""

    params: ProblemParams
    geometry: Geometry
    log_num: Callable = field(init=False, repr=False, compare=False)
    log_k_R: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, g, eps = self.params, self.geometry, self.params.eps
        p.sigma(g.R)
        ball = g.kind is GeometryKind.BALL
        if p.is_infinity and ball:
            def log_num(r):
                return _log_cosh(r / eps)
        elif p.is_infinity:
            def log_num(r):
                return -g.distance(r) / eps
        else:
            root, alpha = math.sqrt(p.p_conjugate), p.alpha
            kernel = log_sin_kernel if ball else log_sinh_kernel

            def log_num(r):
                return -root * g.distance(r) / eps + kernel(root * r / eps,
                                                            alpha)
        object.__setattr__(self, "log_num", log_num)
        # 0.0 on the exterior at p = INFINITY: log_num(R) is -0.0 there
        object.__setattr__(self, "log_k_R", 0.0 if p.is_infinity and not ball
                           else log_num(g.R))


def _check_radius(sol: RadialSolution, r: np.ndarray) -> None:
    """One min and one max: a NaN or infinite radius leaves one non-finite,
    and the boundary distance is smallest at one of them."""
    if not r.size:
        return
    g = sol.geometry
    lo, hi = r.min(), r.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"radius must be finite, got {r[~np.isfinite(r)][0]}")
    if lo < 0.0 or min(g.distance(lo), g.distance(hi)) < -1e-12 * g.R:
        raise ValueError(f"radius outside the closed {g}")


def eval_log_u(sol: RadialSolution, r: Union[float, np.ndarray]
               ) -> Union[float, np.ndarray]:
    """log u at radius r (scalar or array): the solution's log_num over
    its log_k_R, one array call over the radii.

    Examples
    --------
    Ball, p=inf, R=1, eps=0.1 at the center: -log cosh(10) ~ -9.30685.
    Exterior, p=inf, R=1, eps=0.1 at r=1.2: exactly -2.
    """
    scalar = np.ndim(r) == 0
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    _check_radius(sol, r_arr)
    out = sol.log_num(r_arr) - sol.log_k_R
    return float(out[0]) if scalar else out


def scaling_check(sol: RadialSolution, r_grid: np.ndarray) -> float:
    """Max |log u(r) - log u_s(s r)|, u_s with eps and R scaled by s = pi/3.

    The solution depends on (r/eps, R/eps) only, so the result is pure
    numerical noise; callers assert it below 1e-9.
    """
    s = math.pi / 3.0
    scaled = RadialSolution(
        ProblemParams(sol.params.n, sol.params.p, sol.params.eps * s),
        type(sol.geometry)(sol.geometry.R * s))
    a = eval_log_u(sol, np.asarray(r_grid))
    b = eval_log_u(scaled, np.asarray(r_grid) * s)
    return float(np.max(np.abs(a - b)))


def ode_residual(sol: RadialSolution, r: float) -> float:
    """Relative residual of the radial equation at r by central differences.

    The equation is checked in ratio form: with rho_pm = u(r ± h)/u(r),
        eps^2 [ (p-1)(rho_+ - 2 + rho_-)/h^2 + (N-1)(rho_+ - rho_-)/(2hr) ] / p = 1
    (p = infinity keeps only the pure second-difference term).  The step is
    h = eps/100: the solution varies on the scale eps, which the step must
    resolve.
    """
    eps = sol.params.eps
    h = eps / 100.0
    g = sol.geometry
    if not (h < r and min(g.distance(r - h), g.distance(r + h)) > 0.0):
        raise ValueError(f"need 0 < r-h and [r-h, r+h] inside the open {g},"
                         f" got r={r}, h={h}")
    log_u = eval_log_u(sol, np.array([r - h, r, r + h]))
    rho_minus = math.exp(log_u[0] - log_u[1])
    rho_plus = math.exp(log_u[2] - log_u[1])
    d2 = (rho_plus - 2.0 + rho_minus) / h ** 2
    d1 = (rho_plus - rho_minus) / (2.0 * h)
    p = sol.params.p
    n = sol.params.n
    if sol.params.is_infinity:
        operator = d2
    else:
        operator = ((p - 1.0) * d2 + (n - 1.0) * d1 / r) / p
    return abs(eps ** 2 * operator - 1.0)


def varadhan_residual(sol: RadialSolution, r: Union[float, np.ndarray]
                      ) -> Union[float, np.ndarray]:
    """eps log u + sqrt(p') d_Gamma: the defect of the distance asymptotics.

    Nonnegative on the ball, nonpositive on the exterior, identically zero for
    the exterior at p = infinity.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    root = math.sqrt(sol.params.p_conjugate)
    out = (sol.params.eps * eval_log_u(sol, r_arr)
           + root * sol.geometry.distance(r_arr))
    return float(out[0]) if np.ndim(r) == 0 else out
