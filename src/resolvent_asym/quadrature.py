"""The two weighted kernel families: closed Bessel forms and tanh-sinh.

    I(sigma) = int_0^pi  exp(-sigma (1 - cos theta)) (sin theta)^alpha g dtheta
    f(sigma) = int_0^inf exp(-sigma (cosh theta - 1)) (sinh theta)^alpha g dtheta

With g = 1 both are modified Bessel functions of order nu = alpha/2 (DLMF
10.32.2 and 10.32.8); log_sin_kernel and log_sinh_kernel evaluate those
closed forms, vectorized in sigma.  sin_family and sinh_family define each
weight once: its log, its interval and the strength of its endpoint
singularity.  The tanh-sinh engine (Takahasi & Mori 1974) integrates them
against any nonnegative g, is the kernels' fallback where the scaled Bessel
values leave the float range, and is the oracle the closed forms are tested
against.  _nodes builds the arrays of a set of abscissae that do not
depend on the interval, and _values places them on [a, b] (endpoint offsets
kept as logarithms) and evaluates the integrand there in one call; the
adaptive rules do both once per refinement level, on its new abscissae.
tanh_sinh_log sums the levels in the log domain, so endpoint singularities
(sin theta)^alpha with alpha near -1 neither underflow nor overflow; its
logsumexp is scipy's algorithm, bit for bit, without the array-API
dispatch.  tanh_sinh_sum backs signed integrands (mollifier numerators).
Stopped at a fixed level it is FixedRule, the smooth rule of the co-area
q-mean: built once per (level, beta), it evaluates the nodes of all its
levels in one integrand call and adds the level sums in order, bit for bit
the adaptive rule's running sum.  The adaptive rules stop once two levels
differ by _REL_TOL (relative; in the log for tanh_sinh_log), or fail after
_MAX_REFINEMENTS level doublings past the coarse pass; both module
constants are read at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import gammaln, ive, kve

_LOG_PI_HALF = math.log(math.pi / 2.0)
_HALF_LOG_PI = 0.5 * math.log(math.pi)
_TINY = np.finfo(float).tiny
_BASE_STEP = 0.5
# Integrals below this absolute floor are accepted as converged.
_ABS_TOL = 1e-300
_LOG_ABS_TOL = math.log(_ABS_TOL)
_REL_TOL = 1e-10
_MAX_REFINEMENTS = 10


@dataclass(frozen=True)
class LogValue:
    """A positive quantity stored as its natural logarithm."""

    log_magnitude: float

    def value(self) -> float:
        """exp(log_magnitude), or math.inf past the float range."""
        try:
            return math.exp(self.log_magnitude)
        except OverflowError:
            return math.inf


class NonConvergenceError(RuntimeError):
    """Raised when refinement stalls; carries the last two estimates."""

    def __init__(self, message: str, last_estimate: float,
                 previous_estimate: float) -> None:
        last_estimate = float(last_estimate)
        previous_estimate = float(previous_estimate)
        super().__init__(
            f"{message} (last estimate {last_estimate!r}, "
            f"previous {previous_estimate!r})")
        self.last_estimate = last_estimate
        self.previous_estimate = previous_estimate


def _softplus(y: np.ndarray) -> np.ndarray:
    # log(1 + e^y), stable for both signs
    return np.maximum(y, 0.0) + np.log1p(np.exp(-np.abs(y)))


def _log_cosh(z: np.ndarray) -> np.ndarray:
    return np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - math.log(2.0)


def _t_max_for(beta: float) -> float:
    # beta = 1 + min(alpha, 0): strength of the worst endpoint singularity.
    # Weight*integrand decays like exp(-2 z beta); 45 e-foldings suffice.
    beta = max(beta, 0.02)
    return min(7.0, max(3.3, math.asinh(45.0 / (math.pi * beta))))


def _level_abscissae(level: int, t_max: float) -> np.ndarray:
    """New abscissae introduced at this refinement level (symmetric in t)."""
    if level == 0:
        m = int(math.floor(t_max / _BASE_STEP))
        pos = _BASE_STEP * np.arange(1, m + 1)
        return np.concatenate([-pos[::-1], [0.0], pos])
    h = _BASE_STEP * 2.0 ** (-level)
    m = int(math.floor((t_max / h - 1.0) / 2.0))
    odd = h * (2.0 * np.arange(0, m + 1) + 1.0)
    return np.concatenate([-odd[::-1], odd])


def _nodes(t: np.ndarray) -> tuple:
    """The t-only arrays of abscissae t: the log node weights (h-free), both
    endpoints' softplus offsets and the left-half mask."""
    z = 0.5 * math.pi * np.sinh(t)
    return (_LOG_PI_HALF + _log_cosh(t) - 2.0 * _log_cosh(z),
            _softplus(-2.0 * z), _softplus(2.0 * z), z <= 0.0)


def _values(f: Callable, nodes: tuple, a: float, b: float) -> np.ndarray:
    """f(x, da, db, log_da, log_db) at the nodes x on [a, b]; da, db are the
    exact distances to the ends, and log_da/log_db never underflow."""
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    _, soft_a, soft_b, left = nodes
    log_span = math.log(b - a)
    log_da, log_db = log_span - soft_a, log_span - soft_b
    da, db = np.exp(log_da), np.exp(log_db)
    x = np.where(left, a + da, b - db)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        return np.asarray(f(x, da, db, log_da, log_db), dtype=float)


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a 1-D float array, bit for bit scipy's logsumexp.

    The m entries equal to the maximum are taken out of the shifted sum s,
    so the result is log1p(s/m) + log(m) + max; where that is not finite the
    direct log(sum(exp(a))) answers, and an empty array gives -inf.  scipy's
    array-API dispatch costs more than the arithmetic on these sizes.
    """
    if a.size == 0:
        return np.float64(-np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a)
        top = a == a_max
        m = np.sum(top, dtype=float)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
        if s != 0.0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return out


def tanh_sinh_log(log_f: Callable, a: float, b: float,
                  beta: float = 1.0) -> float:
    """Log of int_a^b exp(log_f) dx by level-doubled tanh-sinh.

    log_f takes the node arguments of _values and returns log integrand
    values; beta is the strength of the worst endpoint singularity.
    """
    t_max = _t_max_for(beta)
    blocks: list[np.ndarray] = []
    prev = current = math.nan
    for level in range(_MAX_REFINEMENTS + 1):
        nodes = _nodes(_level_abscissae(level, t_max))
        terms = nodes[0] + _values(log_f, nodes, a, b)
        blocks.append(terms[~np.isnan(terms)])
        h = _BASE_STEP * 2.0 ** (-level)
        prev, current = current, (math.log(0.5 * (b - a)) + math.log(h)
                                  + _logsumexp(np.concatenate(blocks)))
        if level >= 3 and ((current < _LOG_ABS_TOL and prev < _LOG_ABS_TOL)
                           or abs(current - prev) <= _REL_TOL):
            return current
    raise NonConvergenceError(
        "tanh-sinh refinement did not reach rel_tol", current, prev)


def _level_sum(w: np.ndarray, vals: np.ndarray) -> float:
    """Sum of the finite weighted terms of one level (h-free weights w)."""
    terms = w * vals
    return float(np.sum(terms[np.isfinite(terms)]))


def tanh_sinh_sum(f: Callable, a: float, b: float,
                  beta: float = 1.0) -> float:
    """Linear-domain twin of tanh_sinh_log for signed integrands."""
    t_max = _t_max_for(beta)
    total = 0.0
    prev = current = math.nan
    for level in range(_MAX_REFINEMENTS + 1):
        nodes = _nodes(_level_abscissae(level, t_max))
        total += _level_sum(np.exp(nodes[0]), _values(f, nodes, a, b))
        h = _BASE_STEP * 2.0 ** (-level)
        prev, current = current, 0.5 * (b - a) * h * total
        if level >= 3 and (abs(current - prev)
                           <= _REL_TOL * abs(current) + _ABS_TOL):
            return current
    raise NonConvergenceError(
        "tanh-sinh refinement did not reach rel_tol", current, prev)


class FixedRule:
    """tanh_sinh_sum stopped at a fixed level, smooth in the endpoints for a
    root search over them.  Only log(b - a) depends on the interval; the
    rest is built here, once.  values() calls f once on all nodes; total()
    adds the level sums in order, bit for bit the adaptive running sum."""

    def __init__(self, level: int, beta: float = 1.0) -> None:
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        blocks = [_level_abscissae(k, _t_max_for(beta))
                  for k in range(level + 1)]
        self._nodes = _nodes(np.concatenate(blocks))
        edges = np.cumsum([0] + [block.size for block in blocks])
        self._levels = [(lo, hi, np.exp(self._nodes[0][lo:hi]))
                        for lo, hi in zip(edges[:-1], edges[1:])]
        self._h = _BASE_STEP * 2.0 ** (-level)

    def values(self, f: Callable, a: float, b: float) -> np.ndarray:
        return _values(f, self._nodes, a, b)

    def total(self, vals: np.ndarray, a: float, b: float) -> float:
        total = 0.0
        for lo, hi, w in self._levels:
            total += _level_sum(w, vals[lo:hi])
        return 0.5 * (b - a) * self._h * total

    def __call__(self, f: Callable, a: float, b: float) -> float:
        return self.total(self.values(f, a, b), a, b)


def _check_alpha(alpha: float) -> None:
    if not -1.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > -1, got {alpha}")


def sin_family(sigma: float, alpha: float) -> tuple:
    """The weight e^{-sigma(1-cos theta)} (sin theta)^alpha on [0, pi].

    Returns (log_w, a, b, beta): log_w takes the node arguments of the
    engine, [a, b] is the interval and beta = 1 + min(alpha, 0) the strength
    of the endpoint singularities.
    """
    if not sigma >= 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    _check_alpha(alpha)

    def log_w(x, da, db, log_da, log_db):
        out = -sigma * 2.0 * np.sin(0.5 * da) ** 2
        if alpha != 0.0:
            # sin(theta) = sin(min distance to {0, pi}); below 1e-8 the log
            # offset itself is the answer to full precision.
            dmin = np.minimum(da, db)
            small = dmin < 1e-8
            log_sin = np.where(small, np.minimum(log_da, log_db),
                               np.log(np.sin(np.where(small, 1.0, dmin))))
            out = out + alpha * log_sin
        return out

    return log_w, 0.0, math.pi, 1.0 + min(alpha, 0.0)


def sinh_theta_cutoff(sigma: float, alpha: float) -> float:
    """Upper integration limit theta_max = acosh(1 + tau_max/sigma), >= 5.

    In tau = sigma(cosh theta - 1) the integrand is e^{-tau} times a factor
    whose log grows no faster than k log tau, k = alpha - 1.  Past tau = k it
    falls by at least k(x - 1 - log x) at tau = k x, and
    x = 1 + T/k + log(2(1 + T/k)) makes that at least T = 50 - log(_REL_TOL).
    For alpha <= 1 the factor does not grow and tau_max = T.
    """
    target = 50.0 - math.log(_REL_TOL)
    k = alpha - 1.0
    tau_max = target
    if k > 0.0:
        tau_max += k * (1.0 + math.log(2.0 * (1.0 + target / k)))
    return max(5.0, math.acosh(1.0 + tau_max / sigma))


def sinh_family(sigma: float, alpha: float, theta_min: float = 0.0) -> tuple:
    """The weight e^{-sigma(cosh theta-1)} (sinh theta)^alpha past theta_min.

    Returns (log_w, a, b, beta) as sin_family does, on [theta_min,
    sinh_theta_cutoff]; a positive theta_min removes the endpoint
    singularity (beta = 1).
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    _check_alpha(alpha)
    if theta_min < 0.0:
        raise ValueError(f"theta_min must be >= 0, got {theta_min}")
    singular_left = theta_min == 0.0

    def log_w(x, da, db, log_da, log_db):
        out = -sigma * 2.0 * np.sinh(0.5 * x) ** 2
        if alpha != 0.0:
            # next to a singular theta = 0 the log offset is log sinh theta
            small = (da < 1e-8) & singular_left
            log_sinh = np.where(small, log_da,
                                np.log(np.sinh(np.where(small, 1.0, x))))
            out = out + alpha * log_sinh
        return out

    beta = 1.0 + min(alpha, 0.0) if singular_left else 1.0
    return log_w, theta_min, sinh_theta_cutoff(sigma, alpha), beta


def _integrate(family: tuple, g: Optional[Callable]) -> LogValue:
    log_w, a, b, beta = family
    if a >= b:
        return LogValue(-math.inf)

    def log_f(x, *offsets):
        return log_w(x, *offsets) + np.log(np.asarray(g(x), dtype=float))

    return LogValue(tanh_sinh_log(log_w if g is None else log_f, a, b, beta))


def integrate_sin_weighted(sigma: float, alpha: float,
                           g: Optional[Callable] = None) -> LogValue:
    """LogValue of int_0^pi e^{-sigma(1-cos theta)} (sin theta)^alpha g(theta) dtheta.

    g, when given, must be nonnegative; it is evaluated pointwise and its log
    is taken by the engine (zeros are fine).
    """
    return _integrate(sin_family(sigma, alpha), g)


def integrate_sinh_weighted(sigma: float, alpha: float,
                            g: Optional[Callable] = None,
                            theta_min: float = 0.0) -> LogValue:
    """LogValue of int_{theta_min}^inf e^{-sigma(cosh-1)} (sinh theta)^alpha g dtheta.

    theta_min defaults to 0 (the full family); a positive theta_min measures
    tail mass and removes the endpoint singularity.  With g = 1 it is the
    oracle of log_sinh_kernel, within 1e-12 of max(1, |log f|) in log f for
    1e-30 <= sigma <= 1e16 and -0.98 <= alpha <= 39.  Beyond, its nodes
    miss the peak of width sigma^{-1/2} at theta = 0: it loses digits, fails
    or converges wrongly (from sigma ~ 1e17 at alpha = 39, 1e12 at 60).
    """
    return _integrate(sinh_family(sigma, alpha, theta_min), g)


def _large_argument(nu: float, z: np.ndarray, k: bool) -> np.ndarray:
    """e^z K_nu(z) if k, else e^{-z} I_nu(z) without its e^{-2z} part, by the
    large-argument expansions DLMF 10.40.2/10.40.1 summed until a term falls
    below 1e-17 of the sum; nan where 30 terms do not get there."""
    sign = 1.0 if k else -1.0
    term, total = np.ones_like(z), np.ones_like(z)
    for j in range(1, 31):
        term *= sign * (4.0 * nu * nu - (2 * j - 1) ** 2) / (8.0 * j * z)
        total += term
        small = np.abs(term) <= 1e-17 * np.abs(total)
        if np.all(small):
            break
    total[~small] = math.nan
    return np.sqrt(0.5 * math.pi / z) / (1.0 if k else math.pi) * total


def _log_bessel_kernel(sigma, alpha: float, positive: bool, log_const: float,
                       scaled_bessel: Callable, integrate: Callable):
    """log_const - nu log(sigma/2) + log scaled_bessel(nu, sigma), nu = alpha/2.

    positive marks the K kernel.  Past scipy's range (nan, sigma > ~1e9) the
    large-argument expansion stands in.  Entries still zero, subnormal,
    infinite or nan carry no usable digits (large nu at small sigma) although
    the kernel is finite; they go to the quadrature `integrate`.
    """
    _check_alpha(alpha)
    s = np.asarray(sigma, dtype=float)
    flat = s.reshape(-1)
    nu = 0.5 * alpha
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        b = scaled_bessel(nu, flat)
        usable = (b >= _TINY) & (b < math.inf) & (flat > 0.0)
        slow = not usable.all()
        if slow:
            # an infinite sigma gives nan, so it always lands here
            if not np.all((flat > 0.0 if positive else flat >= 0.0)
                          & (flat < math.inf)):
                raise ValueError(f"sigma must be finite and "
                                 f"{'>' if positive else '>='} 0, got {sigma}")
            far = np.isnan(b)
            b[far] = _large_argument(nu, flat[far], positive)
            usable = (b >= _TINY) & (b < math.inf) & (flat > 0.0)
        out = log_const - nu * np.log(0.5 * flat) + np.log(b)
    for i in np.flatnonzero(~usable) if slow else ():
        # I(0) = sqrt(pi) Gamma((alpha+1)/2) / Gamma(nu+1), the Beta integral
        out[i] = (log_const - gammaln(nu + 1.0) if flat[i] == 0.0
                  else integrate(float(flat[i]), alpha).log_magnitude)
    return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)


def log_sin_kernel(sigma: Union[float, np.ndarray], alpha: float
                   ) -> Union[float, np.ndarray]:
    """log I(sigma) with g = 1, for sigma >= 0 (scalar or array).

    log I = log(pi)/2 + log Gamma((alpha+1)/2) - nu log(sigma/2)
            + log(e^{-sigma} I_nu(sigma)),  nu = alpha/2.
    """
    return _log_bessel_kernel(sigma, alpha, False,
                              _HALF_LOG_PI + gammaln(0.5 * (alpha + 1.0)),
                              ive, integrate_sin_weighted)


def log_sinh_kernel(sigma: Union[float, np.ndarray], alpha: float
                    ) -> Union[float, np.ndarray]:
    """log f(sigma) with g = 1, for sigma > 0 (scalar or array).

    log f = -log(pi)/2 + log Gamma((alpha+1)/2) - nu log(sigma/2)
            + log(e^{sigma} K_nu(sigma)),  nu = alpha/2.
    """
    return _log_bessel_kernel(sigma, alpha, True,
                              -_HALF_LOG_PI + gammaln(0.5 * (alpha + 1.0)),
                              kve, integrate_sinh_weighted)
