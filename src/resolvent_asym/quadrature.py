"""The two weighted kernel families: closed Bessel forms and tanh-sinh.

    I(sigma) = int_0^pi  exp(-sigma (1 - cos theta)) (sin theta)^alpha g dtheta
    f(sigma) = int_0^inf exp(-sigma (cosh theta - 1)) (sinh theta)^alpha g dtheta

With g = 1 both are modified Bessel functions of order nu = alpha/2 (DLMF
10.32.2 and 10.32.8); log_sin_kernel and log_sinh_kernel evaluate those
closed forms, vectorized in sigma.  The adaptive tanh-sinh engine integrates
the general families (any nonnegative g), serves as the kernels' fallback
where the scaled Bessel values leave the float range, and is the oracle the
closed forms are tested against.  It runs in the log domain: node weights,
endpoint offsets and integrand values are kept as logarithms and accumulated
with logsumexp, so endpoint singularities (sin theta)^alpha with alpha near
-1 neither underflow nor overflow.  A linear-domain twin backs signed
integrands (mollifier numerators), sharing the same node construction; its
running level sums also serve, stopped at a fixed level, as the smooth rule
of the co-area q-mean (tanh_sinh_fixed).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

import numpy as np
from scipy.special import gammaln, ive, kve, logsumexp

_LOG_PI_HALF = math.log(math.pi / 2.0)
_HALF_LOG_PI = 0.5 * math.log(math.pi)
_TINY = np.finfo(float).tiny
_BASE_STEP = 0.5


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and refinement budget of the adaptive engine.

    rel_tol is a relative target for the log of the integral between two
    refinement levels; abs_tol is an absolute floor below which integrals
    are accepted as converged; max_refinements counts level doublings after
    the coarse pass.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-300
    max_refinements: int = 10

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.abs_tol < 0.0:
            raise ValueError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if self.max_refinements < 1:
            raise ValueError(
                f"max_refinements must be >= 1, got {self.max_refinements}")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class LogValue:
    """A positive quantity stored as its natural logarithm."""

    log_magnitude: float

    def value(self) -> float:
        return math.exp(self.log_magnitude)


def log_ratio(numer: LogValue, denom: LogValue) -> float:
    """log(numer/denom) without leaving the log domain."""
    return numer.log_magnitude - denom.log_magnitude


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


def _node_geometry(t: np.ndarray, a: float, b: float):
    """Positions, endpoint offsets (linear and log) and h-free log weights."""
    span = b - a
    z = 0.5 * math.pi * np.sinh(t)
    log_w = _LOG_PI_HALF + _log_cosh(t) - 2.0 * _log_cosh(z)
    log_da = math.log(span) - _softplus(-2.0 * z)
    log_db = math.log(span) - _softplus(2.0 * z)
    da = np.exp(log_da)
    db = np.exp(log_db)
    x = np.where(z <= 0.0, a + da, b - db)
    return x, da, db, log_da, log_db, log_w


def tanh_sinh_log(log_f: Callable, a: float, b: float,
                  config: QuadratureConfig = DEFAULT_CONFIG,
                  beta: float = 1.0) -> float:
    """Log of int_a^b exp(log_f) dx by level-doubled tanh-sinh.

    log_f(x, da, db, log_da, log_db) -> array of log integrand values; da/db
    are exact distances to the endpoints (log_da/log_db never underflow).
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    t_max = _t_max_for(beta)
    log_half_span = math.log(0.5 * (b - a))
    blocks: list[np.ndarray] = []
    prev = current = math.nan
    log_abs_floor = math.log(config.abs_tol) if config.abs_tol > 0 else -math.inf
    for level in range(config.max_refinements + 1):
        t = _level_abscissae(level, t_max)
        x, da, db, log_da, log_db, log_w = _node_geometry(t, a, b)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                         under="ignore"):
            vals = np.asarray(log_f(x, da, db, log_da, log_db), dtype=float)
        terms = log_w + vals
        blocks.append(terms[~np.isnan(terms)])
        h = _BASE_STEP * 2.0 ** (-level)
        prev, current = current, log_half_span + math.log(h) + logsumexp(
            np.concatenate(blocks))
        if level >= 3:
            if current == -math.inf and prev == -math.inf:
                return current
            if current < log_abs_floor and prev < log_abs_floor:
                return current
            if abs(current - prev) <= config.rel_tol:
                return current
    raise NonConvergenceError(
        "tanh-sinh refinement did not reach rel_tol", current, prev)


def _linear_level_sums(f: Callable, a: float, b: float,
                       beta: float) -> Iterator[float]:
    """Running tanh-sinh estimates of int_a^b f, one per refinement level."""
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    t_max = _t_max_for(beta)
    half_span = 0.5 * (b - a)
    total = 0.0
    for level in itertools.count():
        t = _level_abscissae(level, t_max)
        x, da, db, log_da, log_db, log_w = _node_geometry(t, a, b)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                         under="ignore"):
            vals = np.asarray(f(x, da, db, log_da, log_db), dtype=float)
        terms = np.exp(log_w) * vals
        total += float(np.sum(terms[np.isfinite(terms)]))
        yield half_span * _BASE_STEP * 2.0 ** (-level) * total


def tanh_sinh_sum(f: Callable, a: float, b: float,
                  config: QuadratureConfig = DEFAULT_CONFIG,
                  beta: float = 1.0) -> float:
    """Linear-domain twin of tanh_sinh_log for signed integrands."""
    prev = current = math.nan
    for level, estimate in zip(range(config.max_refinements + 1),
                               _linear_level_sums(f, a, b, beta)):
        prev, current = current, estimate
        if level >= 3:
            if abs(current - prev) <= config.rel_tol * abs(current) + config.abs_tol:
                return current
    raise NonConvergenceError(
        "tanh-sinh refinement did not reach rel_tol", current, prev)


def tanh_sinh_fixed(f: Callable, a: float, b: float, level: int,
                    beta: float = 1.0) -> float:
    """tanh_sinh_sum stopped at a fixed refinement level.

    Unlike the adaptive rule the result is a smooth deterministic function
    of the endpoints, which keeps a root search over them monotone.
    """
    return next(itertools.islice(_linear_level_sums(f, a, b, beta),
                                 level, None))


def _log_sin_theta(da: np.ndarray, db: np.ndarray,
                   log_da: np.ndarray, log_db: np.ndarray) -> np.ndarray:
    # sin(theta) = sin(min distance to {0, pi}); below 1e-8 the log offset
    # itself is the answer to full precision.
    dmin = np.minimum(da, db)
    log_dmin = np.minimum(log_da, log_db)
    small = dmin < 1e-8
    safe = np.where(small, 1.0, dmin)
    return np.where(small, log_dmin, np.log(np.sin(safe)))


def _log_sinh_theta(theta: np.ndarray, da: np.ndarray,
                    log_da: np.ndarray, singular_left: bool) -> np.ndarray:
    if singular_left:
        small = da < 1e-8
        safe = np.where(small, 1.0, theta)
        return np.where(small, log_da, np.log(np.sinh(safe)))
    return np.log(np.sinh(theta))


def integrate_sin_weighted(sigma: float, alpha: float,
                           g: Optional[Callable] = None,
                           config: QuadratureConfig = DEFAULT_CONFIG) -> LogValue:
    """LogValue of int_0^pi e^{-sigma(1-cos theta)} (sin theta)^alpha g(theta) dtheta.

    g, when given, must be nonnegative; it is evaluated pointwise and its log
    is taken by the engine (zeros are fine).
    """
    if not sigma >= 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if not alpha > -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha}")

    def log_f(x, da, db, log_da, log_db):
        one_minus_cos = 2.0 * np.sin(0.5 * da) ** 2
        out = -sigma * one_minus_cos
        if alpha != 0.0:
            out = out + alpha * _log_sin_theta(da, db, log_da, log_db)
        if g is not None:
            out = out + np.log(np.asarray(g(x), dtype=float))
        return out

    beta = 1.0 + min(alpha, 0.0)
    return LogValue(tanh_sinh_log(log_f, 0.0, math.pi, config, beta=beta))


def sinh_theta_cutoff(sigma: float, alpha: float,
                      config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Upper integration limit theta_max = acosh(1 + tau_max/sigma), >= 5.

    In tau = sigma(cosh theta - 1) the integrand is e^{-tau} times a factor
    whose log grows no faster than k log tau, k = alpha - 1.  Past tau = k it
    falls by at least k(x - 1 - log x) at tau = k x, and
    x = 1 + T/k + log(2(1 + T/k)) makes that at least T = 50 - log(rel_tol).
    For alpha <= 1 the factor does not grow and tau_max = T.
    """
    target = 50.0 - math.log(config.rel_tol)
    k = alpha - 1.0
    tau_max = target
    if k > 0.0:
        tau_max += k * (1.0 + math.log(2.0 * (1.0 + target / k)))
    return max(5.0, math.acosh(1.0 + tau_max / sigma))


def integrate_sinh_weighted(sigma: float, alpha: float,
                            g: Optional[Callable] = None,
                            config: QuadratureConfig = DEFAULT_CONFIG,
                            theta_min: float = 0.0) -> LogValue:
    """LogValue of int_{theta_min}^inf e^{-sigma(cosh-1)} (sinh theta)^alpha g dtheta.

    theta_min defaults to 0 (the full family); a positive theta_min measures
    tail mass and removes the endpoint singularity.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not alpha > -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    if theta_min < 0.0:
        raise ValueError(f"theta_min must be >= 0, got {theta_min}")
    theta_max = sinh_theta_cutoff(sigma, alpha, config)
    if theta_min >= theta_max:
        return LogValue(-math.inf)
    singular_left = theta_min == 0.0 and alpha != 0.0

    def log_f(x, da, db, log_da, log_db):
        out = -sigma * 2.0 * np.sinh(0.5 * x) ** 2
        if alpha != 0.0:
            out = out + alpha * _log_sinh_theta(x, da, log_da, singular_left)
        if g is not None:
            out = out + np.log(np.asarray(g(x), dtype=float))
        return out

    beta = 1.0 + min(alpha, 0.0) if singular_left else 1.0
    return LogValue(tanh_sinh_log(log_f, theta_min, theta_max, config, beta=beta))


def integrate_sinh_weighted_substituted(
        sigma: float, alpha: float,
        config: QuadratureConfig = DEFAULT_CONFIG) -> LogValue:
    """Same integral as integrate_sinh_weighted via tau = sigma(cosh theta - 1).

    f(sigma) = sigma^{-1} int_0^inf e^{-tau} (2 tau/sigma + (tau/sigma)^2)^{(alpha-1)/2} dtau.
    Kept as an independent code path for cross-checks; never used internally.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not alpha > -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    tau_max = 60.0 + 10.0 * max(alpha, 0.0)
    half = 0.5 * (alpha - 1.0)

    def log_f(x, da, db, log_da, log_db):
        # log(2 tau/sigma + tau^2/sigma^2) via the log offset near tau = 0
        log_arg = (math.log(2.0) + log_da - math.log(sigma)
                   + np.log1p(0.5 * x / sigma))
        return -x + half * log_arg - math.log(sigma)

    beta = 1.0 + min(half, 0.0)
    return LogValue(tanh_sinh_log(log_f, 0.0, tau_max, config, beta=beta))


def _log_bessel_kernel(sigma, alpha: float, positive: bool, log_const: float,
                       scaled_bessel: Callable, integrate: Callable):
    """log_const - nu log(sigma/2) + log scaled_bessel(nu, sigma), nu = alpha/2.

    Entries whose scaled Bessel value is zero, subnormal or infinite carry no
    usable digits (large nu at small sigma) although the kernel is finite;
    they go to the quadrature `integrate`.
    """
    if not alpha > -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    s = np.asarray(sigma, dtype=float)
    valid = s > 0.0 if positive else s >= 0.0
    if not np.all(valid):
        raise ValueError(f"sigma must be {'>' if positive else '>='} 0, "
                         f"got {sigma}")
    flat = s.reshape(-1)
    nu = 0.5 * alpha
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        b = scaled_bessel(nu, flat)
        out = log_const - nu * np.log(0.5 * flat) + np.log(b)
    zero = flat == 0.0
    # I(0) = sqrt(pi) Gamma((alpha+1)/2) / Gamma(nu+1), the Beta integral
    out[zero] = log_const - gammaln(nu + 1.0)
    for i in np.flatnonzero(~zero & ~((b >= _TINY) & (b < math.inf))):
        out[i] = integrate(float(flat[i]), alpha).log_magnitude
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
