"""Asymptotic regimes of the sinh-weighted kernel and mollifier averages.

The kernel f(sigma) = int_0^inf e^{-sigma(cosh theta - 1)} (sinh theta)^alpha dtheta
admits closed leading terms for large and small sigma, an exact rewriting
through the modified Bessel function K_{alpha/2}, and defines (together with
its sin-weighted sibling) a family of probability measures concentrating at
the origin as sigma grows.  f_exact is that Bessel closed form; the
Bessel-K identity check, the mollifier numerators and the tail masses run
on the adaptive tanh-sinh engine of quadrature, at its fixed tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .quadrature import (
    LogValue,
    _log_cosh,
    integrate_sinh_weighted,
    log_sin_kernel,
    log_sinh_kernel,
    sin_family,
    sinh_family,
    tanh_sinh_log,
    tanh_sinh_sum,
)

LARGE_SIGMA_THRESHOLD = 10.0
SMALL_SIGMA_THRESHOLD = 0.1


@dataclass(frozen=True)
class AsymptoticBranch:
    """Leading asymptotic term of f in one regime.

    leading_value is the log of the leading term.  sign_discrepancy marks the
    small-sigma branch for -1 < alpha < 0, where the customary printed
    constant is negative while f itself is positive: the magnitude
    Gamma((alpha+1)/2) Gamma(-alpha/2) / (2 sqrt(pi)) is reported instead
    (it equals int_0^inf (sinh theta)^alpha dtheta, the true limit) and the
    flag records that a sign was dropped.
    """

    leading_value: float
    sign_discrepancy: bool = False


def f_exact(sigma: float, alpha: float) -> LogValue:
    """The kernel itself in closed Bessel form (log_sinh_kernel), valid in all
    regimes; integrate_sinh_weighted is its independent quadrature oracle."""
    return LogValue(log_sinh_kernel(sigma, alpha))


def f_asymptotic(sigma: float, alpha: float) -> AsymptoticBranch:
    """Leading term of f for sigma >= 10 or sigma <= 0.1.

    In the gap (0.1, 10) no asymptotic claim is made and a ValueError points
    the caller at f_exact.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not alpha > -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    if sigma >= LARGE_SIGMA_THRESHOLD:
        return AsymptoticBranch(0.5 * (alpha - 1.0) * math.log(2.0)
                                + gammaln(0.5 * (alpha + 1.0))
                                - 0.5 * (alpha + 1.0) * math.log(sigma))
    if sigma <= SMALL_SIGMA_THRESHOLD:
        if alpha > 0.0:
            return AsymptoticBranch(-alpha * math.log(sigma) + gammaln(alpha))
        if alpha == 0.0:
            return AsymptoticBranch(math.log(math.log(1.0 / sigma)))
        log_lead = (gammaln(0.5 * (alpha + 1.0)) + gammaln(-0.5 * alpha)
                    - math.log(2.0) - 0.5 * math.log(math.pi))
        return AsymptoticBranch(log_lead, sign_discrepancy=True)
    raise ValueError(
        f"sigma = {sigma} lies in the gap ({SMALL_SIGMA_THRESHOLD}, "
        f"{LARGE_SIGMA_THRESHOLD}) where only f_exact applies")


def bessel_k_identity_residual(sigma: float, alpha: float) -> float:
    """|f / [pi^{-1/2} Gamma((a+1)/2) (sigma/2)^{-a/2} e^sigma K_{a/2}(sigma)] - 1|.

    f is the quadrature integrate_sinh_weighted, not the closed form, and
    K_{alpha/2} is evaluated through its own cosh-kernel integral
    int_0^inf e^{-sigma cosh t} cosh(alpha t / 2) dt, an independent route
    taken in the log domain, where cosh(alpha t / 2) may overflow.
    """
    log_lhs = integrate_sinh_weighted(sigma, alpha).log_magnitude
    nu = 0.5 * alpha
    log_w, a, b, beta = sinh_family(sigma, 0.0)

    def log_f(x, *offsets):
        c = np.cosh(nu * x)
        return log_w(x, *offsets) + np.where(
            np.isfinite(c), np.log(c), _log_cosh(nu * x))

    log_k = tanh_sinh_log(log_f, a, b, beta)
    log_rhs = (-0.5 * math.log(math.pi) + gammaln(0.5 * (alpha + 1.0))
               - nu * math.log(0.5 * sigma) + log_k)
    return abs(math.expm1(log_lhs - log_rhs))


class MollifierKind(Enum):
    NU = "NU"    # sinh-weighted on [0, inf)
    MU = "MU"    # sin-weighted on [0, pi]


def mollifier_expectation(g: Callable, sigma: float, alpha: float,
                          kind: MollifierKind) -> float:
    """E[g] under the normalized kernel measure of the requested family.

    g must be bounded and continuous on the support (it may change sign); as
    sigma -> inf both families concentrate at 0 and the expectation tends to
    g(0).  Signed numerators run in the linear domain, so alpha is assumed
    nonnegative-or-mild (alpha > -1 is accepted, deep singularities are only
    exercised with g >= 0 elsewhere in the package).
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if kind is MollifierKind.MU:
        family, log_kernel = sin_family(sigma, alpha), log_sin_kernel
    elif kind is MollifierKind.NU:
        family, log_kernel = sinh_family(sigma, alpha), log_sinh_kernel
    else:
        raise ValueError(f"unknown mollifier kind {kind!r}")
    log_w, a, b, beta = family
    num = tanh_sinh_sum(
        lambda x, *offsets: (np.asarray(g(x), dtype=float)
                             * np.exp(log_w(x, *offsets))),
        a, b, beta)
    return num * math.exp(-log_kernel(sigma, alpha))


def mollifier_tail_mass(delta: float, sigma: float, alpha: float) -> float:
    """Mass of the sinh-weighted family beyond theta = delta."""
    if not delta > 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    tail = integrate_sinh_weighted(sigma, alpha, theta_min=delta).log_magnitude
    full = log_sinh_kernel(sigma, alpha)
    return math.exp(tail - full)
