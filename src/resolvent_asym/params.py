"""Problem parameters and closed-form constants of the limiting theorems.

The resolvent problem is posed for an exponent ``p`` in ``(1, inf]``; the
value ``p = INFINITY`` (``math.inf``) is a first-class citizen everywhere and
selects the normalized infinity-Laplacian formulas.  All curvatures follow the
inward-normal convention: a ball of radius ``rho`` has principal curvatures
``+1/rho`` at every boundary point, the complement of a ball has ``-1/r_e``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

INFINITY = math.inf


def is_infinity(p: float) -> bool:
    """True when the exponent is the distinguished value ``INFINITY``."""
    return isinstance(p, float) and math.isinf(p) and p > 0


def _validate_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p <= 1.0:
        raise ValueError(f"exponent p must satisfy p > 1 or be INFINITY, got {p}")
    return p


def _require_count(name: str, value, least: int = 1) -> None:
    """Raise ValueError unless value is an integer >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise ValueError(
            f"{name} must be an integer >= {least}, got {value!r}")


def conjugate(p: float) -> float:
    """Conjugate exponent p' = p/(p-1); equals 1.0 at p = INFINITY.

    The involution conjugate(conjugate(p)) == p holds only to
    |conjugate(conjugate(p)) - p| <= 2^-52 p^2 for finite p: the conjugate
    of a large p is 1 + 1/(p - 1) and keeps about 52 - log2(p) bits of it
    (at p = 1e13 the round trip is off by 8e-4 relative).  INFINITY <-> 1
    holds only in the limit, so inputs must stay in (1, INFINITY].
    """
    p = _validate_p(p)
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def alpha(n: int, p: float) -> float:
    """Weight exponent (N - p)/(p - 1) of the radial kernels.

    Equals -1 + (N-1)/(p-1), hence > -1 for finite p > 1 and N >= 2, but
    the quotient rounds to -1 from about p = 4e16 at N = 3; such a p and
    p = INFINITY (the kernels degenerate to cosh/exp there) are rejected
    rather than given a conventional value.
    """
    _require_count("dimension N", n, 2)
    p = _validate_p(p)
    if math.isinf(p):
        raise ValueError("alpha is undefined at p = INFINITY")
    a = (n - p) / (p - 1.0)
    if a <= -1.0:
        raise ValueError(f"p = {p} is too large at N = {n}: alpha = "
                         f"(N - p)/(p - 1) rounds to {a}; use p = inf")
    return a


def c_nq(n: int, q: float) -> float:
    """Dimensional constant of the scaled q-mean limit.

    c_{N,q} = { 2^{-(N+1)/2} N! / ((q-1)^{(N+1)/2} Gamma((N+1)/2)) }^{1/(q-1)}

    Requires finite q > 1 (the q = INFINITY limit is the plain midrange 1/2
    and carries no scaling power, so it is handled by the callers).
    """
    _require_count("dimension N", n, 2)
    q = float(q)
    if math.isinf(q) or math.isnan(q) or q <= 1.0:
        raise ValueError(f"c_nq requires finite q > 1, got {q}")
    half = 0.5 * (n + 1)
    log_c = (-half * math.log(2.0) + gammaln(n + 1)
             - half * math.log(q - 1.0) - gammaln(half)) / (q - 1.0)
    return math.exp(log_c)


def pi_gamma(curvatures: Sequence[float], radius: float) -> float:
    """Curvature product prod_j (1 - R*kappa_j) at a touching radius R.

    curvatures are the N-1 principal curvatures with respect to the inward
    normal.  Any kappa_j >= 1/R would make the factor nonpositive (the
    touching ball of radius R could not fit); such inputs are rejected.
    """
    radius = float(radius)
    if not radius > 0.0:
        raise ValueError(f"touching radius must be positive, got {radius}")
    kappas = [float(k) for k in curvatures]
    if len(kappas) == 0:
        raise ValueError("need at least one principal curvature (N >= 2)")
    out = 1.0
    for k in kappas:
        if k >= 1.0 / radius:
            raise ValueError(
                f"curvature {k} >= 1/R = {1.0/radius}: touching ball of radius "
                f"{radius} does not fit")
        out *= 1.0 - radius * k
    return out


@dataclass(frozen=True)
class ProblemParams:
    """Dimension, exponent and resolvent scale of one problem instance."""

    n: int
    p: float
    eps: float

    def __post_init__(self) -> None:
        _require_count("dimension N", self.n, 2)
        object.__setattr__(self, "p", _validate_p(self.p))
        eps = float(self.eps)
        if not (eps > 0.0 and math.isfinite(eps)):
            raise ValueError(f"eps must be a positive finite number, got {self.eps}")
        object.__setattr__(self, "eps", eps)

    @property
    def p_conjugate(self) -> float:
        return conjugate(self.p)

    @property
    def alpha(self) -> float:
        return alpha(self.n, self.p)

    @property
    def is_infinity(self) -> bool:
        return is_infinity(self.p)

    def sigma(self, r: float) -> float:
        """Scaled radius sqrt(p') r / eps; rejects an eps so small that it
        overflows."""
        s = math.sqrt(self.p_conjugate) * r / self.eps
        if not math.isfinite(s):
            raise ValueError(f"eps = {self.eps} is too small: sqrt(p') r / eps "
                             f"overflows at r = {r}")
        return s

    @property
    def xi(self) -> float:
        """Internal length scale eps/sqrt(p')."""
        return self.eps / math.sqrt(self.p_conjugate)


def limit_prediction(n: int, p: float, q: float,
                     curvatures: Sequence[float], radius: float) -> float:
    """The limit of (R/eps)^{(N+1)/(2(q-1))} mu_q at a touching point:
    c_{N,q} / {(p')^{(N+1)/2} Pi_Gamma}^{1/(2(q-1))}.  For q = INFINITY the
    scaling power vanishes and the limit is the raw midrange 1/2."""
    pi = pi_gamma(curvatures, radius)
    q = float(q)
    if math.isinf(q) and q > 0:
        return 0.5
    c = c_nq(n, q)
    denom = (conjugate(p) ** (0.5 * (n + 1)) * pi) ** (1.0 / (2.0 * (q - 1.0)))
    return c / denom
