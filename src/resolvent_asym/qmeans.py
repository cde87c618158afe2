"""q-means over touching balls and their small-scale limits.

The q-mean of a function on B_R(x) is the unique root mu of

    G(mu) = int [f - mu]_+^{q-1} - int [mu - f]_+^{q-1}.

For functions of the boundary distance the integrals collapse, by the
co-area formula, to one-dimensional integrals against the level-set areas,
closed forms on balls, ball complements and ellipses.  A QMeanQuery sets
the route up once: the areas and the largest boundary distance s_max in
the ball from the domain's level_sets method, which every other domain
rejects, and the fixed-level rule quadrature.FixedRule.  Each integral
hands all of its nodes to one profile call and one array area call; G at
the two ends of the bracket shares one of each, both being integrals over
[0, s_max].  On other implicit domains the seeded Monte Carlo oracle
q_mean_bruteforce takes a raw function of the points.  It draws its sample
in blocks (geometry._ball_blocks), bit for bit the one-shot draw, and
keeps about 2 floats per sample: the values and one scratch array.  Every
root (the q-mean itself and the distance where a profile crosses mu) is
found by one helper, _root: scipy's brentq ported line for line, fed with
the end values its caller already holds, so that no G is evaluated twice
at one point.
Both q-means go to it through _qmean_root, which decides what is constant
and what is too small to resolve.

Solution profiles evaluate the exact radial solution through
radial.eval_log_u, whose kernels are closed-form; on an ellipse the limit
experiment brackets the solution between the q-means of the enhanced
barriers barriers.enhanced_U and barriers.enhanced_V, by the same co-area
route, so its rows are deterministic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import gammaln

from .barriers import enhanced_U, enhanced_V
from .geometry import (
    _DEFAULT_SEED,
    EllipseDomain,
    Geometry,
    TouchingBallConfig,
    _ball_blocks,
)
from .params import (ProblemParams, _require_count, is_infinity,
                     limit_prediction)
from .quadrature import FixedRule
from .radial import RadialSolution, eval_log_u

# Fixed tanh-sinh level of the co-area integrals: adaptive stopping would make
# G jump between levels as mu moves, a fixed level keeps it smooth and monotone.
_LEVEL = 6
# Brent's relative tolerance (4 ulp) and iteration cap, scipy's brentq defaults;
# a Python float, so that the roots come back as Python floats
_RTOL = 4.0 * sys.float_info.epsilon
_MAXITER = 100


def _root(G: Callable, lo: float, hi: float, g_lo: float,
          g_hi: float) -> Tuple[float, float]:
    """Root of a nonincreasing G(mu) on [lo, hi], given g_lo = G(lo) and
    g_hi = G(hi).

    Returns (mu, G(mu)/scale), scale the larger |G| at the two ends.  When G
    does not change sign the root is lo if G(lo) <= 0, else hi if G(hi) >= 0.
    Otherwise Brent's method (Brent 1973, ch. 4), line for line scipy 1.17's
    brentq (Zeros/brentq.c) and so bit for bit its root, but with the end
    values from the caller and G(mu) from the last iteration: G is never
    evaluated twice at one point.  Brent stops at 4 ulp relative, or at
    2^-60 of the bracket near zero.  A NaN in G, or 100 iterations without
    convergence, raise RuntimeError.
    """
    for x, g in ((lo, g_lo), (hi, g_hi)):
        if math.isnan(g):
            raise RuntimeError(f"the root's function is NaN at x={x!r}")
    scale = max(abs(g_lo), abs(g_hi), 1e-300)
    if g_lo <= 0.0:
        return lo, g_lo / scale
    if g_hi >= 0.0:
        return hi, g_hi / scale
    xtol = 2.0 ** -60 * (hi - lo)
    xpre, fpre, xcur, fcur = lo, float(g_lo), hi, float(g_hi)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur / scale
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # a zero divisor gives C an infinite or NaN step, which
                # fails the step test below
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den if den
                        else math.inf)
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(G(xcur))
        if math.isnan(fcur):
            raise RuntimeError(f"the root's function is NaN at x={xcur!r}")
    raise RuntimeError(f"Brent's method did not converge after {_MAXITER} "
                       f"iterations, value is {xcur!r}")


@dataclass(frozen=True, eq=False)
class QMeanQuery:
    """Input bundle for a q-mean over the touching ball B_R(x).

    `profile` is a nonnegative nonincreasing function of the scaled distance
    tau = d_Gamma/xi, vectorized, on a ball, ball-complement or ellipse
    domain; q_mean_bruteforce takes functions of the points, on any domain.
    s_max, area (the domain's level_sets) and the co-area integrals' rule
    (None at q = INFINITY) are built once here, and the profile's end values
    ends = (f(0), f(s_max/xi)) are kept from its check on 129 points.
    """

    cfg: TouchingBallConfig
    q: float
    xi: float
    profile: Callable
    s_max: float = field(init=False, repr=False)
    area: Callable = field(init=False, repr=False)
    rule: Optional[FixedRule] = field(init=False, repr=False)
    ends: Tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (is_infinity(self.q) or self.q > 1.0):
            raise ValueError(f"q must be > 1 or INFINITY, got {self.q}")
        if not self.xi > 0.0:
            raise ValueError(f"xi must be positive, got {self.xi}")
        s_max, area = self.cfg.domain.level_sets(self.cfg)
        # G is linear in the areas and Brent reads ratios of G: areas over a
        # power of two near R^(N-1), in the float range, keep the roots' bits
        unit = 2.0 ** min(max(-(self.cfg.n - 1) * math.frexp(self.cfg.R)[1],
                              -1022), 1023)
        object.__setattr__(self, "s_max", s_max)
        object.__setattr__(self, "area", lambda s: area(s) * unit)
        object.__setattr__(self, "rule", None if is_infinity(self.q) else
                           FixedRule(_LEVEL, min(1.0, self.q - 1.0,
                                                 0.5 * (self.cfg.n - 1))))
        tau = np.linspace(0.0, s_max / self.xi, 129)
        vals = np.asarray(self.profile(tau), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile must be finite on the ball")
        span = float(vals.max() - vals.min())
        slack = 1e-9 * (span + 1e-30)
        if np.any(np.diff(vals) > slack):
            raise ValueError("profile must be nonincreasing in tau")
        if np.min(vals) < -1e-12 * max(1.0, float(vals[0])):
            raise ValueError("profile must be nonnegative")
        # linspace puts its first and last points at 0 and s_max/xi exactly
        object.__setattr__(self, "ends", (float(vals[0]), float(vals[-1])))


@dataclass(frozen=True)
class QMeanResult:
    """mu and the root residual."""

    mu: float
    residual: float


def _scaled_exponent(n: int, q: float) -> float:
    return 0.0 if is_infinity(q) else (n + 1.0) / (2.0 * (q - 1.0))


def _sample_G(mu: float, v: np.ndarray, qm1: float, buf: np.ndarray) -> float:
    """mean [v - mu]_+^{q-1} - mean [mu - v]_+^{q-1}, each side evaluated
    in the scratch array buf (`**=` keeps numpy's scalar-power fast paths)."""
    np.subtract(v, mu, out=buf)
    np.maximum(buf, 0.0, out=buf)
    buf **= qm1
    upper = buf.mean()
    np.subtract(mu, v, out=buf)
    np.maximum(buf, 0.0, out=buf)
    buf **= qm1
    return float(upper - buf.mean())


def _qmean_root(G: Callable, lo: float, hi: float, what: str,
                ends: Optional[Callable] = None) -> Tuple[float, float]:
    """(mu, residual/scale) by _root for the G of values spanning [lo, hi];
    ends(), when given, returns (G(lo), G(hi)) in one evaluation.

    Values spread within 1e-14 of their magnitude are constant: their
    midrange, residual 0.  A root within the absolute tolerance
    2^-60 (hi - lo) of lo is not resolved: RuntimeError, naming lo `what`."""
    if hi - lo <= 1e-14 * max(abs(lo), abs(hi)):
        return 0.5 * (lo + hi), 0.0
    g_lo, g_hi = ends() if ends else (G(lo), G(hi))
    mu, residual = _root(G, lo, hi, g_lo, g_hi)
    xtol = 2.0 ** -60 * (hi - lo)
    if mu - lo <= xtol:
        raise RuntimeError(
            f"the q-mean lies within the root's absolute tolerance "
            f"{xtol:.3g} of {what} {lo:.3g}; it is not resolved")
    return mu, residual


def _empirical_qmean(values: np.ndarray, q: float) -> Tuple[float, float]:
    """The sample's q-mean by _qmean_root: (mu, residual/scale)."""
    v = np.asarray(values, dtype=float)
    qm1, buf = q - 1.0, np.empty_like(v)
    return _qmean_root(lambda m: _sample_G(m, v, qm1, buf), float(v.min()),
                       float(v.max()), "the sample minimum")


def _coarea_G(mu: float, query: QMeanQuery) -> float:
    profile, xi, area, rule = query.profile, query.xi, query.area, query.rule
    smax, qm1, (f0, fend) = query.s_max, query.q - 1.0, query.ends
    # where the profile crosses mu: 0 if it starts at or below, smax if above
    sc = _root(lambda s: float(profile(np.array([s / xi]))[0]) - mu, 0.0,
               smax, f0 - mu, fend - mu)[0]
    total = 0.0
    if sc > 0.0:
        total += rule(
            lambda x, *rest: np.maximum(profile(x / xi) - mu, 0.0) ** qm1
            * area(x),
            0.0, sc)
    if smax - sc > 1e-15 * smax:
        total -= rule(
            lambda x, *rest: np.maximum(mu - profile(x / xi), 0.0) ** qm1
            * area(x),
            sc, smax)
    return total


def _coarea_ends(query: QMeanQuery) -> Tuple[float, float]:
    """(_coarea_G(fend), _coarea_G(f0)): the profile crosses fend at s_max
    and f0 at 0, so both are integrals over [0, s_max] on the same nodes."""
    rule, smax, qm1, (f0, fend) = (query.rule, query.s_max, query.q - 1.0,
                                   query.ends)

    def both(x, *rest):
        prof, area = query.profile(x / query.xi), query.area(x)
        return (np.maximum(prof - fend, 0.0) ** qm1 * area,
                np.maximum(f0 - prof, 0.0) ** qm1 * area)

    upper, lower = (rule.total(v, 0.0, smax)
                    for v in rule.values(both, 0.0, smax))
    return 0.0 + upper, 0.0 - lower  # from 0.0, as _coarea_G adds them


def q_mean(query: QMeanQuery) -> QMeanResult:
    """The q-mean of the query's profile over B_R(x) on a ball, ball
    complement or ellipse.

    Finite q goes through the co-area route: G(mu) is a fixed-level
    tanh-sinh integral against closed-form level-set areas (sphere caps, or
    the ellipse's tube formula; one profile call and one array area call per
    integral, and per pair of end values), and mu and the profile's crossing
    of mu are Brent roots.
    q = INFINITY gives the midrange (f(0) + f(s_max/xi))/2 of the monotone
    profile, s_max the largest boundary distance in B_R(x), with residual 0.
    """
    q, (f0, fend) = query.q, query.ends
    if is_infinity(q):
        mu, residual = 0.5 * (f0 + fend), 0.0
    else:
        mu, residual = _qmean_root(
            lambda m: _coarea_G(m, query), fend, f0,
            "the profile's end value", lambda: _coarea_ends(query))
    return QMeanResult(mu=mu, residual=residual)


def q_mean_bruteforce(cfg: TouchingBallConfig, q: float, raw: Callable,
                      n_samples: int = 1_000_000,
                      seed: int = _DEFAULT_SEED) -> Tuple[float, float]:
    """Monte Carlo oracle: (mu, standard error) for a raw function on the ball.

    It is the q-mean on implicit domains other than the ellipse and the
    co-area route's oracle.  raw must be pointwise (a point's value may not
    depend on the other points): the sample is drawn in blocks, bit for bit
    the one-shot draw, and raw sees one block at a time, so memory stays at
    about 2 floats per sample.  A q-mean within the root's absolute
    tolerance of the sample's minimum raises RuntimeError
    (_empirical_qmean).  The error is the delta-method estimate
    sd(g)/(sqrt(n) |E dG/dmu|) for the estimating function
    g(v, mu) = [v-mu]_+^{q-1} - [mu-v]_+^{q-1}; at q = 2 this reduces to the
    usual sd/sqrt(n) of the sample mean.
    """
    if is_infinity(q):
        raise ValueError("the Monte Carlo oracle covers finite q only")
    if not q > 1.0:
        raise ValueError(f"q must be > 1, got {q}")
    # the standard error needs two samples
    _require_count("n_samples", n_samples, 2)
    v = np.empty(n_samples)
    lo = 0
    for pts in _ball_blocks(np.random.default_rng(seed),
                            np.asarray(cfg.x, dtype=float), cfg.R, n_samples):
        v[lo:lo + len(pts)] = raw(pts)
        lo += len(pts)
    mu, _ = _empirical_qmean(v, q)
    qm1 = q - 1.0
    # g = |v - mu|^{q-1}, negated below mu (0 - [mu-v]^{q-1}, as in G)
    g = np.subtract(v, mu)
    below = g < 0.0
    np.abs(g, out=g)
    g **= qm1
    np.subtract(0.0, g, out=g, where=below)
    # np.var(g), step for step, in g itself
    g -= np.add.reduce(g, keepdims=True) / g.size
    var = float(np.add.reduce(np.square(g, out=g)) / g.size)
    del g, below
    # the slope terms q-1 |v - mu|^{q-2}, finite and at v != mu, in v itself
    v -= mu
    np.abs(v, out=v)
    keep = v > 0.0
    with np.errstate(divide="ignore", over="ignore"):
        v **= qm1 - 1.0
    v *= qm1
    keep &= np.isfinite(v)
    slope = float(np.sum(v[keep])) / v.size
    se = math.sqrt(var / v.size) / max(slope, 1e-300)
    return mu, se


def qmean_profile_limit(cfg: TouchingBallConfig, q: float,
                        f: Callable) -> float:
    """Scaled q-mean limit for a limit profile f(tau):

    {2^{-(N+1)/2} N! / Gamma((N+1)/2)^2 * int_0^inf f^{q-1} tau^{(N-1)/2}}
    ^{1/(q-1)} * Pi_Gamma^{-1/(2(q-1))};  q = INFINITY gives f(0)/2.
    """
    n = cfg.n
    if is_infinity(q):
        return 0.5 * float(np.asarray(f(np.array([0.0])), dtype=float)[0])
    if not q > 1.0:
        raise ValueError(f"q must be > 1 or INFINITY, got {q}")
    qm1 = q - 1.0
    m = 0.5 * (n - 1)
    rule = FixedRule(7, min(1.0, m))

    def integrand(x, *rest):
        return np.asarray(f(x), dtype=float) ** qm1 * x ** m

    total = rule(integrand, 0.0, 8.0)
    t_hi = 8.0
    for _ in range(15):
        inc = rule(integrand, t_hi, 2.0 * t_hi)
        total += inc
        t_hi *= 2.0
        if abs(inc) <= 1e-13 * max(abs(total), 1e-300):
            break
    else:
        raise ValueError(
            f"profile integral does not converge (tail at T={t_hi:g} still "
            f"contributes)")
    if not total > 0.0:
        raise ValueError("profile integrates to zero")
    log_const = (-0.5 * (n + 1) * math.log(2.0) + gammaln(n + 1)
                 - 2.0 * gammaln(0.5 * (n + 1)))
    value = math.exp((log_const + math.log(total)) / qm1)
    return value * cfg.pi_gamma ** (-1.0 / (2.0 * qm1))


def solution_profile(params: ProblemParams, domain: Geometry) -> Callable:
    """The exact radial solution as a profile of tau = d_Gamma/xi."""
    if not isinstance(domain, Geometry):
        raise ValueError("exact solution profiles exist on radial domains "
                         "only; on other implicit domains use "
                         "q_mean_bruteforce")
    sol, xi = RadialSolution(params, domain), params.xi

    def prof(tau: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        r = domain.radius(np.maximum(xi * np.asarray(tau, dtype=float), 0.0))
        out = np.exp(np.asarray(eval_log_u(sol, r), dtype=float))
        return float(out) if np.ndim(tau) == 0 else out

    return prof


def qmean_limit_experiment(params_seq: Sequence[ProblemParams],
                           cfg: TouchingBallConfig, q: float,
                           n_samples: int = 200_000,
                           seed: int = _DEFAULT_SEED) -> List[dict]:
    """Scaled q-means along an eps sequence against the limit prediction.

    Radial domains evaluate the exact solution through the co-area route
    (path "coarea").  On an ellipse the solution has no closed form, and
    the rows are the q-means (q_mean, by co-area over the tube formula's
    level-set areas) of the barrier pair exp(enhanced_U), exp(enhanced_V)
    (paths "barrier-U", "barrier-V"), which brackets the solution's q-mean;
    they are deterministic.  Other implicit domains are rejected: their
    q-means are q_mean_bruteforce's.  n_samples and seed are validated and
    otherwise unused.  The scaled column is (R/eps)^{(N+1)/(2(q-1))} mu;
    the prediction carries the matching (p')^{(N+1)/2} factor.
    """
    params_seq = list(params_seq)
    if not params_seq:
        raise ValueError("empty parameter sequence")
    if len({pp.p for pp in params_seq}) != 1 or \
            len({pp.n for pp in params_seq}) != 1:
        raise ValueError("the sequence must vary eps only (same N and p)")
    n = cfg.n
    if params_seq[0].n != n:
        raise ValueError(
            f"params dimension {params_seq[0].n} does not match the "
            f"touching-ball dimension {n}")
    _require_count("n_samples", n_samples)
    _require_count("seed", seed, 0)
    dom = cfg.domain
    p = params_seq[0].p
    prediction = limit_prediction(n, p, q, cfg.curvatures, cfg.R)
    expo = _scaled_exponent(n, q)
    ill = bool((not is_infinity(q)) and q < 1.2)
    rows: List[dict] = []

    def add_row(pp: ProblemParams, profile: Callable, path: str) -> None:
        res = q_mean(QMeanQuery(cfg=cfg, q=q, xi=pp.xi, profile=profile))
        scaled = (cfg.R / pp.eps) ** expo * res.mu
        rows.append({"eps": pp.eps, "xi": pp.xi, "mu": res.mu,
                     "scaled": scaled, "prediction": prediction,
                     "ratio": scaled / prediction,
                     "residual": res.residual, "path": path,
                     "ill_conditioned": ill})

    for pp in params_seq:
        if isinstance(dom, EllipseDomain):
            for path, barrier in (("barrier-U", enhanced_U),
                                  ("barrier-V", enhanced_V)):
                add_row(pp, lambda tau, barrier=barrier, pp=pp:
                        np.exp(barrier(pp, cfg.R, tau)), path)
        else:
            add_row(pp, solution_profile(pp, dom), "coarea")
    return rows
