"""The kernels and the radial solutions against 40- and 60-digit mpmath
Bessel functions and 30-digit mpmath quadrature, psi(eps) of the Dini-type
modulus against a 40-digit minimisation, the sphere caps against mpmath's
incomplete beta, and the co-area q = 2 means against a 20-digit quotient
of mpmath integrals over those caps.

mpmath is a test-only dependency: it shares no code with scipy's Bessel
routines and incomplete beta, with the package's Debye and power-series
closed forms or with its tanh-sinh engine and co-area route, so it pins
them all.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import ive, kve

from resolvent_asym import quadrature
from resolvent_asym.cli import main
from resolvent_asym.experiments import ModulusSpec
from resolvent_asym.geometry import (BallDomain, ExteriorBallDomain,
                                     level_set_area, psi_of_eps, touching_ball)
from resolvent_asym.params import INFINITY, ProblemParams
from resolvent_asym.qmeans import QMeanQuery, q_mean, solution_profile
from resolvent_asym.quadrature import (
    integrate_sin_weighted,
    integrate_sinh_weighted,
    log_sin_kernel,
    log_sinh_kernel,
)
from resolvent_asym.radial import Geometry, RadialSolution, eval_log_u

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40

SIGMAS = (1e-8, 1e-4, 1.0, 1e3, 3e4, 1e7)
ALPHAS = (-0.95, -0.5, 0.0, 1.0, 19.0, 39.0)


def log_sin_oracle(sigma, alpha):
    # I = sqrt(pi) Gamma((a+1)/2) (sigma/2)^-nu e^-sigma I_nu(sigma), DLMF 10.32.2
    s, a = mp.mpf(sigma), mp.mpf(alpha)
    nu = a / 2
    head = mp.log(mp.pi) / 2 + mp.loggamma((a + 1) / 2)
    if s == 0:
        return float(head - mp.loggamma(nu + 1))
    return float(head - nu * mp.log(s / 2) + mp.log(mp.besseli(nu, s)) - s)


def log_sinh_oracle(sigma, alpha):
    # f = Gamma((a+1)/2)/sqrt(pi) (sigma/2)^-nu e^sigma K_nu(sigma), DLMF 10.32.8
    s, a = mp.mpf(sigma), mp.mpf(alpha)
    nu = a / 2
    return float(-mp.log(mp.pi) / 2 + mp.loggamma((a + 1) / 2)
                 - nu * mp.log(s / 2) + mp.log(mp.besselk(nu, s)) + s)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_sin_kernel_closed_form(alpha):
    for sigma in (0.0,) + SIGMAS:
        assert abs(log_sin_kernel(sigma, alpha)
                   - log_sin_oracle(sigma, alpha)) <= 1e-12, sigma


@pytest.mark.parametrize("alpha", ALPHAS)
def test_sinh_kernel_closed_form(alpha):
    for sigma in SIGMAS:
        assert abs(log_sinh_kernel(sigma, alpha)
                   - log_sinh_oracle(sigma, alpha)) <= 1e-12, sigma


@pytest.mark.parametrize("alpha", [0.0, 39.0])
@pytest.mark.parametrize("sigma", [1.2e9, 1e10, 1e20, 1e40])
def test_past_scipy_range(sigma, alpha):
    # scipy's ive/kve are nan here, so Debye's expansion answers; at 40
    # digits mpmath itself is off by 0.05 at sigma = 1e40
    with mp.workdps(60):
        for kernel, oracle in ((log_sin_kernel, log_sin_oracle),
                               (log_sinh_kernel, log_sinh_oracle)):
            ref = oracle(sigma, alpha)
            err = abs(kernel(sigma, alpha) - ref)
            assert err <= 1e-14 * max(1.0, abs(ref)), (sigma, alpha)


def log_quad_oracle(sigma, alpha, hyperbolic):
    """log I (log f if hyperbolic) at 30 digits by mp.quad of the log-domain
    integrand, cut at its peak and 12 peak widths either side (mp.besseli
    and mp.besselk do not converge where sigma and nu are both large).  The
    peak solves alpha cos t = sigma sin^2 t (cosh, sinh^2 if hyperbolic);
    the sinh integral stops 80 widths past it."""
    with mp.workdps(30):
        s, a = mp.mpf(sigma), mp.mpf(alpha)
        root = mp.sqrt(a * a + 4 * s * s)
        if hyperbolic:
            sq = a * (a + root) / (2 * s * s)
            peak, curv = mp.asinh(mp.sqrt(sq)), a / sq + s * mp.sqrt(1 + sq)
            hi = peak + 80 / mp.sqrt(curv)

            def g(t):
                return a * mp.log(mp.sinh(t)) - 2 * s * mp.sinh(t / 2) ** 2
        else:
            sq = 2 * a / (a + root)
            peak, curv = mp.asin(mp.sqrt(sq)), a / sq + s * mp.sqrt(1 - sq)
            hi = mp.pi

            def g(t):
                return a * mp.log(mp.sin(t)) - 2 * s * mp.sin(t / 2) ** 2
        cuts = [peak + k / mp.sqrt(curv) for k in (-12, 0, 12)]
        top = g(peak)
        return float(top + mp.log(mp.quad(
            lambda t: mp.exp(g(t) - top),
            [mp.mpf(0)] + [c for c in cuts if 0 < c < hi] + [hi])))


KERNELS = {"sin": (log_sin_kernel, ive, False),
           "sinh": (log_sinh_kernel, kve, True)}


def assert_near_quad_oracle(family, sigmas, alpha):
    kernel, _, hyperbolic = KERNELS[family]
    got = kernel(np.asarray(sigmas, dtype=float), alpha)
    for s, value in zip(sigmas, got):
        ref = log_quad_oracle(s, alpha, hyperbolic)
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (s, alpha)


def fallback_sigmas(scaled_bessel, alpha):
    """The sigma in [1e-30, 1e6] at which scaled_bessel(alpha/2, sigma) is
    zero, subnormal or infinite, so that Debye's expansion answers: one a
    decade, and ten a decade in the top decade, where the kernel is
    smallest."""
    coarse = np.geomspace(1e-30, 1e6, 37)
    b = scaled_bessel(0.5 * alpha, coarse)
    sigma = coarse[(b < np.finfo(float).tiny) | (b == math.inf)]
    dense = np.geomspace(sigma[-1], 10.0 * sigma[-1], 11)
    b = scaled_bessel(0.5 * alpha, dense)
    return np.concatenate(
        [sigma, dense[(b < np.finfo(float).tiny) | (b == math.inf)][1:]])


@pytest.mark.parametrize("family,alpha", [("sin", 2200.0), ("sinh", 4000.0)])
def test_closed_form_at_the_old_edges(family, alpha):
    # the largest alpha at which the retired quadrature fallback was
    # checked: within 1e-12 of max(1, |log f|) where scipy is unusable
    assert_near_quad_oracle(family, fallback_sigmas(KERNELS[family][1],
                                                    alpha), alpha)


@pytest.mark.parametrize("family,alpha,sigma", [
    ("sin", 2300.0, 850.0),
    ("sinh", 4200.0, 3000.0),
])
def test_closed_form_past_the_old_edges(family, alpha, sigma):
    # the kernel and the engine agree with the oracle where the integral is
    # far below 1e-300, which the log-domain rule represents as its log
    integrate = (integrate_sinh_weighted if KERNELS[family][2]
                 else integrate_sin_weighted)
    ref = log_quad_oracle(sigma, alpha, KERNELS[family][2])
    assert abs(integrate(sigma, alpha).log_magnitude - ref) <= 1e-12 * abs(ref)
    assert_near_quad_oracle(family, [sigma], alpha)


# every fifth decade from 1e-30 to 1e40, sigma = alpha (the sinh peak
# leaves theta = 0) and 5e8, where scipy answers at alpha = 1e6
LARGE_ORDER_SIGMAS = 10.0 ** np.arange(-30, 41, 5)


@pytest.mark.parametrize("family", KERNELS)
@pytest.mark.parametrize("alpha", [1e3, 1e4, 1e5, 1e6])
def test_large_order(family, alpha):
    # p close to 1 (alpha = 1e6 is p = 1 + 2e-6 at N = 3)
    assert_near_quad_oracle(
        family, np.append(LARGE_ORDER_SIGMAS, [alpha, 5e8]), alpha)


@pytest.mark.parametrize("alpha", [40.0, 1e3, 1e4, 1e6])
def test_sin_kernel_at_sigma_zero(alpha):
    # log I(0) = log(pi)/2 + log Gamma(nu + 1/2) - log Gamma(nu + 1): the
    # difference of the two gammaln loses 1e-10 at alpha = 1e6
    ref = log_sin_oracle(0.0, alpha)
    assert abs(log_sin_kernel(0.0, alpha) - ref) <= 1e-12 * max(1.0,
                                                                 abs(ref))


def usable(scaled_bessel, alpha, sigma):
    b = scaled_bessel(0.5 * alpha, sigma)
    return bool(np.finfo(float).tiny <= b < math.inf)


def switch(scaled_bessel, alpha, lo, hi):
    """The adjacent floats in [lo, hi] on either side of the one sigma where
    scaled_bessel(alpha/2, sigma) turns usable or unusable."""
    side = usable(scaled_bessel, alpha, lo)
    assert usable(scaled_bessel, alpha, hi) != side
    a, b = np.array([lo, hi]).view(np.int64)
    while b - a > 1:
        m = a + (b - a) // 2
        if usable(scaled_bessel, alpha, np.int64(m).view(float)) == side:
            a = m
        else:
            b = m
    return np.array([a, b]).view(float)


def assert_pair_near(kernel, oracle, pairs):
    """Each (sigma, alpha) within 1e-12 max(1, |log f|) of the oracle."""
    for sigma, alpha in pairs:
        ref = oracle(sigma, alpha)
        got = kernel(sigma, alpha)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (sigma, alpha)


ORACLES = {"sin": log_sin_oracle, "sinh": log_sinh_oracle}


@pytest.mark.parametrize("family", KERNELS)
@pytest.mark.parametrize("alpha,lo,hi", [
    # scipy and the power series, nu < 20
    (0.01, 1e-320, 1e-3), (-0.5, 1e-320, 1e-3), (3.0, 1e-320, 1e-3),
    (39.9, 1e-320, 1e-3),
    # scipy and Debye's expansion: nu >= 20, and past scipy's range
    (40.0, 1e-30, 1.0), (100.0, 1e-30, 1.0),
    (0.0, 1e3, 1e12), (-0.5, 1e3, 1e12), (39.9, 1e3, 1e12),
])
def test_both_sides_of_the_switch_from_scipy(family, alpha, lo, hi):
    kernel, scaled_bessel, _ = KERNELS[family]
    with mp.workdps(60):
        assert_pair_near(kernel, ORACLES[family],
                         [(s, alpha) for s in switch(scaled_bessel, alpha,
                                                     lo, hi)])


@pytest.mark.parametrize("family", KERNELS)
@pytest.mark.parametrize("alpha,lo,hi", [
    (1e3, 1e-30, 1e3), (1e3, 1e3, 1e12), (1e4, 1.0, 1e6),
    (1e6, 1e6, 5e8), (1e6, 5e8, 1e12),
])
def test_both_sides_of_the_switch_at_large_order(family, alpha, lo, hi):
    assert_near_quad_oracle(family, switch(KERNELS[family][1], alpha, lo, hi),
                            alpha)


@pytest.mark.parametrize("family", KERNELS)
@pytest.mark.parametrize("sigma", [5e-324, 1e-300, 1e-30])
def test_both_sides_of_the_switch_from_the_series(family, sigma):
    # alpha = 40 (nu = 20) is Debye's, the float below it the series'
    kernel = KERNELS[family][0]
    assert_pair_near(kernel, ORACLES[family],
                     [(sigma, np.nextafter(40.0, 0.0)), (sigma, 40.0)])


@pytest.mark.parametrize("sigma", [5e-324, 1e-306])
@pytest.mark.parametrize("alpha", [0.05, -0.05])
def test_both_sides_of_the_second_series_term(sigma, alpha):
    # below |alpha| = 0.05 the K series keeps (sigma/2)^{2|nu|} of its
    # first term
    assert_pair_near(log_sinh_kernel, log_sinh_oracle,
                     [(sigma, alpha), (sigma, np.nextafter(alpha, 0.0))])


@pytest.mark.parametrize("alpha", [0.0, 0.01, -0.01, 0.05, 0.5, 1.9])
def test_sinh_kernel_where_the_quadrature_cutoff_overflowed(alpha):
    # the retired fallback answered these; a one-term series gives inf at
    # alpha = 0 and is off by 8.7e-4 at alpha = 0.01
    assert_pair_near(log_sinh_kernel, log_sinh_oracle,
                     [(s, alpha) for s in (1e-306, 5e-307, 3e-307)])


@pytest.mark.parametrize("family", KERNELS)
@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.5, 3.0, 100.0])
def test_bottom_of_the_float_range(family, alpha):
    # a subnormal sigma, and the smallest one, where log(sigma/2) is -inf
    assert_pair_near(KERNELS[family][0], ORACLES[family],
                     [(s, alpha) for s in (1e-300, 1e-310, 5e-324)])


MIXED_SIGMAS = np.array([5e-324, 1e-310, 1e-300, 1e-30, 1e-8, 1.0, 1e3, 1e6,
                         5e8, 1e10, 1e40])


@pytest.mark.parametrize("family", KERNELS)
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.01, 3.0, 39.9, 40.0, 100.0,
                                   1e3, 1e6])
def test_one_array_of_every_regime_equals_its_scalars(family, alpha):
    kernel = KERNELS[family][0]
    sigma = MIXED_SIGMAS if family == "sinh" else np.append(MIXED_SIGMAS, 0.0)
    got = kernel(sigma.reshape(-1, 1), alpha)
    assert got.shape == (sigma.size, 1)
    assert [kernel(s, alpha) for s in sigma] == list(got[:, 0])


@pytest.mark.parametrize("alpha", [60.0, 100.0, 160.0])
@pytest.mark.parametrize("kernel,oracle", [
    (log_sin_kernel, log_sin_oracle),
    (log_sinh_kernel, log_sinh_oracle),
])
def test_array_and_scalar_calls(kernel, oracle, alpha):
    # nu >= 30 at sigma <= 1e-4, where Debye's expansion answers: the
    # points of the retired kernels digest, which recorded the quadrature
    # fallback's bits.  A 2-d array mixing scipy's values and Debye's keeps
    # its shape.
    assert_pair_near(kernel, oracle,
                     [(s, alpha) for s in (1e-10, 1e-8, 1e-6, 1e-4)])
    sigma = np.array([[1e-8, 1.0], [1e3, 1e-6]])
    got = kernel(sigma, alpha)
    assert got.shape == sigma.shape
    for idx in np.ndindex(sigma.shape):
        ref = oracle(sigma[idx], alpha)
        assert abs(got[idx] - ref) <= 1e-12 * max(1.0, abs(ref)), idx
    scalar = kernel(1.0, alpha)
    assert isinstance(scalar, float)
    assert scalar == got[0, 1]


@pytest.mark.parametrize("alpha", [-0.95, 0.5, 39.0])
@pytest.mark.parametrize("sigma", [1e-4, 0.1, 1.0, 23.0])
def test_sinh_quadrature_cutoff(sigma, alpha):
    # alpha = 39 (N = 3, p = 1.05) puts most of the mass beyond a cutoff
    # that ignores the growth of (sinh theta)^alpha
    got = integrate_sinh_weighted(sigma, alpha).log_magnitude
    assert abs(got - log_sinh_oracle(sigma, alpha)) <= quadrature._REL_TOL


def log_u_oracle(kind, alpha, pprime, eps, r, R=1.0):
    # log u = -nu log(r/R) + log Z_nu(k r) - log Z_nu(k R), Z = I on the
    # ball and K on the exterior, nu = alpha/2, k = sqrt(p')/eps
    nu = mp.mpf(alpha) / 2
    k = mp.sqrt(mp.mpf(pprime)) / mp.mpf(eps)
    r, R = mp.mpf(r), mp.mpf(R)
    bessel = mp.besseli if kind == "ball" else mp.besselk
    return float(-nu * mp.log(r / R) + mp.log(bessel(nu, k * r))
                 - mp.log(bessel(nu, k * R)))


@pytest.mark.parametrize("kind", ["ball", "exterior"])
@pytest.mark.parametrize("n,p", [(2, 50.0), (3, 1.05)])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_eval_log_u(kind, n, p, eps):
    # alpha = -48/49 (N = 2, p = 50) and alpha = 39 (N = 3, p = 1.05)
    params = ProblemParams(n=n, p=p, eps=eps)
    if kind == "ball":
        sol = RadialSolution(params, Geometry.ball(1.0))
        radii = [0.01, 0.3, 1.0 - 10.0 * eps, 1.0 - eps]
    else:
        sol = RadialSolution(params, Geometry.exterior(1.0))
        radii = [1.0 + eps, 1.0 + 10.0 * eps, 1.3, 3.0]
    got = eval_log_u(sol, np.array(radii))
    for r, value in zip(radii, got):
        ref = log_u_oracle(kind, params.alpha, params.p_conjugate, eps, r)
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (r, value, ref)


@pytest.mark.parametrize("p", [1.001, 1.0001, 1.00001])
def test_eval_log_u_at_large_order(p):
    # alpha = 1,999, 19,999 and 199,999 (N = 3): Debye's expansion answers
    # where ive underflows
    params = ProblemParams(n=3, p=p, eps=0.1)
    sol = RadialSolution(params, Geometry.ball(1.0))
    radii = [0.5, 0.7, 0.9]
    with mp.workdps(60):
        for r, value in zip(radii, eval_log_u(sol, np.array(radii))):
            ref = log_u_oracle("ball", params.alpha, params.p_conjugate, 0.1,
                               r)
            assert value < 0.0
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (r, value,
                                                                   ref)


def dini_psi_oracle(eps):
    # on the graph of 1/log(1/s), s = e^{-u}: d^2 = e^{-2u} + (eps - 1/u)^2
    # falls in u past the crossing u = 1/eps and rises as u -> inf, so
    # psi is d at the one root of its u-derivative there.  The root is
    # 1/eps + O(e^{-2/eps}/eps^4), resolved at 40 digits for eps >= 0.05;
    # below, psi is e^{-1/eps} to 1e-12
    if eps < 0.05:
        return math.exp(-1.0 / eps)
    e = mp.mpf(eps)
    u = mp.findroot(lambda u: (e - 1 / u) / u ** 2 - mp.exp(-2 * u),
                    (1 / e, 1 / e + 100), solver="anderson")
    return float(min(mp.sqrt(mp.exp(-2 * u) + (e - 1 / u) ** 2), e))


def test_dini_psi_minimisation():
    # above eps = 0.05 the nearest point leaves the crossing e^{-1/eps};
    # eps = 1/log 2 crosses at s = r
    mod = ModulusSpec("log_reciprocal", 0.5)
    for eps in np.geomspace(0.05, 1.0 / math.log(2.0), 40):
        assert psi_of_eps(mod, eps) == pytest.approx(
            dini_psi_oracle(eps), rel=1e-10), eps


def test_rates_dini_rows(capsys, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "params_grid": {"N": [2], "p": ["inf"], "q": [2.0]},
        "eps_sequence": {"start": 0.1056, "factor": 0.5, "count": 4},
        "geometry": {"kind": "ball", "domain_radius": 1.0, "R": 0.5},
        "modulus": {"kind": "log_reciprocal", "r": 0.5},
        "seed": 3}))
    assert main(["rates", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    head = out.index("eps,psi,eps_log_psi,eps_loglog_psi")
    rows = [dict(zip(out[head].split(","), line.split(",")))
            for line in out[head + 1:-1]]
    assert [float(row["eps"]) for row in rows] == pytest.approx(
        [0.1056, 0.0528, 0.0264, 0.0132], rel=1e-12)
    for row in rows:
        eps = float(row["eps"])
        assert abs(float(row["eps_log_psi"])
                   - eps * math.log(dini_psi_oracle(eps))) <= 1e-9, eps
    assert out[-1] == "eps_log_psi_converges false"


def mp_cap(kind, rho, R, n, s):
    """The level-s sphere cap in the touching ball B_R(x), |x| = rho -+ R,
    at the precision in force: |S^(N-1)| r1^(N-1) I_h((N-1)/2, (N-1)/2),
    h = (1 - cos phi)/2 with cos phi by the law of cosines (the substitution
    u = sin^2(t/2) in int_0^phi sin^(N-2) t dt)."""
    rho, R, s = mp.mpf(rho), mp.mpf(R), mp.mpf(s)
    r1, c = (rho - s, rho - R) if kind == "ball" else (rho + s, rho + R)
    if r1 <= 0:
        return mp.mpf(0)
    h = min(max((1 - (r1 * r1 + c * c - R * R) / (2 * r1 * c)) / 2, 0), 1)
    a = mp.mpf(n - 1) / 2
    return (2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
            * r1 ** (n - 1) * mp.betainc(a, a, 0, h, regularized=True))


def radial_cfg(kind, rho, R, n):
    """The touching ball B_R(x), x = (rho -+ R, 0, ...), in the ball of
    radius rho or its exterior."""
    x = np.zeros(n)
    if kind == "ball":
        x[0] = rho - R
        return touching_ball(BallDomain(rho), x, R)
    x[0] = rho + R
    return touching_ball(ExteriorBallDomain(rho), x, R)


CAP_SETUPS = [("ball", 1.0, 0.25), ("ball", 1.0, 0.5), ("ball", 1.0, 0.75),
              ("exterior", 1.0, 0.5), ("exterior", 1.0, 1.0),
              ("exterior", 3.0, 0.5)]


@pytest.mark.parametrize("kind,rho,R", CAP_SETUPS)
@pytest.mark.parametrize("n", [2, 3, 5, 20])
def test_sphere_caps(kind, rho, R, n):
    # from s = 1e-17, where a cosine of the cap's angle cancels, to
    # 2R (1 - 1e-15), past the hemisphere and a ball's centre
    cfg = radial_cfg(kind, rho, R, n)
    s = np.concatenate([np.geomspace(1e-17, 2.0 * R, 35)[:-1],
                        2.0 * R * (1.0 - np.geomspace(0.1, 1e-15, 8))])
    got = level_set_area(cfg.domain, cfg, s)
    for si, value in zip(s, got):
        ref = float(mp_cap(kind, rho, R, n, si))
        assert abs(value - ref) <= 2e-14 * ref, (si, value, ref)


@pytest.mark.parametrize("kind,R", [("ball", 0.5), ("exterior", 1.0)])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("eps", [0.05, 0.02])
def test_coarea_mean_at_q_two(kind, R, n, eps):
    # at q = 2 the q-mean is the mean of u over B_R(x), int u A ds / vol, and
    # at p = inf u is cosh(r/eps)/cosh(1/eps) in the unit ball and
    # e^(-d/eps) outside it: a 20-digit quotient over the closed caps
    cfg = radial_cfg(kind, 1.0, R, n)
    pp = ProblemParams(n=n, p=INFINITY, eps=eps)
    mu = q_mean(QMeanQuery(cfg=cfg, q=2.0, xi=pp.xi,
                           profile=solution_profile(pp, cfg.domain))).mu
    with mp.workdps(20):
        e = mp.mpf(eps)
        if kind == "ball":
            def u(s):
                return mp.cosh((1 - s) / e) / mp.cosh(1 / e)
        else:
            def u(s):
                return mp.exp(-s / e)
        s_max = cfg.domain.s_max(R)
        cuts = [k * eps for k in (0, 1, 5, 20) if k * eps < s_max] + [s_max]
        total = mp.quad(lambda s: u(s) * mp_cap(kind, 1.0, R, n, s), cuts)
        volume = mp.pi ** (mp.mpf(n) / 2) * mp.mpf(R) ** n / mp.gamma(
            mp.mpf(n) / 2 + 1)
        ref = float(total / volume)
    assert abs(mu - ref) <= 1e-14 * ref, (mu, ref)
