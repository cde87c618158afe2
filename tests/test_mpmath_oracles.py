"""The kernels and the radial solutions against 40- and 60-digit mpmath
Bessel functions, and psi(eps) of the Dini-type modulus against a 40-digit
minimisation.

mpmath is a test-only dependency: it shares no code with scipy's Bessel
routines or with the package's tanh-sinh engine, so it pins both the closed
forms and the quadrature that backs them.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import ive, kve

from resolvent_asym import quadrature
from resolvent_asym.cli import main
from resolvent_asym.experiments import ModulusSpec
from resolvent_asym.geometry import psi_of_eps
from resolvent_asym.params import ProblemParams
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
    # scipy's ive/kve are nan here, so the large-argument expansions answer;
    # at 40 digits mpmath itself is off by 0.05 at sigma = 1e40
    with mp.workdps(60):
        for kernel, oracle in ((log_sin_kernel, log_sin_oracle),
                               (log_sinh_kernel, log_sinh_oracle)):
            ref = oracle(sigma, alpha)
            err = abs(kernel(sigma, alpha) - ref)
            assert err <= 1e-14 * max(1.0, abs(ref)), (sigma, alpha)


@pytest.mark.parametrize("sigma", [1e-8, 1e-6])
def test_fallback_region(sigma):
    # nu = 50: e^-sigma I_nu underflows and e^sigma K_nu overflows here, so
    # these values come from the quadrature fallback
    alpha = 100.0
    assert abs(log_sin_kernel(sigma, alpha)
               - log_sin_oracle(sigma, alpha)) <= 1e-10
    assert abs(log_sinh_kernel(sigma, alpha)
               - log_sinh_oracle(sigma, alpha)) <= 1e-10


def log_sinh_quad_oracle(sigma, alpha):
    # log f by mp.quad of the log-domain integrand, split at its peak
    # sinh(t) tanh(t) = alpha/sigma in steps of the peak's width:
    # mp.besselk fails to converge at large order
    s, a = mp.mpf(sigma), mp.mpf(alpha)

    def g(t):
        return a * mp.log(mp.sinh(t)) - 2 * s * mp.sinh(t / 2) ** 2

    q = a / s
    peak = mp.findroot(lambda t: mp.log(mp.sinh(t) * mp.tanh(t) / q),
                       mp.asinh(mp.sqrt(q)) if q < 1 else mp.acosh(q))
    width = 1 / mp.sqrt(s * mp.cosh(peak) + a / mp.sinh(peak) ** 2)
    cuts = [peak + k * width for k in (-40, -10, -3, 0, 3, 10, 40, 80)]
    top = g(peak)
    return float(top + mp.log(mp.quad(lambda t: mp.exp(g(t) - top),
                                      [mp.mpf(0)] + [c for c in cuts
                                                     if c > 0])))


def fallback_sigmas(scaled_bessel, alpha):
    """The sigma in [1e-30, 1e6] at which scaled_bessel(alpha/2, sigma) is
    zero, subnormal or infinite, so that the kernel's quadrature fallback
    answers: one a decade, and ten a decade in the top decade, where the
    kernel is smallest."""
    coarse = np.geomspace(1e-30, 1e6, 37)
    b = scaled_bessel(0.5 * alpha, coarse)
    sigma = coarse[(b < np.finfo(float).tiny) | (b == math.inf)]
    dense = np.geomspace(sigma[-1], 10.0 * sigma[-1], 11)
    b = scaled_bessel(0.5 * alpha, dense)
    return np.concatenate(
        [sigma, dense[(b < np.finfo(float).tiny) | (b == math.inf)][1:]])


FALLBACKS = {
    "sin": (log_sin_kernel, ive, integrate_sin_weighted, log_sin_oracle,
            quadrature._SIN_EDGE),
    "sinh": (log_sinh_kernel, kve, integrate_sinh_weighted,
             log_sinh_quad_oracle, quadrature._SINH_EDGE),
}


@pytest.mark.parametrize("family", FALLBACKS)
def test_fallback_agrees_at_its_edge(family):
    # at the largest alpha it is checked at, the fallback is within 1e-12
    # of max(1, |log f|) from 1e-30 to the top of its sigma range
    kernel, scaled_bessel, _, oracle, edge = FALLBACKS[family]
    sigma = fallback_sigmas(scaled_bessel, edge)
    got = kernel(sigma, edge)
    with mp.workdps(30):
        for s, value in zip(sigma, got):
            ref = oracle(s, edge)
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), s


@pytest.mark.parametrize("family,alpha,sigma", [
    ("sin", 2300.0, 850.0),
    ("sinh", 4200.0, 3000.0),
])
def test_fallback_refused_past_its_edge(family, alpha, sigma):
    # past the edge the engine accepts two coarse levels below its
    # absolute floor: log I is off by 0.15 here, log f by 20
    kernel, scaled_bessel, integrate, oracle, edge = FALLBACKS[family]
    with mp.workdps(30):
        ref = oracle(sigma, alpha)
    assert abs(integrate(sigma, alpha).log_magnitude - ref) > 0.1
    for a, s in ((alpha, sigma),
                 (edge + 1.0, fallback_sigmas(scaled_bessel, edge + 1.0)[-1])):
        with pytest.raises(ValueError,
                           match=rf"alpha = {a} is past {edge:g}, .* "
                                 rf"sigma = {s}$"):
            kernel(np.array([1e6, s]), a)


@pytest.mark.parametrize("kernel,oracle", [
    (log_sin_kernel, log_sin_oracle),
    (log_sinh_kernel, log_sinh_oracle),
])
def test_array_and_scalar_calls(kernel, oracle):
    # a 2-d array mixing the closed form and the fallback keeps its shape
    alpha = 100.0
    sigma = np.array([[1e-8, 1.0], [1e3, 1e-6]])
    got = kernel(sigma, alpha)
    assert got.shape == sigma.shape
    for idx in np.ndindex(sigma.shape):
        assert abs(got[idx] - oracle(sigma[idx], alpha)) <= 1e-10
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


def test_eval_log_u_below_the_fallback_edge():
    # alpha = 1,999 (N = 3, p = 1.001): the sin kernel's fallback answers
    params = ProblemParams(n=3, p=1.001, eps=0.1)
    sol = RadialSolution(params, Geometry.ball(1.0))
    radii = [0.5, 0.7, 0.9]
    for r, value in zip(radii, eval_log_u(sol, np.array(radii))):
        ref = log_u_oracle("ball", params.alpha, params.p_conjugate, 0.1, r)
        assert value < 0.0
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (r, value, ref)


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
