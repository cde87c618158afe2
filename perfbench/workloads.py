"""The benchmark's workloads: seeded inputs, one pass each, independent checks.

Every random input (Monte Carlo seeds, the sweep seed, sampled radii and
(p, q, eps) draws) comes from the benchmark seed through ``make_inputs``;
the library only ever sees the generated values.  Each library operation of
a pass is checked against an oracle that does not share code with the
operation under test, and a failed or raising operation is counted without
stopping the pass.

Sizes: "full" is what the benchmark measures, "smoke" a reduced size that
runs the same code paths quickly for the benchmark's own test.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from typing import Callable, Dict, List

import numpy as np
from scipy.integrate import quad

WORKLOADS = ("coarea-qmean", "radial-barriers", "monte-carlo")
SIZES = ("full", "smoke")

INF = math.inf

# Monte Carlo checks are |estimate - oracle| <= MC_SIGMAS * se.  The
# acceptance tests use 3 se at one fixed seed; here the seed varies from run
# to run, and at 3 se each check would fail by chance at 0.27% of seeds (about
# 2% per pass over the seven checks).  5 se keeps chance failures below 1e-6
# per check while a biased estimator still shows.
MC_SIGMAS = 5.0

# Output files go to a fixed relative directory, so the emitted bytes, which
# include the output path, repeat across checkouts.
WORK_DIR = os.path.join(".perfbench_out", "work")


class CheckFailed(Exception):
    """An operation returned a result its oracle rejects."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @contextlib.contextmanager
    def op(self, label: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a failed operation is counted; the pass goes on
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------- oracles

def cap_measure(n: int, r1: float, c: float, window: float) -> float:
    """Measure of the sphere {|y| = r1} inside the ball B_window(x), |x| = c.

    Elementary closed forms for N = 2 (arc length 2 r1 phi) and N = 3 (cap
    area 2 pi r1^2 (1 - cos phi)), written independently of the library.
    """
    cos_phi = (r1 * r1 + c * c - window * window) / (2.0 * r1 * c)
    phi = math.acos(min(1.0, max(-1.0, cos_phi)))
    if n == 2:
        return 2.0 * r1 * phi
    if n == 3:
        return 2.0 * math.pi * r1 * r1 * (1.0 - math.cos(phi))
    raise ValueError(f"closed caps are written for N = 2, 3, got {n}")


def level_radius(kind: str, radius: float, s: float) -> float:
    """Radius of the level set {d_Gamma = s} of a ball or ball complement."""
    return radius - s if kind == "ball" else radius + s


def ellipse_level_length(a: float, b: float, center, R: float,
                         s: float, nodes: int = 200_001) -> float:
    """Length of the parallel curve at inward distance s of the ellipse
    x^2/a^2 + y^2/b^2 = 1 inside B_R(center), by a fine trapezoid rule.

    The upper half suffices: the balls used here stay in y >= 0.
    """
    t = np.linspace(0.0, math.pi, nodes)
    y = np.stack([a * np.cos(t), b * np.sin(t)], axis=1)
    normal = np.stack([-b * np.cos(t), -a * np.sin(t)], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    x = y + s * normal
    speed = np.hypot(a * np.sin(t), b * np.cos(t))
    kappa = a * b / speed ** 3
    inside = np.linalg.norm(x - np.asarray(center), axis=1) < R
    f = np.where(inside, speed * (1.0 - s * kappa), 0.0)
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(t)))


def qmean_prediction(n: int, p: float, q: float, R: float,
                     rho: float) -> float:
    """Scaled q-mean limit on the ball of radius rho, touching radius R.

    {2^{-(N+1)/2} N!/Gamma((N+1)/2)^2 * Gamma(m+1)/(q-1)^{m+1}}^{1/(q-1)}
    * Pi^{-1/(2(q-1))} * p'^{-(N+1)/(4(q-1))}, m = (N-1)/2, from the limit
    profile exp(-tau) in closed form; Pi = (1 - R/rho)^{N-1}.
    """
    qm1 = q - 1.0
    m = 0.5 * (n - 1)
    log_c = (-0.5 * (n + 1) * math.log(2.0) + math.lgamma(n + 1)
             - 2.0 * math.lgamma(0.5 * (n + 1))
             + math.lgamma(m + 1.0) - (m + 1.0) * math.log(qm1))
    pprime = 1.0 if math.isinf(p) else p / (p - 1.0)
    pi_gamma = (1.0 - R / rho) ** (n - 1)
    return math.exp(log_c / qm1 - math.log(pi_gamma) / (2.0 * qm1)
                    - (n + 1) * math.log(pprime) / (4.0 * qm1))


def u_infinity(kind: str, radius: float, eps: float, d):
    """The p = infinity solution as a function of boundary distance d."""
    d = np.asarray(d, dtype=float)
    if kind == "ball":
        r = radius - d
        return np.exp(np.logaddexp(r / eps, -r / eps)
                      - np.logaddexp(radius / eps, -radius / eps))
    return np.exp(-d / eps)


# ----------------------------------------------------------------- inputs

def make_inputs(workload: str, seed: int, size: str) -> Dict:
    """Every random input of one workload, drawn from the benchmark seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = np.random.default_rng([seed % 2 ** 64, WORKLOADS.index(workload)])
    smoke = size == "smoke"
    if workload == "coarea-qmean":
        return {
            "p": ["inf"] if smoke else [2.0, "inf"],
            # q-mean work per eps is fixed-count (fixed-level tanh-sinh,
            # fixed bisection depths), so the jitter moves values, not cost
            "eps_start": 0.02 * math.exp(rng.uniform(-0.05, 0.05)),
            "sweep_seed": int(rng.integers(2 ** 31)),
        }
    if workload == "radial-barriers":
        p_deep = (1.5, 3.0) if smoke else (1.05, 1.5, 3.0, 10.0)
        n_deep = (2,) if smoke else (2, 3, 5)
        deep = []
        for p, n, kind in itertools.product(p_deep, n_deep,
                                            ("ball", "exterior")):
            u = rng.random(8 if smoke else 64)
            radii = u if kind == "ball" else 1.0 + 2.0 * u
            deep.append({"p": p, "n": n, "kind": kind,
                         "r": [float(r) for r in radii]})
        return {
            "sandwich_p": (2.0, INF) if smoke else (1.5, 2.0, 3.0, 5.0, INF),
            "sandwich_n": (2,) if smoke else (2, 3),
            "sandwich_eps": (0.2,) if smoke else (0.2, 0.05),
            "ode_p": (2.0, INF) if smoke else (1.5, 2.0, 5.0, INF),
            "ode_n": (2,) if smoke else (2, 3),
            "rates_n": [2] if smoke else [2, 3],
            "rates_p": [2.0, "inf"] if smoke else [1.5, 2.0, 3.0, "inf"],
            "rates_seed": int(rng.integers(2 ** 31)),
            "modulus_slope": float(rng.uniform(0.5, 2.0)),
            "deep": deep,
            "bessel_draws": [(float(math.exp(rng.uniform(math.log(0.5),
                                                        math.log(50.0)))),
                              float(rng.uniform(-0.5, 1.5)))
                             for _ in range(3)],
        }
    mc = 4 * 10 ** (4 if smoke else 6)
    brute = 4 * 10 ** (4 if smoke else 5)
    return {
        "touch_seed": int(rng.integers(2 ** 31)),
        "area_samples": mc,
        "area_seeds": [int(v) for v in rng.integers(2 ** 31, size=3)],
        "ellipse_samples": mc // 10,
        "ellipse_seed": int(rng.integers(2 ** 31)),
        "brute_samples": brute,
        "brute_eps": [float(v) for v in rng.uniform(0.05, 0.15, size=3)],
        "brute_seeds": [int(v) for v in rng.integers(2 ** 31, size=3)],
        "limit_eps": float(0.05 * math.exp(rng.uniform(-0.1, 0.1))),
        "limit_samples": brute // 2,
        "limit_seed": int(rng.integers(2 ** 31)),
    }


# ----------------------------------------------------------------- passes

def _cli(args: List[str]) -> tuple:
    """Run the command line entry point in-process: (exit code, stdout)."""
    from resolvent_asym import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue()


def _write_config(name: str, doc: dict) -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def coarea_qmean(inp: Dict, checks: Checks) -> None:
    """Co-area q-means through `resolvent-asym qmean`, Richardson-checked."""
    rho, R, n, q = 1.0, 0.5, 2, 2.0
    out_path = os.path.join(WORK_DIR, "qmean.json")
    cfg = _write_config("qmean-config.json", {
        "params_grid": {"N": [n], "p": inp["p"], "q": [q]},
        "eps_sequence": {"start": inp["eps_start"], "factor": 0.5,
                         "count": 2},
        "geometry": {"kind": "ball", "domain_radius": rho, "R": R},
        "output": out_path,
        "seed": inp["sweep_seed"],
    })
    rows = []
    with checks.op("cli qmean"):
        code, _ = _cli(["qmean", "--config", cfg])
        require(code == 0, f"exit code {code}")
        with open(out_path, "r", encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
    for p in inp["p"]:
        with checks.op(f"richardson p={p}"):
            group = [r for r in rows if str(r["p"]) == str(p)]
            require(len(group) == 2, f"{len(group)} rows for p={p}")
            last = group[-1]
            require(last["path"] == "coarea", f"path {last['path']}")
            pred = qmean_prediction(n, float(p), q, R, rho)
            err = abs(last["richardson"] / pred - 1.0)
            require(err < 0.05, f"Richardson/prediction off by {err:.3g}")


def radial_barriers(inp: Dict, checks: Checks) -> None:
    """Barrier sandwich, radial equation, rates CLI, deep eps, kernel identities."""
    from resolvent_asym.barriers import sandwich_check
    from resolvent_asym.params import ProblemParams
    from resolvent_asym.radial import Geometry, RadialSolution, eval_log_u, \
        ode_residual
    from resolvent_asym.special import MollifierKind, \
        bessel_k_identity_residual, f_asymptotic, f_exact, \
        mollifier_expectation

    for p, n, eps in itertools.product(inp["sandwich_p"], inp["sandwich_n"],
                                       inp["sandwich_eps"]):
        params = ProblemParams(n=n, p=p, eps=eps)
        for geometry, grid in ((Geometry.ball(1.0), np.linspace(0, 1, 50)),
                               (Geometry.exterior(1.0),
                                np.linspace(1, 3, 50))):
            with checks.op(f"sandwich {geometry.kind.value} p={p} N={n} "
                           f"eps={eps}"):
                v = sandwich_check(params, geometry, grid)
                require(v <= 1e-9, f"violation {v:.3g}")

    for p, n in itertools.product(inp["ode_p"], inp["ode_n"]):
        params = ProblemParams(n=n, p=p, eps=0.1)
        for geometry, grid in ((Geometry.ball(1.0),
                                np.linspace(0.15, 0.85, 10)),
                               (Geometry.exterior(1.0),
                                np.linspace(1.1, 2.5, 10))):
            with checks.op(f"ode {geometry.kind.value} p={p} N={n}"):
                sol = RadialSolution(params, geometry)
                worst = max(abs(ode_residual(sol, float(r))) for r in grid)
                require(worst < 1e-3, f"residual {worst:.3g}")

    for kind, R in (("ball", 0.5), ("exterior", 1.0)):
        out_path = os.path.join(WORK_DIR, f"rates-{kind}.json")
        cfg = _write_config(f"rates-{kind}-config.json", {
            "params_grid": {"N": inp["rates_n"], "p": inp["rates_p"],
                            "q": [2.0]},
            "eps_sequence": {"start": 0.1, "factor": 0.1, "count": 4},
            "geometry": {"kind": kind, "domain_radius": 1.0, "R": R},
            "modulus": {"kind": "linear", "r": 1.0,
                        "slope": inp["modulus_slope"]},
            "output": out_path,
            "seed": inp["rates_seed"],
        })
        with checks.op(f"cli rates {kind}"):
            code, text = _cli(["rates", "--config", cfg])
            require(code == 0, f"exit code {code}")
            require("eps_log_psi_converges true" in text,
                    "eps log psi does not converge along the sweep")

    for case in inp["deep"]:
        with checks.op(f"eval_log_u eps=1e-4 {case['kind']} p={case['p']} "
                       f"N={case['n']}"):
            geometry = (Geometry.ball(1.0) if case["kind"] == "ball"
                        else Geometry.exterior(1.0))
            sol = RadialSolution(ProblemParams(n=case["n"], p=case["p"],
                                               eps=1e-4), geometry)
            log_u = np.asarray(eval_log_u(sol, np.array(case["r"])))
            require(bool(np.all(np.isfinite(log_u))), "non-finite log u")

    for alpha in (-0.5, 0.0, 0.5, 1.0, 2.0):
        with checks.op(f"large-sigma branch alpha={alpha}"):
            sigma = 1e3
            ratio = math.exp(f_exact(sigma, alpha).log_magnitude
                             - f_asymptotic(sigma, alpha).leading_value)
            require(abs(ratio - 1.0) <= 10.0 / sigma, f"ratio {ratio}")
    for alpha in (0.5, 1.0, 2.0):
        with checks.op(f"small-sigma branch alpha={alpha}"):
            ratio = math.exp(f_exact(1e-5, alpha).log_magnitude
                             - f_asymptotic(1e-5, alpha).leading_value)
            require(abs(ratio - 1.0) < 0.02, f"ratio {ratio}")
    bessel = [(s, a) for s in (0.5, 5.0, 50.0) for a in (-0.5, 0.5, 1.5)]
    for sigma, alpha in bessel + [tuple(d) for d in inp["bessel_draws"]]:
        with checks.op(f"bessel-K sigma={sigma:.4g} alpha={alpha:.4g}"):
            res = abs(bessel_k_identity_residual(sigma, alpha))
            require(res < 1e-6, f"residual {res:.3g}")
    for alpha, sigma, tol in ((0.0, 1e3, 0.05), (0.0, 1e5, 0.005),
                              (1.0, 1e3, 0.05), (1.0, 1e5, 0.005)):
        with checks.op(f"mollifier alpha={alpha} sigma={sigma:g}"):
            e = mollifier_expectation(np.cos, sigma, alpha, MollifierKind.MU)
            require(abs(e - 1.0) < tol, f"E[cos] = {e}")


def monte_carlo(inp: Dict, checks: Checks) -> None:
    """Sampling oracles: level-set areas, brute-force q-means, barrier rows."""
    from resolvent_asym.geometry import BallDomain, ExteriorBallDomain, \
        boundary_distances, level_set_area_mc, make_ellipse_domain, \
        touching_ball
    from resolvent_asym.params import INFINITY, ProblemParams
    from resolvent_asym.qmeans import q_mean_bruteforce, \
        qmean_limit_experiment, solution_profile

    ellipse = make_ellipse_domain(2.0, 1.0)
    ell_cfg = None
    with checks.op("touching_ball ellipse"):
        ell_cfg = touching_ball(ellipse, [0.0, 0.5], 0.5,
                                seed=inp["touch_seed"])
        # minor-axis vertex of the 2:1 ellipse: kappa = b/a^2 = 1/4
        require(abs(ell_cfg.pi_gamma - (1.0 - 0.5 * 0.25)) < 1e-9,
                f"Pi_Gamma {ell_cfg.pi_gamma}")

    # (kind, domain radius, touching-ball center, R)
    radial = (("ball", 1.0, [0.5, 0.0], 0.5),
              ("exterior", 1.0, [2.0, 0.0], 1.0),
              ("exterior", 1.0, [2.0, 0.0, 0.0], 1.0))
    configs = []
    for kind, radius, x, R in radial:
        domain = BallDomain(radius) if kind == "ball" \
            else ExteriorBallDomain(radius)
        configs.append(touching_ball(domain, np.array(x), R))

    s, hw = 0.05, 0.005
    bin_grid = np.linspace(s - hw, s + hw, 201)
    for (kind, radius, x, R), cfg, seed in zip(radial, configs,
                                               inp["area_seeds"]):
        with checks.op(f"level_set_area_mc {kind} N={cfg.n}"):
            est, se = level_set_area_mc(cfg.domain, cfg, s,
                                        n_samples=inp["area_samples"],
                                        seed=seed, half_width=hw)
            c = float(np.linalg.norm(x))
            ref = float(np.mean([cap_measure(cfg.n,
                                             level_radius(kind, radius, g),
                                             c, R) for g in bin_grid]))
            require(se > 0.0, "zero standard error")
            require(abs(est - ref) <= MC_SIGMAS * se,
                    f"off by {abs(est - ref) / se:.2f} se")

    with checks.op("level_set_area_mc ellipse"):
        require(ell_cfg is not None, "no ellipse configuration")
        est, se = level_set_area_mc(ellipse, ell_cfg, s,
                                    n_samples=inp["ellipse_samples"],
                                    seed=inp["ellipse_seed"], half_width=hw)
        ref = float(np.mean([ellipse_level_length(2.0, 1.0, ell_cfg.x,
                                                  ell_cfg.R, float(g),
                                                  nodes=20_001)
                             for g in bin_grid[::20]]))
        require(se > 0.0, "zero standard error")
        require(abs(est - ref) <= MC_SIGMAS * se,
                f"off by {abs(est - ref) / se:.2f} se")

    for (kind, radius, x, R), cfg, eps, seed in zip(
            radial, configs, inp["brute_eps"], inp["brute_seeds"]):
        with checks.op(f"q_mean_bruteforce {kind} N={cfg.n}"):
            params = ProblemParams(n=cfg.n, p=INFINITY, eps=eps)
            prof = solution_profile(params, cfg.domain)
            dom = cfg.domain

            def raw(pts, prof=prof, xi=params.xi, dom=dom):
                return prof(np.maximum(boundary_distances(dom, pts), 0.0)
                            / xi)

            mu, se = q_mean_bruteforce(cfg, 2.0, raw,
                                       n_samples=inp["brute_samples"],
                                       seed=seed)
            c = float(np.linalg.norm(x))
            s_max = min(2.0 * R, radius) if kind == "ball" else 2.0 * R
            num = quad(lambda d: float(u_infinity(kind, radius, eps, d))
                       * cap_measure(cfg.n, level_radius(kind, radius, d),
                                     c, R),
                       0.0, s_max, limit=400, epsabs=1e-13)[0]
            vol = (math.pi * R * R if cfg.n == 2
                   else 4.0 / 3.0 * math.pi * R ** 3)
            ref = num / vol
            require(se > 0.0, "zero standard error")
            require(abs(mu - ref) <= MC_SIGMAS * se,
                    f"MC {mu} vs co-area quad {ref}: "
                    f"{abs(mu - ref) / se:.2f} se")

    with checks.op("qmean_limit_experiment ellipse"):
        require(ell_cfg is not None, "no ellipse configuration")
        eps0 = inp["limit_eps"]
        seq = [ProblemParams(n=2, p=INFINITY, eps=e)
               for e in (eps0, 0.5 * eps0)]
        rows = qmean_limit_experiment(seq, ell_cfg, 2.0,
                                      n_samples=inp["limit_samples"],
                                      seed=inp["limit_seed"])
        for eps in (eps0, 0.5 * eps0):
            mus = {r["path"]: r["mu"] for r in rows if r["eps"] == eps}
            require(set(mus) == {"barrier-U", "barrier-V"},
                    f"paths {sorted(mus)} at eps={eps}")
            require(mus["barrier-U"] <= mus["barrier-V"],
                    f"mu_U {mus['barrier-U']} > mu_V {mus['barrier-V']}")


PASSES: Dict[str, Callable[[Dict, Checks], None]] = {
    "coarea-qmean": coarea_qmean,
    "radial-barriers": radial_barriers,
    "monte-carlo": monte_carlo,
}
