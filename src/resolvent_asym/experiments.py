"""Parameter sweeps, rate fits against the regime models, and table emission.

Sweeps run serially over the eps grid and assemble rows in a fixed order,
so identical configs and seeds produce byte-identical output files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .geometry import (
    _DEFAULT_SEED,
    BallDomain,
    ExteriorBallDomain,
    ModulusOfContinuity,
    TouchingBallConfig,
    psi_of_eps,
    touching_ball,
)
from .params import INFINITY, ProblemParams, _require_count, is_infinity
from .qmeans import qmean_limit_experiment
from .radial import RadialSolution, varadhan_residual


class RateModel(Enum):
    """Convergence-rate shapes, one per uniform-rate regime in p."""

    EPS = "eps"
    EPS_LOG = "eps_log"


@dataclass(frozen=True)
class RateFit:
    """Constant fit of |residual| = coefficient * model(eps) in log space."""

    model: RateModel
    coefficient: float
    r_squared: float
    max_ratio: float
    degenerate: bool = False

    @property
    def matched(self) -> bool:
        return (not self.degenerate) and self.r_squared >= 0.98


def _model_values(model: RateModel, eps: np.ndarray) -> np.ndarray:
    vals = eps.copy() if model is RateModel.EPS else eps * np.log(1.0 / eps)
    if np.any(vals <= 0.0):
        raise ValueError(
            f"model {model.value} is nonpositive on this eps grid; "
            "rate fitting needs eps small enough for the regime shape")
    return vals


def fit_rate(model: RateModel, eps: Sequence[float],
             residuals: Sequence[float]) -> RateFit:
    """Fit log|residual| = log coefficient + log model(eps), slope fixed at 1.

    Residuals at or below the underflow floor make the fit degenerate:
    coefficient 0 is reported and nothing is asserted about the rate.
    """
    eps_arr = np.asarray(eps, dtype=float)
    res = np.abs(np.asarray(residuals, dtype=float))
    if eps_arr.size < 2:
        raise ValueError("rate fitting needs at least two points")
    vals = _model_values(model, eps_arr)
    if np.any(res < 1e-250):
        return RateFit(model=model, coefficient=0.0, r_squared=0.0,
                       max_ratio=float(np.max(res / vals)), degenerate=True)
    y = np.log(res)
    base = np.log(vals)
    log_c = float(np.mean(y - base))
    fitted = base + log_c
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot < 1e-28:
        r2 = 1.0 if ss_res < 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(model=model, coefficient=math.exp(log_c), r_squared=r2,
                   max_ratio=float(np.max(res / vals)))


RADIAL_KINDS = {"ball": BallDomain, "exterior": ExteriorBallDomain}


@dataclass(frozen=True)
class GeometrySpec:
    """Radial geometry for sweeps: the domain radius and the touching radius R."""

    kind: str
    domain_radius: float
    R: float

    def __post_init__(self) -> None:
        if not (isinstance(self.kind, str) and self.kind in RADIAL_KINDS):
            raise ValueError(f"geometry kind must be "
                             f"{' or '.join(RADIAL_KINDS)}, got {self.kind!r}")
        if not (self.domain_radius > 0.0 and self.R > 0.0):
            raise ValueError("geometry radii must be positive")
        if self.kind == "ball" and not self.R < self.domain_radius:
            raise ValueError(
                f"touching radius R={self.R} must be smaller than the ball "
                f"radius {self.domain_radius}")


@dataclass(frozen=True)
class ModulusSpec:
    """Named modulus of continuity for psi-rate runs."""

    kind: str
    r: float
    slope: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "sqrt", "log_reciprocal"):
            raise ValueError(f"unknown modulus kind {self.kind!r}")
        if not self.r > 0.0:
            raise ValueError("modulus range r must be positive")
        if self.kind == "linear" and not (self.slope is not None
                                          and self.slope > 0.0):
            raise ValueError("linear modulus needs a positive slope")


def make_modulus(spec: ModulusSpec) -> ModulusOfContinuity:
    if spec.kind == "linear":
        slope = float(spec.slope)
        return ModulusOfContinuity(lambda s: slope * np.asarray(s), spec.r)
    if spec.kind == "sqrt":
        return ModulusOfContinuity(lambda s: np.sqrt(np.asarray(s)), spec.r)
    return ModulusOfContinuity(
        lambda s: 1.0 / np.log(1.0 / np.asarray(s)), spec.r)


def _parse_exponent(v) -> float:
    if isinstance(v, str):
        if v.strip().lower() in ("inf", "infinity"):
            return INFINITY
        raise ValueError(f"cannot parse exponent {v!r}")
    return _number(v, "exponent")


def _number(v, name: str) -> float:
    """A config value that must be a JSON number (not a boolean)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{name} must be a number, got {v!r}")
    return float(v)


def _only_keys(d: dict, known: set, where: str = "") -> None:
    extra = set(d) - known
    if extra:
        raise ValueError(f"unknown config keys{where}: {sorted(extra)}")


def _section(d: dict, key: str, known: set) -> dict:
    v = d[key]
    if not isinstance(v, dict):
        raise ValueError(f"{key} must be an object, got {v!r}")
    _only_keys(v, known, f" in {key}")
    return v


def _grid(grid: dict, key: str) -> list:
    v = grid.get(key, [])
    if not isinstance(v, list):
        raise ValueError(f"params_grid.{key} must be a list, got {v!r}")
    return v


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: parameter grid, geometric eps sequence, geometry, seed."""

    n_values: Tuple[int, ...]
    p_values: Tuple[float, ...]
    q_values: Tuple[float, ...]
    eps_start: float
    eps_factor: float
    eps_count: int
    geometry: GeometrySpec
    modulus: Optional[ModulusSpec] = None
    output: Optional[str] = None
    seed: int = _DEFAULT_SEED

    def __post_init__(self) -> None:
        if not self.n_values or any(
                isinstance(n, bool) or not isinstance(n, int) or n < 2
                for n in self.n_values):
            raise ValueError("N grid must be a nonempty list of integers >= 2")
        if not self.p_values or any(
                not (is_infinity(p) or p > 1.0) for p in self.p_values):
            raise ValueError("p grid entries must be > 1 or INFINITY")
        if not self.q_values or any(
                not (is_infinity(q) or q > 1.0) for q in self.q_values):
            raise ValueError("q grid entries must be > 1 or INFINITY")
        if not self.eps_start > 0.0:
            raise ValueError(f"eps_start must be positive, got {self.eps_start}")
        if not 0.0 < self.eps_factor < 1.0:
            raise ValueError(
                f"eps_factor must lie in (0, 1) so the sequence is strictly "
                f"decreasing, got {self.eps_factor}")
        _require_count("eps_count", self.eps_count)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not (self.output is None or isinstance(self.output, str)):
            raise ValueError(
                f"output must be a string or null, got {self.output!r}")

    @property
    def eps_sequence(self) -> Tuple[float, ...]:
        return tuple(self.eps_start * self.eps_factor ** k
                     for k in range(self.eps_count))

    @staticmethod
    def from_dict(d: dict) -> "SweepConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        _only_keys(d, {"params_grid", "eps_sequence", "geometry", "modulus",
                       "output", "seed"})
        try:
            grid = _section(d, "params_grid", {"N", "p", "q"})
            eps = _section(d, "eps_sequence", {"start", "factor", "count"})
            geo = _section(d, "geometry", {"kind", "domain_radius", "R"})
        except KeyError as e:
            raise ValueError(f"config is missing required key {e.args[0]!r}")
        geometry = GeometrySpec(kind=geo.get("kind", ""),
                                domain_radius=_number(
                                    geo.get("domain_radius", 0.0),
                                    "geometry.domain_radius"),
                                R=_number(geo.get("R", 0.0), "geometry.R"))
        modulus = None
        if d.get("modulus") is not None:
            m = _section(d, "modulus", {"kind", "r", "slope"})
            modulus = ModulusSpec(kind=m.get("kind", ""),
                                  r=_number(m.get("r", 0.0), "modulus.r"),
                                  slope=(_number(m["slope"], "modulus.slope")
                                         if "slope" in m else None))
        return SweepConfig(
            n_values=tuple(_grid(grid, "N")),
            p_values=tuple(_parse_exponent(p) for p in _grid(grid, "p")),
            q_values=tuple(_parse_exponent(q) for q in _grid(grid, "q")),
            eps_start=_number(eps.get("start", 0.0), "eps_sequence.start"),
            eps_factor=_number(eps.get("factor", 0.0), "eps_sequence.factor"),
            eps_count=eps.get("count", 0),
            geometry=geometry,
            modulus=modulus,
            output=d.get("output"),
            seed=d.get("seed", _DEFAULT_SEED),
        )


def _eval_radii(geom: GeometrySpec) -> Tuple[float, ...]:
    if geom.kind == "ball":
        return (0.0, 0.5 * geom.domain_radius)
    return (1.2 * geom.domain_radius, 2.0 * geom.domain_radius)


def touching_config(geom: GeometrySpec, n: int) -> TouchingBallConfig:
    """The axis-aligned touching-ball configuration for a radial geometry."""
    domain = RADIAL_KINDS[geom.kind](geom.domain_radius)
    x = np.zeros(n)
    x[0] = domain.radius(geom.R)
    return touching_ball(domain, x, geom.R)


def run_varadhan_sweep(cfg: SweepConfig
                       ) -> Tuple[List[dict], Dict[Tuple[int, float], RateFit]]:
    """Distance-asymptotics residuals along the eps grid, with rate fits.

    Evaluates eps log u + sqrt(p') d_Gamma at fixed radii of the exact radial
    solution; fits the regime model (EPS for p = infinity, EPS_LOG otherwise)
    to the per-eps sup of |residual| and checks the ratio shows no growth
    trend (last <= 2x median).  Identically-zero residuals (exterior,
    p = infinity) produce a degenerate fit with coefficient 0.
    """
    if cfg.eps_count < 4:
        raise ValueError("rate fitting needs an eps sequence of count >= 4")
    eps_seq = cfg.eps_sequence
    geometry = RADIAL_KINDS[cfg.geometry.kind](cfg.geometry.domain_radius)
    r_eval = _eval_radii(cfg.geometry)
    rows: List[dict] = []
    fits: Dict[Tuple[int, float], RateFit] = {}
    for n in cfg.n_values:
        for p in cfg.p_values:
            model = RateModel.EPS if is_infinity(p) else RateModel.EPS_LOG
            if model is RateModel.EPS_LOG and max(eps_seq) >= 1.0:
                raise ValueError(
                    "the eps log(1/eps) model needs eps < 1 throughout")

            sup = []
            for eps in eps_seq:
                sol = RadialSolution(ProblemParams(n=n, p=p, eps=eps),
                                     geometry)
                res = np.asarray(varadhan_residual(sol, np.array(r_eval)))
                for r, val in zip(r_eval, res):
                    rows.append({"n": n, "p": p, "eps": eps, "r": r,
                                 "residual": float(val)})
                sup.append(float(res[int(np.argmax(np.abs(res)))]))
            fit = fit_rate(model, eps_seq, sup)
            if not fit.degenerate:
                ratios = np.abs(sup) / _model_values(model,
                                                     np.asarray(eps_seq))
                if ratios[-1] > 2.0 * float(np.median(ratios)):
                    raise RuntimeError(
                        f"residual/model ratio grows along the sweep for "
                        f"N={n}, p={p}: last {ratios[-1]:.3e} exceeds twice "
                        f"the median {float(np.median(ratios)):.3e}")
            fits[(n, p)] = fit
    return rows, fits


def run_psi_rate_table(modulus: ModulusOfContinuity,
                       eps_sequence: Sequence[float]
                       ) -> Tuple[List[dict], bool]:
    """(eps, psi, eps log psi, eps log|log psi|) rows plus a convergence flag.

    The flag records whether eps log psi(eps) tends to zero along the given
    sequence: the last magnitude must be the smallest and at most half the
    first.
    """
    eps_list = [float(e) for e in eps_sequence]
    if not eps_list:
        raise ValueError("empty eps sequence")
    rows = []
    vals = []
    for eps in eps_list:
        psi = psi_of_eps(modulus, eps)
        log_psi = math.log(psi)
        v = eps * log_psi
        vals.append(v)
        rows.append({"eps": eps, "psi": psi, "eps_log_psi": v,
                     "eps_loglog_psi": eps * math.log(abs(log_psi))})
    mags = [abs(v) for v in vals]
    converges = (mags[-1] <= 0.5 * mags[0]
                 and mags[-1] <= min(mags) * (1.0 + 1e-9))
    return rows, converges


def _add_richardson(rows: List[dict]) -> None:
    """Two-point extrapolation assuming a first-order correction in eps."""
    prev = None
    for row in rows:
        if prev is None:
            row["richardson"] = math.nan
        else:
            e0, s0 = prev["eps"], prev["scaled"]
            e1, s1 = row["eps"], row["scaled"]
            row["richardson"] = (s1 * e0 - s0 * e1) / (e0 - e1)
        prev = row


def run_qmean_sweep(cfg: SweepConfig) -> List[dict]:
    """Scaled q-means over the (N, p, q) grid with a Richardson column."""
    eps_seq = cfg.eps_sequence
    geom = cfg.geometry
    rows: List[dict] = []
    for n in cfg.n_values:
        ball_cfg = touching_config(geom, n)
        for p in cfg.p_values:
            seq = [ProblemParams(n=n, p=p, eps=eps) for eps in eps_seq]
            for q in cfg.q_values:
                group = [{"n": n, "p": p, "q": q, **r}
                         for r in qmean_limit_experiment(seq, ball_cfg, q)]
                _add_richardson(group)
                rows.extend(group)
    return rows


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        x = float(v)
        return "nan" if math.isnan(x) else f"{x:.12g}"
    return str(v)


def _json_safe(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        x = float(v)
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(v, dict):
        return {k: _json_safe(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(u) for u in v]
    return v


def emit(table: List[dict], path: Optional[str] = None,
         config: Optional[SweepConfig] = None) -> None:
    """Write a table to the file at path, as JSON with metadata when path
    ends in .json (any case) and as CSV (12 significant digits) otherwise,
    or as CSV to stdout when path is None.

    Values that are not finite become "nan"/"inf" cells in CSV and
    null/"inf" in JSON.  Output is byte-identical for identical inputs.
    """
    if not table:
        raise ValueError("empty table")
    keys = list(table[0].keys())
    for row in table:
        if list(row.keys()) != keys:
            raise ValueError("rows have inconsistent columns")
    if path is None or not path.lower().endswith(".json"):
        lines = [",".join(keys)]
        for row in table:
            lines.append(",".join(_format_cell(row[k]) for k in keys))
        content = "\n".join(lines) + "\n"
    else:
        meta = {
            "config": _json_safe(dataclasses.asdict(config))
            if config is not None else None,
            "seed": config.seed if config is not None else None,
            "versions": {
                "package": __version__,
                "numpy": np.__version__,
                "scipy": __import__("scipy").__version__,
            },
        }
        doc = {"metadata": meta,
               "rows": [_json_safe(dict(row)) for row in table]}
        content = json.dumps(doc, indent=2, sort_keys=True,
                             allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(content)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
    except OSError as e:
        raise OSError(f"failed writing table to {path}: {e}") from e
