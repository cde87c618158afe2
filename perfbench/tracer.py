"""Spans around the library's public functions, installed from outside.

Callers inside the package use ``from .x import f``, so a function has to be
replaced at every module attribute that holds it, not only where it is
defined.  The tracer scans the loaded package modules for each listed
function object and installs one wrapper at all of them.  A function that a
later version renames or removes is reported as missing, and the metrics
built on it come out as null instead of failing the run.

Each span records its id, name, parent, thread, wall-clock start and end and
an amount (points, samples or bytes, depending on the function).  Parents
are tracked per thread, so the spans of the sweep pool's workers are roots
of their own threads and the sweep's self time is the time the caller waits
on them.  Spans are kept in memory and summarised, or written out, at the
end of the pass.
"""

from __future__ import annotations

import array
import inspect
import itertools
import math
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

PACKAGE = "resolvent_asym"

_NO_RESULT = object()


def _size(v) -> int:
    return 1 if isinstance(v, (float, int)) else int(np.size(v))


def _rows(v) -> int:
    return int(np.atleast_2d(np.asarray(v)).shape[0])


def _param(fn: Callable, name: str) -> Callable:
    """Getter for one argument of fn from (args, kwargs), default included."""
    params = list(inspect.signature(fn).parameters.values())
    idx = [p.name for p in params].index(name)
    default = params[idx].default

    def get(args, kwargs):
        if len(args) > idx:
            return args[idx]
        return kwargs.get(name, default)

    return get


def _amount_of_arg(name: str, measure: Callable) -> Callable:
    def make(fn):
        get = _param(fn, name)
        return lambda args, kwargs, result: measure(get(args, kwargs))
    return make


def _file_bytes(fn):
    get = _param(fn, "path")

    def amount(args, kwargs, result):
        try:
            return os.path.getsize(get(args, kwargs))
        except (OSError, TypeError):
            return math.nan
    return amount


def _nonzero_exit(fn):
    # an exception escaping main() is a failed invocation too
    return lambda args, kwargs, result: float(result is _NO_RESULT
                                              or result != 0)


# (module, function, amount factory or None)
SPANS = (
    ("quadrature", "log_sin_kernel", None),
    ("quadrature", "log_sinh_kernel", None),
    ("special", "f_exact", None),
    ("special", "f_asymptotic", None),
    ("special", "bessel_k_identity_residual", None),
    ("special", "mollifier_expectation", None),
    ("special", "mollifier_tail_mass", None),
    ("radial", "eval_log_u", _amount_of_arg("r", _size)),
    ("radial", "varadhan_residual", None),
    ("barriers", "enhanced_U", None),
    ("barriers", "enhanced_V", None),
    ("barriers", "sandwich_check", None),
    ("geometry", "level_set_area", _amount_of_arg("s", _size)),
    ("geometry", "level_set_area_mc", _amount_of_arg("n_samples", int)),
    ("geometry", "boundary_distances", _amount_of_arg("points", _rows)),
    ("geometry", "touching_ball", None),
    ("geometry", "psi_of_eps", None),
    ("qmeans", "q_mean", None),
    ("qmeans", "kernel_table", None),
    ("qmeans", "q_mean_bruteforce", _amount_of_arg("n_samples", int)),
    ("qmeans", "qmean_limit_experiment", None),
    ("experiments", "run_qmean_sweep", None),
    ("experiments", "run_varadhan_sweep", None),
    ("experiments", "emit", _file_bytes),
    ("cli", "main", _nonzero_exit),
)

KERNELS = ("quadrature.log_sin_kernel", "quadrature.log_sinh_kernel")
SPECIAL = tuple(f"special.{f}" for m, f, _ in SPANS if m == "special")

# metric -> (statistic, span names); statistics are computed in summarise()
METRICS = {
    "quadrature.kernel.calls": ("calls", KERNELS),
    "quadrature.kernel.busy_s": ("busy", KERNELS),
    "quadrature.kernel.hit_ratio": ("hit_ratio", KERNELS),
    "special.calls": ("calls", SPECIAL),
    "special.busy_s": ("busy", SPECIAL),
    "radial.eval_log_u.calls": ("calls", ("radial.eval_log_u",)),
    "radial.eval_log_u.points": ("amount", ("radial.eval_log_u",)),
    "radial.eval_log_u.busy_s": ("busy", ("radial.eval_log_u",)),
    "radial.varadhan_residual.busy_s": ("busy", ("radial.varadhan_residual",)),
    "barriers.enhanced_U.busy_s": ("busy", ("barriers.enhanced_U",)),
    "barriers.enhanced_V.busy_s": ("busy", ("barriers.enhanced_V",)),
    "barriers.sandwich_check.busy_s": ("busy", ("barriers.sandwich_check",)),
    "geometry.level_set_area.calls": ("calls", ("geometry.level_set_area",)),
    "geometry.level_set_area.points": ("amount",
                                       ("geometry.level_set_area",)),
    "geometry.level_set_area.busy_s": ("busy", ("geometry.level_set_area",)),
    "geometry.level_set_area_mc.samples": ("amount",
                                           ("geometry.level_set_area_mc",)),
    "geometry.level_set_area_mc.busy_s": ("busy",
                                          ("geometry.level_set_area_mc",)),
    "geometry.boundary_distances.points": ("amount",
                                           ("geometry.boundary_distances",)),
    "geometry.boundary_distances.busy_s": ("busy",
                                           ("geometry.boundary_distances",)),
    "geometry.touching_ball.busy_s": ("busy", ("geometry.touching_ball",)),
    "geometry.psi_of_eps.busy_s": ("busy", ("geometry.psi_of_eps",)),
    "qmeans.q_mean.calls": ("calls", ("qmeans.q_mean",)),
    "qmeans.q_mean.busy_s": ("busy", ("qmeans.q_mean",)),
    "qmeans.q_mean.self_s": ("self", ("qmeans.q_mean",)),
    "qmeans.kernel_table.calls": ("calls", ("qmeans.kernel_table",)),
    "qmeans.kernel_table.busy_s": ("busy", ("qmeans.kernel_table",)),
    "qmeans.q_mean_bruteforce.samples": ("amount",
                                         ("qmeans.q_mean_bruteforce",)),
    "qmeans.q_mean_bruteforce.busy_s": ("busy",
                                        ("qmeans.q_mean_bruteforce",)),
    "qmeans.qmean_limit_experiment.busy_s": (
        "busy", ("qmeans.qmean_limit_experiment",)),
    "experiments.run_qmean_sweep.busy_s": (
        "busy", ("experiments.run_qmean_sweep",)),
    "experiments.run_qmean_sweep.self_s": (
        "self", ("experiments.run_qmean_sweep",)),
    "experiments.run_varadhan_sweep.busy_s": (
        "busy", ("experiments.run_varadhan_sweep",)),
    "experiments.emit.calls": ("calls", ("experiments.emit",)),
    "experiments.emit.bytes": ("amount", ("experiments.emit",)),
    "cli.main.calls": ("calls", ("cli.main",)),
    "cli.main.busy_s": ("busy", ("cli.main",)),
    "cli.main.nonzero_exits": ("amount", ("cli.main",)),
}

# one span = (id, name index, parent id, thread index, start, end, amount)
_FIELDS = 7


class Tracer:
    """Installs span wrappers into the loaded package; one per pass."""

    def __init__(self) -> None:
        self._buf = array.array("d")
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: Dict[int, int] = {}
        self._names: List[str] = []
        self._originals: Dict[str, Callable] = {}
        self._patched: List[tuple] = []
        self.missing: List[str] = []
        self._cache_before: Dict[str, tuple] = {}

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for mod_name, fn_name, amount in SPANS:
            span = f"{mod_name}.{fn_name}"
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(span)
                continue
            try:
                amount_fn = amount(fn) if amount is not None else None
            except (ValueError, TypeError):
                # the argument the amount reads is gone; keep timing the call
                amount_fn = None
            self._originals[span] = fn
            wrapper = self._wrap(fn, len(self._names), amount_fn)
            self._names.append(span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))
        for span in KERNELS:
            info = self._cache_info(span)
            if info is not None:
                self._cache_before[span] = info

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _cache_info(self, span: str) -> Optional[tuple]:
        fn = self._originals.get(span)
        info = getattr(fn, "cache_info", None)
        if not callable(info):
            return None
        ci = info()
        return (ci.hits, ci.misses)

    def _wrap(self, fn: Callable, name_id: int,
              amount: Optional[Callable]) -> Callable:
        buf = self._buf
        ids = self._ids
        local = self._local
        threads = self._threads
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.thread = threads.setdefault(threading.get_ident(),
                                                  len(threads))
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = _NO_RESULT
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                amt = (amount(args, kwargs, result) if amount is not None
                       else math.nan)
                # one C call, so records of concurrent threads never interleave
                buf.extend((sid, name_id, parent, local.thread, start, end,
                            amt))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def spans(self) -> np.ndarray:
        return np.frombuffer(self._buf, dtype=float).reshape(-1, _FIELDS)

    def save(self, path: str) -> None:
        np.savez(path, spans=self.spans(), names=np.array(self._names),
                 fields=np.array(["id", "name", "parent", "thread", "start",
                                  "end", "amount"]))

    def summarise(self) -> Dict[str, Optional[float]]:
        """Per-layer metrics; null where a function is missing."""
        s = self.spans()
        stats = _span_stats(s, len(self._names))
        index = {name: i for i, name in enumerate(self._names)}
        hit_ratio = self._hit_ratio()
        out: Dict[str, Optional[float]] = {}
        for metric, (stat, names) in METRICS.items():
            ids = [index[n] for n in names if n in index]
            if len(ids) < len(names):
                out[metric] = None
            elif stat == "hit_ratio":
                out[metric] = hit_ratio
            elif stat == "busy":
                out[metric] = _busy(s, ids)
            else:
                vals = [stats[stat][i] for i in ids]
                out[metric] = (None if any(math.isnan(v) for v in vals)
                               else float(sum(vals)))
        return out

    def _hit_ratio(self) -> Optional[float]:
        hits = misses = 0
        for span in KERNELS:
            before = self._cache_before.get(span)
            after = self._cache_info(span)
            if before is None or after is None:
                return None
            hits += after[0] - before[0]
            misses += after[1] - before[1]
        if hits + misses == 0:
            return None
        return hits / (hits + misses)


def _span_stats(s: np.ndarray, n_names: int) -> Dict[str, List[float]]:
    """Calls, summed amounts and self time per span name."""
    name = s[:, 1].astype(int)
    dur = s[:, 5] - s[:, 4]
    calls = np.bincount(name, minlength=n_names).astype(float)
    amt = s[:, 6]
    amount = [float(np.sum(amt[name == i])) if np.any(name == i) else 0.0
              for i in range(n_names)]
    # children of one parent run one after another on the parent's thread,
    # so the time they cover is the sum of their durations
    order = np.argsort(s[:, 0])
    sid_sorted = s[order, 0]
    child_time = np.zeros(len(s))
    has_parent = s[:, 2] >= 0
    if np.any(has_parent):
        pos = order[np.searchsorted(sid_sorted, s[has_parent, 2])]
        np.add.at(child_time, pos, dur[has_parent])
    self_time = dur - child_time
    self_sum = np.bincount(name, weights=self_time, minlength=n_names)
    return {"calls": list(calls), "amount": amount, "self": list(self_sum)}


def _busy(s: np.ndarray, ids: List[int]) -> float:
    """Wall time inside any of the named functions, per thread, summed.

    Nested calls within the group (f_exact inside the Bessel-K residual, say)
    are counted once: the busy time of a thread is the union of its
    intervals.
    """
    sel = s[np.isin(s[:, 1].astype(int), ids)]
    total = 0.0
    for thread in np.unique(sel[:, 3]):
        t = sel[sel[:, 3] == thread]
        t = t[np.argsort(t[:, 4])]
        start, end = t[:, 4], t[:, 5]
        reach = np.maximum.accumulate(end)
        prev = np.concatenate(([-np.inf], reach[:-1]))
        total += float(np.sum(np.maximum(0.0, end - np.maximum(start, prev))))
    return total
