"""Domain oracles: distances, curvatures, touching balls and level-set areas.

Each domain class answers its own geometry through four methods: nearest(x)
(the boundary distance and nearest point), distances(points) (signed
distances of a batch), curvatures(y) and level_sets(cfg) (the largest
boundary distance s_max in a touching ball and the level-set area
function); the first three check their input with one helper, _points.
The classes are the radial Geometry of radius R about the origin, a
BallDomain or an ExteriorBallDomain (the closed ball's complement) that
maps radius and boundary distance both ways; implicit domains {phi < 0}
with analytic gradient and Hessian in dimensions 2 and 3; and the ellipse
EllipseDomain(a, b), an implicit domain built from its semi-axes.
Curvatures follow the inward-normal convention (ball: +1/R, complement: -1/R).

Level-set areas are closed forms: sphere caps on the balls, and on the
ellipse the tube formula, arc lengths by elliptic integrals between arc
ends found by safeguarded Newton.  Other implicit domains have the seeded
Monte Carlo oracles only.

Points go in blocks of _BLOCK = 2^13: the Newton projection works on one
block at a time, and the Monte Carlo oracles draw their samples block by
block (_ball_blocks), bit for bit the one-shot draw, so their memory is
about 2 floats per sample.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import (TYPE_CHECKING, Callable, ClassVar, Iterator, List,
                    Optional, Sequence, Tuple, Union)

import numpy as np
from scipy.special import betainc, ellipeinc, gamma

from .params import _require_count, pi_gamma as _pi_gamma_product

if TYPE_CHECKING:
    from .experiments import ModulusSpec

_PROJECT_TOL = 1e-12
_PROJECT_MAX_ITER = 80
_CURVATURE_FLOOR = 1e-3
_TOUCH_TOL = 1e-9
# points per block, for sampling and projection: a block's Newton
# temporaries (about 2.3 MiB) stay cache-sized
_BLOCK = 1 << 13
_DEFAULT_SEED = 20260815
_UNIQUENESS_DIRECTIONS = 10_000
_N_STRATA = 64  # radius strata of level_set_area_mc
_PSI_GRID = 128  # points of each array psi_of_eps narrows
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_UNIT = np.linspace(0.0, 1.0, _PSI_GRID)
# Newton on the ends of a level-set arc stops once a step is below this
# fraction of the end's offset from the contact
_ARC_STEP_TOL = 1e-9
_ARC_MAX_ITER = 100


def _gamma(x: float, n: int) -> float:
    """Gamma(x) in dimension N = n, refused past x = 171.6, where it is inf."""
    g = gamma(x)
    if math.isinf(g):
        raise ValueError(f"N = {n} is too large: Gamma({x}) overflows a float")
    return g


def _require_square(name: str, v: float) -> None:
    """Raise naming v unless it is positive with a normal float square."""
    if not (v > 0.0 and _TINY <= v * v < math.inf):
        raise ValueError(f"{name} must be positive with a square in the "
                         f"normal float range, got {v}")


def unit_sphere_area(n: int) -> float:
    """Surface measure of S^{n-1} in R^n, 2 pi^{n/2}/Gamma(n/2), n <= 343."""
    _require_count("ambient dimension", n)
    return 2.0 * math.pi ** (0.5 * n) / _gamma(0.5 * n, n)


def ball_volume(n: int, radius: float) -> float:
    """Volume of the n-ball: pi^{n/2} R^n / Gamma(n/2 + 1), n <= 341."""
    _require_count("ambient dimension", n)
    if not radius >= 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return math.pi ** (0.5 * n) * radius ** n / _gamma(0.5 * n + 1.0, n)


class GeometryKind(Enum):
    BALL = "BALL"
    EXTERIOR = "EXTERIOR"


@dataclass(frozen=True)
class Geometry:
    """A radial domain of radius R about the origin, one of two subclasses:
    distance(r) is d_Gamma at radius r, positive inside, and radius(d) its
    inverse, 0 for d past a ball's center."""
    kind: ClassVar[GeometryKind]
    R: float

    def __post_init__(self) -> None:
        if type(self) is Geometry:
            raise TypeError("a Geometry is a BallDomain or ExteriorBallDomain")
        r = float(self.R)
        if not (r > 0.0 and math.isfinite(r)):
            raise ValueError(f"R must be positive and finite, got {self.R}")
        object.__setattr__(self, "R", r)

    @staticmethod
    def ball(R: float) -> "BallDomain":
        return BallDomain(R)

    @staticmethod
    def exterior(R: float) -> "ExteriorBallDomain":
        return ExteriorBallDomain(R)

    def nearest(self, x: Sequence[float]) -> Tuple[float, np.ndarray]:
        """(d_Gamma(x), nearest boundary point) for x in the closed domain.
        At the center every boundary point is nearest, and a fixed
        representative (R, 0, ...) keeps the map deterministic."""
        x = _points(x)
        r = float(np.linalg.norm(x))
        if self.distance(r) < -1e-12 * self.R:
            raise ValueError(f"point at radius {r} outside the closed {self}")
        y = x * (self.R / r) if r >= 1e-300 else self.R * np.eye(x.size)[0]
        return self.distance(r), y

    def distances(self, points: np.ndarray) -> np.ndarray:
        """Signed boundary distances of the rows of an (m, N) array."""
        return self.distance(_row_norms(_points(points, batch=True)))

    def curvatures(self, y: Sequence[float]) -> np.ndarray:
        """The N-1 principal curvatures at boundary point y: 1 over the
        signed distance of the center."""
        return np.full(_points(y).size - 1, 1.0 / self.distance(0.0))

    def level_sets(self, cfg: TouchingBallConfig) -> Tuple[float, Callable]:
        """(s_max, area) at the touching ball (_zero_outside): the areas are
        sphere caps about the center."""
        R, c = cfg.R, float(np.linalg.norm(np.asarray(cfg.x, dtype=float)))
        return self.s_max(R), partial(
            _zero_outside, R,
            lambda s: _sphere_cap_area(cfg.n, s, self.radius(s), c, R))


@dataclass(frozen=True)
class BallDomain(Geometry):
    """Open ball of radius R centered at the origin."""
    kind = GeometryKind.BALL

    def distance(self, r):
        return self.R - r

    def radius(self, d):
        return np.maximum(self.R - d, 0.0)

    def s_max(self, R: float) -> float:
        """Largest boundary distance in a touching ball of radius R."""
        return min(2.0 * R, self.R)


@dataclass(frozen=True)
class ExteriorBallDomain(Geometry):
    """Complement of the closed ball of radius R centered at the origin."""
    kind = GeometryKind.EXTERIOR

    def distance(self, r):
        return r - self.R

    def radius(self, d):
        return self.R + d

    def s_max(self, R: float) -> float:
        """Largest boundary distance in a touching ball of radius R."""
        return 2.0 * R


@dataclass(frozen=True, eq=False)
class ImplicitDomain:
    """Domain {phi < 0} with analytic derivatives, dimensions 2 or 3.

    phi, grad and hess must be vectorized over a trailing point axis:
    phi (..., N) -> (...), grad -> (..., N), hess -> (..., N, N).
    """
    phi: Callable
    grad: Callable
    hess: Callable
    dim: int

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"implicit domains support N in {{2, 3}}, got {self.dim}")

    def nearest(self, x: Sequence[float]) -> Tuple[float, np.ndarray]:
        """(d_Gamma(x), nearest boundary point) for x in the closed domain,
        by _project_implicit."""
        x = _points(x, dim=self.dim)
        phi = float(self.phi(x[None, :])[0])
        gn = float(np.linalg.norm(self.grad(x[None, :])[0]))
        if phi > 1e-12 * max(1.0, gn):
            raise ValueError(
                f"point {x} lies outside the closed domain (phi={phi})")
        y = _project_implicit(self, x[None, :])[0]
        return float(np.linalg.norm(y - x)), y

    def distances(self, points: np.ndarray) -> np.ndarray:
        """Signed boundary distances of the rows of an (m, N) array, by
        _project_implicit."""
        points = _points(points, batch=True, dim=self.dim)
        y = _project_implicit(self, points)
        y -= points
        sign = np.where(np.asarray(self.phi(points)) <= 0.0, 1.0, -1.0)
        return sign * _row_norms(y)

    def curvatures(self, y: Sequence[float]) -> np.ndarray:
        """The N-1 principal curvatures at boundary point y: eigenvalues of
        the Hessian restricted to the tangent plane, divided by |grad phi|
        (phi < 0 inside makes the signs come out in the inward convention
        without extra flips)."""
        y = _points(y, dim=self.dim)
        g = np.asarray(self.grad(y[None, :])[0], dtype=float)
        h = np.asarray(self.hess(y[None, :])[0], dtype=float)
        gn = np.linalg.norm(g)
        if gn == 0.0:
            raise ValueError("gradient vanishes at the boundary point")
        q, _ = np.linalg.qr(np.column_stack([g / gn, np.eye(self.dim)]))
        tangent = q[:, 1:]
        shape_op = tangent.T @ h @ tangent / gn
        return np.linalg.eigvalsh(shape_op)

    def level_sets(self, cfg: TouchingBallConfig) -> Tuple[float, Callable]:
        """No closed form: raises ValueError naming the Monte Carlo
        oracles."""
        raise ValueError(
            "closed-form level-set areas exist on balls, ball complements "
            "and ellipses only; on other implicit domains use "
            "q_mean_bruteforce for q-means and level_set_area_mc for areas")


@dataclass(frozen=True, eq=False, init=False)
class EllipseDomain(ImplicitDomain):
    """The ellipse x^2/a^2 + y^2/b^2 < 1 from its semi-axes: projection,
    curvatures and the Monte Carlo oracles use its phi, grad and hess as on
    any implicit domain, and level_set_area its a and b (the tube formula)."""
    a: float
    b: float

    def __init__(self, a: float, b: float) -> None:
        a, b = float(a), float(b)
        for name, v in (("a", a), ("b", b)):
            _require_square(f"semi-axis {name}", v)
        inv_a2, inv_b2 = 1.0 / (a * a), 1.0 / (b * b)

        def phi(p):
            p = np.asarray(p, dtype=float)
            return p[..., 0] ** 2 * inv_a2 + p[..., 1] ** 2 * inv_b2 - 1.0

        def grad(p):
            p = np.asarray(p, dtype=float)
            out = np.empty_like(p)
            out[..., 0] = 2.0 * p[..., 0] * inv_a2
            out[..., 1] = 2.0 * p[..., 1] * inv_b2
            return out

        def hess(p):
            out = np.zeros(np.shape(p)[:-1] + (2, 2))
            out[..., 0, 0] = 2.0 * inv_a2
            out[..., 1, 1] = 2.0 * inv_b2
            return out

        super().__init__(phi, grad, hess, 2)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def level_sets(self, cfg: TouchingBallConfig) -> Tuple[float, Callable]:
        """(s_max, area) at the touching ball (_zero_outside), both from
        one _EllipseTube: the tube formula."""
        tube = _EllipseTube.at(cfg)
        return tube.s_max(), partial(_zero_outside, cfg.R,
                                     partial(_ellipse_level_area, tube))


def _points(x, batch: bool = False, dim: Optional[int] = None) -> np.ndarray:
    """x as a float point (N,), or with batch as (m, N) rows (a point is one
    row).  Raises ValueError naming x unless N >= 1 (N = dim when given) and
    a single point is finite; a batch gets no pass over its entries."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 and not np.all(np.isfinite(x)):
        raise ValueError(f"point {x} is not finite")
    n = x.shape[-1] if 1 <= x.ndim <= 1 + batch else -1
    if n <= 0 or (dim and n != dim):
        raise ValueError(f"point of shape {x.shape} for N = {dim}" if dim
                         else f"point of shape {x.shape} for N >= 1"
                         + ": dimension 0 has no boundary" * (n == 0))
    return np.atleast_2d(x) if batch else x


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (m, N) array: the squared columns
    summed in coordinate order: bit-identical to np.linalg.norm(a, axis=1)
    for N < 8 (numpy sums fewer than 8 terms in order), without a reduction
    over the short coordinate axis."""
    total = a[:, 0] * a[:, 0]
    for i in range(1, a.shape[1]):
        total += a[:, i] * a[:, i]
    return np.sqrt(total)


def _max_abs(cols) -> np.ndarray:
    """Elementwise max of |c| over a list of (k,) arrays; NaN propagates."""
    out = np.abs(cols[0])
    for c in cols[1:]:
        np.maximum(out, np.abs(c), out=out)
    return out


def _unit_directions(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m directions uniform on S^{n-1}: standard normals over their norms,
    divided column by column (a broadcast (m, 1) divisor is slower)."""
    dirs = rng.standard_normal((m, n))
    norms = _row_norms(dirs)
    for i in range(n):
        dirs[:, i] /= norms
    return dirs


def _ball_blocks(rng: np.random.Generator, x: np.ndarray, R: float, m: int,
                 j: int = 0, strata: int = 1) -> Iterator[np.ndarray]:
    """The m points R ((j + U)/S)^{1/N} d + x of radius stratum j of S
    (j = 0, S = 1: uniform in B_R(x)), in blocks of _BLOCK rows.

    Bit for bit the one-shot draw, whose uniforms U are rng.random(m) and
    whose directions d (_unit_directions) follow them: Generator.random
    takes one 64-bit output of a PCG64 generator per double, so the
    uniforms come from a copy of rng and the directions from rng advanced
    by m, which ends in the one-shot state.  Each block is scaled and
    shifted column by column, in place.
    """
    n = x.size
    uniform = copy.deepcopy(rng)
    rng.bit_generator.advance(m)
    for lo in range(0, m, _BLOCK):
        k = min(_BLOCK, m - lo)
        radii = uniform.random(k)
        radii += j
        radii /= strata
        radii **= 1.0 / n
        radii *= R
        pts = _unit_directions(rng, k, n)
        for i in range(n):
            col = pts[:, i]
            col *= radii
            col += x[i]
        yield pts


def _dot(u, v):
    """Pointwise inner product of vectors given as lists of (k,) arrays."""
    return sum(ui * vi for ui, vi in zip(u, v))


def _hform(h, v, w):
    """Pointwise bilinear form v^T h w for h of shape (k, N, N)."""
    return sum(h[:, i, j] * vi * wj
               for i, vi in enumerate(v) for j, wj in enumerate(w))


def _tangent_frame(nrm):
    """Orthonormal tangent vectors to the unit normals nrm (a list of (k,)
    arrays), N = 2 or 3; at N = 3 the branch-free basis of Duff et al.,
    JCGT 6(1), 2017."""
    if len(nrm) == 2:
        return [(-nrm[1], nrm[0])]
    nx, ny, nz = nrm
    sign = np.copysign(1.0, nz)
    a = -1.0 / (sign + nz)
    b = nx * ny * a
    return [(1.0 + sign * nx * nx * a, sign * b, -sign * nx),
            (b, sign + ny * ny * a, -ny)]


def _top_eigenvectors(h: np.ndarray) -> np.ndarray:
    """Unit eigenvectors (f, N) of the largest eigenvalue of each symmetric
    h (f, N, N), the component of largest magnitude made positive; raises
    RuntimeError unless that eigenvalue is positive."""
    w, v = np.linalg.eigh(h)
    if not np.all(w[:, -1] > 0.0):
        raise RuntimeError(
            "grad phi vanishes and the Hessian of phi has no positive "
            "eigenvalue at a point to project: no direction to the boundary")
    top = v[:, :, -1]
    lead = top[np.arange(len(top)), np.argmax(np.abs(top), axis=1)]
    return top * np.sign(lead)[:, None]


def _ray_start(domain: ImplicitDomain,
               x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start (y, lam) of the projection: y is the root of the second-order
    model of phi along the gradient ray from x (the exact ray root on
    quadric domains), lam = |y - x| / |model gradient at y|.  Where
    grad phi = 0 the ray follows the eigenvector of the largest Hessian
    eigenvalue (_top_eigenvectors), along which the model has its nearest
    root; a fixed axis could end on a far critical point."""
    n = x.shape[1]
    g = np.asarray(domain.grad(x), dtype=float)
    h = np.asarray(domain.hess(x), dtype=float)
    phi = np.asarray(domain.phi(x), dtype=float)
    gn = np.sqrt(np.einsum("ij,ij->i", g, g))
    with np.errstate(invalid="ignore"):
        u = [g[:, i] / gn for i in range(n)]
    flat = np.flatnonzero(gn == 0.0)
    if flat.size:
        top = _top_eigenvectors(h[flat])
        for i in range(n):
            u[i][flat] = top[:, i]
    hu = [sum(h[:, i, j] * u[j] for j in range(n)) for i in range(n)]
    t = -2.0 * phi / (gn + np.sqrt(np.maximum(
        gn * gn - 2.0 * phi * _dot(u, hu), 0.0)))
    y = np.stack([x[:, i] + t * u[i] for i in range(n)], axis=1)
    lam = t / np.sqrt(sum((g[:, i] + t * hu[i]) ** 2 for i in range(n)))
    return y, lam


def _newton_step(domain: ImplicitDomain, x: np.ndarray, y: np.ndarray,
                 lam: np.ndarray
                 ) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray]:
    """One safeguarded Newton step (dy, dlam, low) for y - x = lam
    grad(phi)(y), phi(y) = 0, on per-component (k,) arrays; dy is the list
    of its N components.

    dy = a nrm + T b: the normal row gives a = -phi/|g|; the tangent rows
    give T^T (I - lam H) T b = T^T r + a lam T^T H nrm, with r the residual
    x - y + lam g; the remaining row gives dlam.  The smallest eigenvalue of
    T^T (I - lam H) T, low, is raised to _CURVATURE_FLOOR (modified
    Newton), so each step heads for a local minimum of the distance; a zero
    step still means a zero residual.
    """
    n = x.shape[1]
    g = np.asarray(domain.grad(y), dtype=float)
    h = np.asarray(domain.hess(y), dtype=float)
    phi = np.asarray(domain.phi(y), dtype=float)
    gn = np.sqrt(np.einsum("ij,ij->i", g, g))
    nrm = [g[:, i] / gn for i in range(n)]
    res = [x[:, i] - y[:, i] + lam * g[:, i] for i in range(n)]
    a = -phi / gn
    frame = _tangent_frame(nrm)
    c = [_dot(tp, res) + a * lam * _hform(h, tp, nrm) for tp in frame]
    if n == 2:
        low = 1.0 - lam * _hform(h, frame[0], frame[0])
        b = [c[0] / np.maximum(low, _CURVATURE_FLOOR)]
    else:
        m11 = 1.0 - lam * _hform(h, frame[0], frame[0])
        m22 = 1.0 - lam * _hform(h, frame[1], frame[1])
        m12 = -lam * _hform(h, frame[0], frame[1])
        low = 0.5 * (m11 + m22) - np.hypot(0.5 * (m11 - m22), m12)
        shift = np.maximum(_CURVATURE_FLOOR - low, 0.0)
        m11 += shift
        m22 += shift
        det = m11 * m22 - m12 * m12
        b = [(c[0] * m22 - c[1] * m12) / det,
             (m11 * c[1] - m12 * c[0]) / det]
    dy = [a * nrm[i] + _dot(b, [tp[i] for tp in frame]) for i in range(n)]
    dlam = (a - lam * _hform(h, nrm, dy) - _dot(nrm, res)) / gn
    return dy, dlam, low


def _project_implicit(domain: ImplicitDomain, points: np.ndarray) -> np.ndarray:
    """Nearest boundary points for a batch (m, N) of interior points.

    Newton iteration on the first-order system y - x = lam grad(phi)(y),
    phi(y) = 0, started from the root of phi along the gradient ray from x
    (_ray_start): a single linearization step overshoots where |grad phi|
    is small and can end on a far critical point.  The steps are solved in
    closed form with the tangential curvature floored (_newton_step).
    Stops when a step moves y and lam by at most _PROJECT_TOL (1 + |y|); a
    stop at low < -_CURVATURE_FLOOR (_newton_step) is a local maximum of the
    distance, where Newton from a symmetry axis stays, and raises
    RuntimeError.  The points go in blocks of _BLOCK (_project_block), the
    size the Monte Carlo oracles draw in; each point's iterates do not
    depend on the others, so blocking changes no bit.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    m = x.shape[0]
    y = np.empty_like(x)
    failed, far = sum(
        (_project_block(domain, x[lo:lo + _BLOCK], y[lo:lo + _BLOCK])
         for lo in range(0, m, _BLOCK)), np.zeros(2, dtype=int))
    if failed:
        raise RuntimeError(
            f"nearest-point projection did not converge for "
            f"{failed} of {m} points")
    if far:
        raise RuntimeError(
            f"nearest-point projection stopped on a local maximum of the "
            f"distance for {far} of {m} points")
    return y


def _project_block(domain: ImplicitDomain, x: np.ndarray,
                   out: np.ndarray) -> Tuple[int, int]:
    """Newton sweeps of _project_implicit for the rows of x: writes each
    converged point into its row of out and returns the numbers of points
    that did not converge and that stopped at low < -_CURVATURE_FLOOR.  The
    iterates of the active points are updated in place; converged points
    are written out and the active set is compacted with take."""
    n = x.shape[1]
    y, lam = _ray_start(domain, x)
    idx = np.arange(x.shape[0])
    far = 0
    for _ in range(_PROJECT_MAX_ITER):
        if idx.size == 0:
            break
        dy, dlam, low = _newton_step(domain, x, y, lam)
        moved = _max_abs(dy + [dlam])
        scale = 1.0 + _max_abs([y[:, i] for i in range(n)])
        for i in range(n):
            y[:, i] += dy[i]
        lam += dlam
        # written so that a NaN iterate stays active and is reported
        done = moved <= _PROJECT_TOL * scale
        keep = np.flatnonzero(~done)
        if keep.size == idx.size:
            continue
        fin = np.flatnonzero(done)
        out[idx.take(fin)] = y.take(fin, axis=0)
        far += np.count_nonzero(low.take(fin) < -_CURVATURE_FLOOR)
        idx, x, y, lam = (idx.take(keep), x.take(keep, axis=0),
                          y.take(keep, axis=0), lam.take(keep))
    return idx.size, far


def boundary_distances(domain: Geometry | ImplicitDomain,
                       points: np.ndarray) -> np.ndarray:
    """Signed boundary distances of a batch (negative outside)."""
    return domain.distances(points)


@dataclass(frozen=True, eq=False)
class TouchingBallConfig:
    """A ball B_R(x) inside the domain touching the boundary at exactly y_x."""

    x: np.ndarray
    R: float
    y_x: np.ndarray
    curvatures: np.ndarray
    domain: Geometry | ImplicitDomain

    @property
    def n(self) -> int:
        return int(np.asarray(self.x).size)

    @property
    def pi_gamma(self) -> float:
        return _pi_gamma_product(np.asarray(self.curvatures), self.R)


def touching_ball(domain: Geometry | ImplicitDomain, x: Sequence[float],
                  R: float, seed: int = _DEFAULT_SEED) -> TouchingBallConfig:
    """Validate and assemble a touching-ball configuration at x.

    Checks: R, and |x| unless x = 0, have normal float squares (the areas
    square them); d_Gamma(x) = R to within 1e-9 R plus 4 ulp of |x|, the
    precision of x itself; the closed ball stays inside the closed domain,
    to the same tolerance; the touching point is unique (probed along 10^4
    random directions: everything more than 0.3 rad away from the contact
    direction keeps boundary distance >= 1e-4 R); all curvatures < 1/R.
    """
    x = _points(x)
    R, c = float(R), math.hypot(*x)
    _require_square("R", R)
    if c:
        _require_square("the centre's norm |x|", c)
    d, y = domain.nearest(x)
    tol = _TOUCH_TOL * R + 4.0 * _EPS * c
    if abs(d - R) > tol:
        raise ValueError(f"x is at boundary distance {d}, not R = {R}")
    kappas = domain.curvatures(y)
    _pi_gamma_product(kappas, R)  # raises when any kappa >= 1/R
    dirs = _unit_directions(np.random.default_rng(seed),
                            _UNIQUENESS_DIRECTIONS, x.size)
    probes = x[None, :] + R * dirs
    dists = boundary_distances(domain, probes)
    if np.min(dists) < -tol:
        raise ValueError("the closed ball B_R(x) leaves the domain")
    axis = (y - x) / R
    angles = np.arccos(np.clip(dirs @ axis, -1.0, 1.0))
    far = angles > 0.3
    if np.any(far) and np.min(dists[far]) < 1e-4 * R:
        raise ValueError(
            "touching point is not unique: a second near-contact exists "
            f"(min off-axis distance {np.min(dists[far]):.3e})")
    return TouchingBallConfig(x=x, R=R, y_x=y, curvatures=kappas,
                              domain=domain)


def _sphere_cap_area(n: int, s: np.ndarray, r1: np.ndarray, c: float,
                     R: float) -> np.ndarray:
    """Areas of the level spheres {|p| = r1} at boundary distances s, cut to
    the touching ball B_R(x), |x| = c (ambient dimension n), elementwise.
    By the law of cosines at exact contact the cap's polar angle phi has
    sin^2(phi/2) = h = s (2R - s) / (4 r1 c) on the ball and on its
    complement alike, with no cancellation as s -> 0; c = 0 gives h = inf,
    the full sphere, and r1 = 0 area 0.  The cap's fraction of the sphere
    is a regularized incomplete beta in sin^2(phi) = 4h(1 - h) below
    h = 1/4, and in cos^2(phi) = (1 - 2h)^2 from there on, exact at the
    hemisphere.  An area that overflows raises ValueError naming N."""
    a = 0.5 * (n - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = s / (4.0 * c) * ((2.0 * R - s) / r1)
        cosine = 1.0 - 2.0 * h
        frac = np.where(
            h < 0.25, 0.5 * betainc(a, 0.5, 4.0 * h * (1.0 - h)),
            0.5 - 0.5 * np.sign(cosine)
            * betainc(0.5, a, np.minimum(cosine * cosine, 1.0)))
        out = unit_sphere_area(n) * frac * r1 ** (n - 1)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"N = {n}: a level-set area overflows a float")
    return out


@dataclass(frozen=True)
class _EllipseTube:
    """The tube formula at a touching ball B_R(x) on an ellipse, in the frame
    with the major axis first (a reflection, which keeps every length): the
    boundary is y(t) = (a cos t, b sin t), a >= b, with speed
    w(t) = |y'(t)|, inward unit normal nu(t) and curvature ab/w^3.  The
    ball touches it at y(t0), and parameters are offsets u = t - t0.

    The ball's center is taken as y(t0) + R nu(t0), the center that
    touching_ball checks to 1e-9 R, so that the interior test at offset 0
    reads s (s - 2R), with no cancellation as s -> 0 or s -> 2R.
    """
    a: float
    b: float
    R: float
    t0: float
    w0: float
    center: Tuple[float, float]
    crit: np.ndarray  # offsets of the other normals through the center

    @classmethod
    def at(cls, cfg: TouchingBallConfig) -> "_EllipseTube":
        a, b, y = cfg.domain.a, cfg.domain.b, np.asarray(cfg.y_x, dtype=float)
        if a < b:
            a, b, y = b, a, y[::-1]
        R, t0 = float(cfg.R), math.atan2(y[1] / b, y[0] / a)
        w0 = math.hypot(a * math.sin(t0), b * math.cos(t0))
        cx = math.cos(t0) * (a - R * b / w0)
        cy = math.sin(t0) * (b - R * a / w0)
        # (y(t) - center) . y'(t) = 0 is a quartic in z = e^{it}; near-unit
        # roots are kept (a spurious one only splits a monotone piece), and
        # the one nearest t0 is t0 itself
        z = np.roots([b * b - a * a, 2.0 * (a * cx - 1j * b * cy), 0.0,
                      -2.0 * (a * cx + 1j * b * cy), a * a - b * b])
        u = _wrap(np.angle(z[np.abs(np.abs(z) - 1.0) < 1e-6]) - t0)
        return cls(a, b, R, t0, w0, (cx, cy),
                   np.delete(u, np.argmin(np.abs(u))))

    def s_max(self) -> float:
        """Largest boundary distance in the closed ball: min(2R, b) when the
        ball holds the center or 2R stays before the cut b w0/a of the
        contact normal; otherwise the concave distance peaks where it is not
        smooth, on the medial axis |z1| < (a^2 - b^2)/a, z2 = 0, nearest the
        center, where it is b sqrt(1 - z1^2/(a^2 - b^2))."""
        a, b, R, (x1, x2) = self.a, self.b, self.R, self.center
        if math.hypot(x1, x2) <= R or 2.0 * R <= b * self.w0 / a:
            return min(2.0 * R, b)
        z1 = abs(x1) - math.sqrt(max(R * R - x2 * x2, 0.0))
        return b * math.sqrt(1.0 - z1 * z1 / (a * a - b * b))

    def terms(self, u: np.ndarray) -> Tuple[np.ndarray, ...]:
        """(v, c0, c1, e0, e1) at offsets u, v = sin^2(u/2): the point at
        distance s along the normal lies in the open ball iff
        g = s (s - 2R) + s c1 + c0 = |y + s nu - center|^2 - R^2 < 0, and
        dg/dv = e0 + s e1.  Every term is written in sin(u/2) and cos(u/2),
        so none cancels as u -> 0, and s - 2R is exact as s -> 2R."""
        a, b, R = self.a, self.b, self.R
        st0, ct0, w0 = math.sin(self.t0), math.cos(self.t0), self.w0
        ab, ecc = a * b, a * a - b * b
        sig, ch = np.sin(0.5 * u), np.cos(0.5 * u)
        v = sig * sig
        cu, su = 1.0 - 2.0 * v, 2.0 * sig * ch
        st, ct = st0 * cu + ct0 * su, ct0 * cu - st0 * su
        stb, ctb = st0 * ch + ct0 * sig, ct0 * ch - st0 * sig
        w2 = b * b + ecc * st * st
        w = np.sqrt(w2)
        c0 = 4.0 * v * (b * b + ecc * stb * stb - R * ab / w0)
        # 1 - nu(t0).nu(t), by the sine of the angle where its cosine is
        # positive
        cos_n = (b * b * ct0 * ct + a * a * st0 * st) / (w0 * w)
        with np.errstate(divide="ignore", invalid="ignore"):
            one_m = np.where(cos_n > 0.0,
                             (ab * su / (w0 * w)) ** 2 / (1.0 + cos_n),
                             1.0 - cos_n)
        c1 = 2.0 * R * one_m - 4.0 * v * ab / w
        # dg/du = 2 (1 - s kappa) (y - center).y', and dv/du = sig ch
        with np.errstate(divide="ignore", invalid="ignore"):
            e0 = 4.0 * ((a * a * st * stb + b * b * ct * ctb) / ch
                        - R * ab / w0)
        return v, c0, c1, e0, -e0 * ab / (w2 * w)

    def start(self, s: np.ndarray, side: np.ndarray) -> np.ndarray:
        """Offsets, on the side of `side`, where the level-s parallel of the
        osculating circle at y(t0) (radius rho0) leaves the ball: its normal
        turns by phi, sin^2(phi/2) = s (2R - s) / (4 (rho0 - s)(rho0 - R)),
        mapped to the ellipse's parameter through tan(theta) = (a/b) tan(t)
        for the normal angle theta."""
        a, b, R, w0 = self.a, self.b, self.R, self.w0
        rho0 = w0 ** 3 / (a * b)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = s * (2.0 * R - s) / (4.0 * (rho0 - s) * (rho0 - R))
        phi = 2.0 * np.arcsin(np.sqrt(np.where(s < rho0,
                                               np.clip(h, 0.0, 1.0), 1.0)))
        cth, sth = b * math.cos(self.t0) / w0, a * math.sin(self.t0) / w0
        sp, cp = side * np.sin(phi), np.cos(phi)
        return np.arctan2(a * b * sp,
                          cp * (a * a * cth * cth + b * b * sth * sth)
                          + sp * cth * sth * (b * b - a * a))

    def primitive(self, u: np.ndarray, s: np.ndarray) -> np.ndarray:
        """L(t) - s theta(t) at t = t0 + u, whose differences are the
        lengths of the parallel curve y + s nu before its cut: L the arc
        length, an incomplete elliptic integral of the second kind, and
        theta the normal angle, theta - t = atan((a - b) sin t cos t /
        (b cos^2 t + a sin^2 t))."""
        a, b = self.a, self.b
        t = self.t0 + u
        st, ct = np.sin(t), np.cos(t)
        theta = t + np.arctan((a - b) * st * ct / (b * ct * ct + a * st * st))
        return a * ellipeinc(t - 0.5 * math.pi, 1.0 - (b / a) ** 2) - s * theta


def _wrap(u: np.ndarray) -> np.ndarray:
    """Angles u reduced to [-pi, pi)."""
    return (u + math.pi) % (2.0 * math.pi) - math.pi


def _arc_ends(tube: _EllipseTube, s: np.ndarray, lo: np.ndarray,
              hi: np.ndarray, inside_lo: np.ndarray) -> np.ndarray:
    """The offset in each bracket [lo, hi] (one side of the contact) where
    g(., s) of tube.terms changes sign, g < 0 at lo where inside_lo; g is
    monotone there.  Safeguarded Newton in v = sin^2(u/2), in which g is
    nearly linear, started at tube.start where the bracket ends at the
    contact and at the midpoint elsewhere, with a bisection step whenever
    Newton leaves the bracket.  It stops once a step is below
    _ARC_STEP_TOL of the offset (the step it then takes leaves an error of
    about its square), or when the bracket closes to rounding."""
    side = np.where(hi > 0.0, 1.0, -1.0)
    u = tube.start(s, side)
    u = np.where(((lo == 0.0) | (hi == 0.0)) & (u > lo) & (u < hi), u,
                 0.5 * (lo + hi))
    out = np.empty_like(u)
    idx = np.arange(u.size)
    for _ in range(_ARC_MAX_ITER):
        v, c0, c1, e0, e1 = tube.terms(u)
        g = s * (s - 2.0 * tube.R) + s * c1 + c0
        left = (g < 0.0) == inside_lo
        lo, hi = np.where(left, u, lo), np.where(left, hi, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = 2.0 * side * np.arcsin(np.sqrt(v - g / (e0 + s * e1)))
        # a last step may round across the end it started from
        small = np.abs(newton - u) <= _ARC_STEP_TOL * np.abs(newton)
        ok = small | ((newton >= lo) & (newton <= hi))
        done = (small | (g == 0.0)
                | (hi - lo <= 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi))))
        u = np.where(g == 0.0, u, np.where(ok, np.clip(newton, lo, hi),
                                           0.5 * (lo + hi)))
        out[idx] = u
        keep = np.flatnonzero(~done)
        if keep.size == 0:
            return out
        idx, u, lo, hi, s, side, inside_lo = (
            idx[keep], u[keep], lo[keep], hi[keep], s[keep], side[keep],
            inside_lo[keep])
    raise RuntimeError(f"the ends of {idx.size} level-set arcs did not "
                       f"converge in {_ARC_MAX_ITER} iterations")


def _ellipse_level_area(tube: _EllipseTube, s: np.ndarray) -> np.ndarray:
    """Length of {d_Gamma = s} in the tube's ball for a 1-d array of levels
    s > 0, by the tube formula (H. Weyl, "On the volume of tubes", 1939).

    The level set is the parallel curve y(t) + s nu(t) over the parameters
    before its cut, s <= s_cut(t) = b w(t)/a, where the normal meets the
    major axis: sin^2 t >= c(s).  Along it |y + s nu - x| has the critical
    points of |y - x| (its derivative is (1 - s kappa) (y - x).y'), so
    between the offsets of the normals through x (tube.crit), the contact
    and the cut points, the interior test g of tube.terms is monotone: each
    piece lies in the ball up to at most one arc end (_arc_ends), however
    many arcs the level set has there.  Each arc integrates exactly to
    [L(t2) - L(t1)] - s [theta(t2) - theta(t1)] (tube.primitive); an end
    shared by consecutive pieces cancels and is not evaluated.
    """
    a, b, R, n = tube.a, tube.b, tube.R, s.size
    m = 1.0 - (b / a) ** 2
    c = ((s / b) ** 2 - (b / a) ** 2) / m if m > 0.0 \
        else np.where(s <= b, 0.0, 2.0)
    r = np.sqrt(np.clip(c, 0.0, 1.0))
    alpha = np.arcsin(r)
    # the cut points y + s nu = (+-X, +-Y), with Y = 0 where c > 0
    w_cut = np.sqrt(b * b + (a * a - b * b) * r * r)
    big_x = np.sqrt(1.0 - r * r) * (a - s * b / w_cut)
    big_y = r * (b - s * a / w_cut)
    cx, cy = tube.center
    signs = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))
    fixed = np.concatenate([[-math.pi, 0.0, math.pi], tube.crit])
    _, c0, c1, _, _ = tube.terms(fixed)
    sc = s[:, None]
    u = np.concatenate(
        [np.broadcast_to(fixed, (n, fixed.size)),
         _wrap(np.stack([alpha, math.pi - alpha, math.pi + alpha, -alpha],
                        axis=1) - tube.t0)], axis=1)
    g = np.concatenate(
        [sc * (sc - 2.0 * R) + sc * c1 + c0,
         np.stack([(sx * big_x - cx) ** 2 + (sy * big_y - cy) ** 2 - R * R
                   for sx, sy in signs], axis=1)], axis=1)
    order = np.argsort(u, axis=1)
    u = np.take_along_axis(u, order, axis=1)
    g = np.take_along_axis(g, order, axis=1)
    lo, hi = u[:, :-1], u[:, 1:]
    inside_lo, inside_hi = g[:, :-1] < 0.0, g[:, 1:] < 0.0
    hit = ((np.sin(tube.t0 + 0.5 * (lo + hi)) ** 2 >= c[:, None])
           & (inside_lo | inside_hi))
    start = np.where(inside_lo, lo, 0.0)
    end = np.where(inside_hi, hi, 0.0)
    rows, cols = np.nonzero(hit & (inside_lo != inside_hi))
    ends = _arc_ends(tube, s[rows], lo[rows, cols], hi[rows, cols],
                     inside_lo[rows, cols])
    leaves = inside_lo[rows, cols]
    end[rows[leaves], cols[leaves]] = ends[leaves]
    start[rows[~leaves], cols[~leaves]] = ends[~leaves]
    # an end shared with the next piece cancels in the sum
    shared = hit[:, :-1] & hit[:, 1:] & inside_hi[:, :-1]
    last, first = hit.copy(), hit.copy()
    last[:, :-1] &= ~shared
    first[:, 1:] &= ~shared
    re, ce = np.nonzero(last)
    rs, cs = np.nonzero(first)
    return (np.bincount(re, tube.primitive(end[re, ce], s[re]), minlength=n)
            - np.bincount(rs, tube.primitive(start[rs, cs], s[rs]),
                          minlength=n))


def _zero_outside(R: float, closed: Callable, s: np.ndarray) -> np.ndarray:
    """The level-set areas of a touching ball B_R(x) at an array s, the
    area function of every level_sets method bound to R and closed:
    closed(s) on 0 < s < 2R, and 0 elsewhere."""
    out = np.zeros_like(s)
    on = (s > 0.0) & (s < 2.0 * R)
    out[on] = closed(s[on])
    return out


def level_set_area(domain: Geometry | ImplicitDomain, cfg: TouchingBallConfig,
                   s: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Surface measure of {d_Gamma = s} inside B_R(x) by domain.level_sets,
    for scalar (a float back) or array s > 0, on balls, ball complements and
    ellipses.  Other implicit domains raise ValueError: their areas are the
    seeded Monte Carlo oracle level_set_area_mc's.  domain must be
    cfg.domain."""
    if domain != cfg.domain:
        raise ValueError("the domain is not cfg.domain, the configuration's")
    _, area = domain.level_sets(cfg)
    s_arr = np.asarray(s, dtype=float)
    if not np.all(s_arr > 0.0):
        raise ValueError(f"level distance s must be > 0, got {s}")
    out = area(s_arr)
    return float(out) if s_arr.ndim == 0 else out


def level_set_area_mc(domain: Geometry | ImplicitDomain,
                      cfg: TouchingBallConfig, s: float,
                      n_samples: int = 10_000_000, seed: int = _DEFAULT_SEED,
                      half_width: Optional[float] = None
                      ) -> Tuple[float, float]:
    """Monte Carlo oracle (area, stderr) by binning boundary distances.

    Uniform samples in B_R(x), stratified over _N_STRATA = 64 radius
    shells with one spawned bit-generator per stratum; the level-set measure
    is the fraction landing in [s - hw, s + hw] times vol(B_R)/(2 hw).  The
    bin must stay in d >= 0, where the samples land: hw <= s.  Each stratum
    is drawn and binned in blocks (_ball_blocks), bit for bit the one-shot
    draw, so the working set does not grow with n_samples.

    Strata that cannot reach the bin are counted without drawing.  The
    distance is 1-Lipschitz and d_Gamma(x) = R (to the tolerance that
    touching_ball checks), so a point at radius r from x has d_Gamma >=
    R - r; stratum j has radii below R ((j+1)/S)^{1/N}, and when that bound
    stays below R - s - hw no sample can land in the bin: the stratum adds
    its m samples to the total and nothing to the hits or the variance.
    Each stratum draws from its own generator, so the estimate is the one
    a full draw gives (a computed distance is never below the true one).
    domain must be cfg.domain.
    """
    if domain != cfg.domain:
        raise ValueError("the domain is not cfg.domain, the configuration's")
    if not s > 0.0:
        raise ValueError(f"level distance s must be > 0, got {s}")
    hw = half_width if half_width is not None else 0.1 * s
    if not hw > 0.0:
        raise ValueError(f"half_width must be > 0, got {hw}")
    if hw > s:
        raise ValueError(
            f"half_width {hw} exceeds s = {s}: the bin would reach below "
            "d = 0, where no sample lands")
    _require_count("n_samples", n_samples)
    x = np.asarray(cfg.x, dtype=float)
    n = x.size
    vol = ball_volume(n, cfg.R)
    seqs = np.random.SeedSequence(seed).spawn(_N_STRATA)
    base = n_samples // _N_STRATA
    reach = (cfg.R - s - hw - _TOUCH_TOL * cfg.R
             - 4.0 * _EPS * math.hypot(*x)) * (1.0 - 1e-12)
    counts_total = 0
    var_sum = 0.0
    total = 0
    for j, seq in enumerate(seqs):
        m = base + (1 if j < n_samples % _N_STRATA else 0)
        if m == 0:
            continue
        if cfg.R * ((j + 1) / _N_STRATA) ** (1.0 / n) < reach:
            total += m
            continue
        hits = sum(
            np.count_nonzero(np.abs(boundary_distances(domain, pts) - s) <= hw)
            for pts in _ball_blocks(np.random.default_rng(seq), x, cfg.R, m,
                                    j, _N_STRATA))
        p_hat = hits / m
        counts_total += hits
        var_sum += m * p_hat * (1.0 - p_hat)
        total += m
    area = counts_total / total * vol / (2.0 * hw)
    se = vol / (2.0 * hw) * math.sqrt(var_sum) / total
    return area, se


def area_ratio_limit(cfg: TouchingBallConfig) -> float:
    """Limit of area(s)/s^{(N-1)/2} as s -> 0 at a touching configuration:
    |S^{N-2}| (2R)^{(N-1)/2} (N-1)^{-1} Pi_Gamma^{-1/2}."""
    n = cfg.n
    return (unit_sphere_area(n - 1) * (2.0 * cfg.R) ** (0.5 * (n - 1))
            / (n - 1) / math.sqrt(cfg.pi_gamma))


def _narrow(f: Callable, lo: float, hi: float) -> Tuple[float, float]:
    """(s, f(s)) at the argmin of f on arrays s of _PSI_GRID points evenly
    spaced in log s, the first over [lo, hi] and each next over the two
    cells beside the argmin in the one before, until those stop shrinking."""
    a, b, width = math.log(lo), math.log(hi), math.inf
    while b - a < width:
        width = b - a
        x = a + width * _UNIT
        v = f(np.exp(x))
        i = int(np.argmin(v))
        a, b = x[max(i - 1, 0)], x[min(i + 1, _PSI_GRID - 1)]
    return math.exp(x[i]), float(v[i])


def psi_of_eps(modulus: ModulusSpec, eps: float) -> float:
    """Distance from (0, eps) to the graph {(s, omega(s)): 0 < s <= r}.

    Requires omega(tiny) <= eps <= omega(r), tiny the least normal float;
    below omega(tiny), psi is under the float range.  The crossing s_eps of
    height eps, where omega is nearest eps, is found however steep the
    graph: (s_eps, eps) is at distance s_eps, and past it both legs of the
    distance grow, so the nearest point is searched on [tiny, s_eps].  The
    s -> 0 closure point adds the candidate eps.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    w_tiny, w_r = modulus.omega(np.array([_TINY, modulus.r]))
    if eps > w_r:
        raise ValueError(f"eps = {eps} exceeds omega(r) = {w_r}")
    if w_tiny > eps:
        raise ValueError(f"eps = {eps} is below omega({_TINY}) = {w_tiny}: "
                         "psi(eps) underflows")
    s_eps, _ = _narrow(lambda s: np.abs(modulus.omega(s) - eps), _TINY,
                       modulus.r)
    _, dist = _narrow(lambda s: np.hypot(s, modulus.omega(s) - eps), _TINY,
                      s_eps)
    return min(dist, s_eps, eps)


def make_ellipse_domain(a: float = 2.0, b: float = 1.0) -> EllipseDomain:
    """The ellipse x^2/a^2 + y^2/b^2 < 1: EllipseDomain(a, b)."""
    return EllipseDomain(a, b)
