"""Problem data for the weighted maximin dispersion problem.

An instance bundles m anchor points in R^n with strictly positive weights and
a feasible region, either the unit Euclidean ball or the box [-1, 1]^n.  The
objective

    f(x) = min_i  w_i * ||x - p_i||^2

is the minimum weighted squared distance from x to the anchors; every solver
in this package maximizes f over the feasible region.  Instances are
immutable, and the public functions here are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "Geometry",
    "InstanceError",
    "DispersionInstance",
    "Evaluation",
    "evaluate",
    "evaluate_batch",
    "generate_random",
    "read_instance",
    "write_instance",
]


class Geometry(str, Enum):
    """Feasible region selector: unit ball or unit box."""

    BALL = "ball"
    BOX = "box"


class InstanceError(ValueError):
    """Malformed instance data, from a constructor or an instance file."""


@dataclass(frozen=True, eq=False)
class DispersionInstance:
    """m weighted anchor points in R^n plus the feasible geometry.

    ``points`` has shape (m, dim), ``weights`` has shape (m,) and is strictly
    positive.  Anchors may lie anywhere in R^n, including outside the
    feasible region.  Arrays are copied and marked read-only at construction.
    """

    dim: int
    points: np.ndarray
    weights: np.ndarray
    geometry: Geometry = Geometry.BALL

    def __post_init__(self):
        try:
            dim = int(self.dim)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceError(f"dim must be an integer, got {self.dim!r}") from exc
        # int() would truncate 2.7, parse "3" and read True as 1
        if isinstance(self.dim, (bool, np.bool_)) or dim != self.dim:
            raise InstanceError(f"dim must be an integer, got {self.dim!r}")
        if dim < 1:
            raise InstanceError(f"dim must be >= 1, got {dim}")
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise InstanceError(f"points must be a 2-d array, got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise InstanceError("at least one anchor point is required")
        if pts.shape[1] != dim:
            raise InstanceError(
                f"points have {pts.shape[1]} coordinates but dim is {dim}"
            )
        if not np.all(np.isfinite(pts)):
            raise InstanceError("points must be finite")
        wts = np.array(self.weights, dtype=float)
        if wts.shape != (pts.shape[0],):
            raise InstanceError(
                f"weights must have shape ({pts.shape[0]},), got {wts.shape}"
            )
        if not np.all(np.isfinite(wts)) or np.any(wts <= 0.0):
            raise InstanceError("weights must be finite and strictly positive")
        try:
            geom = Geometry(self.geometry)
        except ValueError as exc:
            raise InstanceError(f"unknown geometry {self.geometry!r}") from exc
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "geometry", geom)

    @property
    def m(self) -> int:
        """Number of anchor points."""
        return self.points.shape[0]

    def contains(self, x: np.ndarray, tol: float = 1e-12) -> bool:
        """Whether x lies in the feasible region, up to an absolute slack."""
        x = np.asarray(x, dtype=float)
        if self.geometry is Geometry.BALL:
            return float(np.linalg.norm(x)) <= 1.0 + tol
        return float(np.abs(x).max()) <= 1.0 + tol

    def __eq__(self, other) -> bool:
        if not isinstance(other, DispersionInstance):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.geometry is other.geometry
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )


_KEPT = {}  # name -> (inst, key, value): see _kept


def _kept(name, inst, key, build, *args):
    """build(*args), or the value kept under name for this inst and key.

    The one rule for values reused between calls: each name keeps one entry,
    for the last inst and key built, replaced in one assignment, so concurrent
    callers can only miss; callers run their calls on one instance back to
    back.  inst matches by identity, so an equal instance builds afresh, and
    key by ==.  Nothing is stored on an instance.  A kept value is a tuple or
    a dataclass record, and every array in it is made read-only.
    """
    entry = _KEPT.get(name)
    if entry is not None and entry[0] is inst and entry[1] == key:
        return entry[2]
    value = build(*args)
    for item in vars(value).values() if is_dataclass(value) else value:
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
    _KEPT[name] = (inst, key, value)
    return value


def _project(x: np.ndarray, ball: bool) -> np.ndarray:
    """Nearest point of the region: x / max(1, ||x||) on the ball, clip on the box."""
    return x / max(1.0, float(np.linalg.norm(x))) if ball else np.clip(x, -1.0, 1.0)


def _unit(v: np.ndarray) -> np.ndarray | None:
    """v / ||v||, or None for the zero vector.  Where ||v|| is outside
    1e-150..1e150, near where v . v underflows or overflows, v is first
    divided by max_j |v_j|; every other v keeps its bits."""
    nrm = float(np.linalg.norm(v))
    if not 1e-150 < nrm < 1e150:
        big = float(np.max(np.abs(v)))
        if big == 0.0:
            return None
        v = v / big
        nrm = float(np.linalg.norm(v))
    return v / nrm


def _sphere_step(x: np.ndarray, d: np.ndarray) -> float:
    """Nonnegative root t of ||x + t d|| = 1 for x in the ball; 0 when d = 0."""
    dd = float(d @ d)
    if dd == 0.0:
        return 0.0
    xd = float(x @ d)
    root = math.sqrt(xd * xd + dd * max(0.0, 1.0 - float(x @ x)))
    return max(0.0, (root - xd) / dd)


@dataclass(frozen=True)
class Evaluation:
    """Value of the dispersion objective at one point.

    ``argmin_index`` is the 0-based index of the anchor attaining the
    minimum; ties are broken toward the smallest index.
    """

    point: np.ndarray
    value: float
    argmin_index: int


def evaluate(inst: DispersionInstance, x) -> Evaluation:
    """Evaluate f(x) = min_i w_i ||x - p_i||^2 at a single point."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (inst.dim,):
        raise InstanceError(f"point has shape {x.shape}, expected ({inst.dim},)")
    diff = inst.points - x
    vals = inst.weights * np.einsum("ij,ij->i", diff, diff)
    idx = int(np.argmin(vals))  # np.argmin returns the first minimizer
    return Evaluation(point=x.copy(), value=float(vals[idx]), argmin_index=idx)


def _value(inst: DispersionInstance, x: np.ndarray) -> float:
    """evaluate(inst, x).value bit for bit, for an x of shape (dim,) that needs
    no check, without building the Evaluation record."""
    diff = inst.points - x
    return float(np.minimum.reduce(inst.weights * np.einsum("ij,ij->i", diff, diff)))


def evaluate_batch(inst: DispersionInstance, xs: np.ndarray) -> np.ndarray:
    """Evaluate the objective at each row of xs, shape (k, dim) -> (k,).

    Uses the expansion ||x - p||^2 = ||x||^2 - 2 x.p + ||p||^2 so the whole
    batch is a single matrix product.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != inst.dim:
        raise InstanceError(f"batch has shape {xs.shape}, expected (k, {inst.dim})")
    p_sq = np.einsum("ij,ij->i", inst.points, inst.points)
    x_sq = np.einsum("ij,ij->i", xs, xs)
    cross = xs @ inst.points.T
    d_sq = x_sq[:, None] - 2.0 * cross + p_sq[None, :]
    # tiny negative values can appear when x coincides with an anchor
    np.maximum(d_sq, 0.0, out=d_sq)
    return np.min(inst.weights[None, :] * d_sq, axis=1)


def generate_random(
    n: int, m: int, seed: int, geometry: Geometry = Geometry.BALL
) -> DispersionInstance:
    """Random instance: m anchors drawn i.i.d. uniform on [-1, 1]^n, unit weights."""
    if n < 1 or m < 1:
        raise InstanceError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(m, n))
    return DispersionInstance(n, pts, np.ones(m), geometry)


def read_instance(path) -> DispersionInstance:
    """Load an instance from a JSON file.

    Expected document:

        {"dim": n, "geometry": "ball" | "box",
         "points": [[...], ...], "weights": [...]}

    ``weights`` may be omitted, in which case all weights are 1.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceError(f"cannot read instance file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InstanceError(f"instance file {path} must hold a JSON object")
    for key in ("dim", "geometry", "points"):
        if key not in raw:
            raise InstanceError(f"instance file {path} is missing the {key!r} field")
    points = raw["points"]
    if not isinstance(points, list) or not points:
        raise InstanceError(f"instance file {path}: points must be a non-empty list")
    for i, row in enumerate(points):
        if not isinstance(row, list):
            raise InstanceError(f"instance file {path}: point {i} is not a list")
    lengths = {len(row) for row in points}
    if len(lengths) != 1:
        raise InstanceError(f"instance file {path}: points have mixed lengths {sorted(lengths)}")
    weights = raw.get("weights")
    if weights is None:
        weights = [1.0] * len(points)
    try:
        return DispersionInstance(raw["dim"], points, weights, raw["geometry"])
    except InstanceError as exc:
        raise InstanceError(f"instance file {path}: {exc}") from exc


def write_instance(inst: DispersionInstance, path) -> None:
    """Write an instance as JSON; round-trips exactly through read_instance."""
    doc = {
        "dim": inst.dim,
        "geometry": inst.geometry.value,
        "points": [[float(v) for v in row] for row in inst.points],
        "weights": [float(v) for v in inst.weights],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
