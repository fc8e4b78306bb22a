"""Global oracle for desk-scale instances, by one of two routes.

On a ball with m <= 12 anchors, solve_global lists every active set and
returns the best of their stationary points.  Every other instance is
searched: dense feasible sampling, then deterministic local ascent from the
most promising candidates.  The ascent exploits the objective's structure:
along any segment inside the feasible region every term w_i ||x + t d - p_i||^2
is an upward parabola in t, so the exact maximum of their minimum over the
segment sits at an endpoint or at a crossing of two parabolas, all of which
are enumerable; one batched pass finds the line maxima toward all targets of
an ascent round.  method_trace holds the counts and each stage's seconds.

The result is a reference value, not a certificate; tests always pair it
with the relaxation upper bound.  Intended for small dimensions (n <= 6 is
comfortable; the hardness reduction uses it up to n around 12).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from .instance import (DispersionInstance, Geometry, _project, _sphere_step, _unit,
                       evaluate, evaluate_batch)
from .relax import _tie_set
from .tail import sample_sphere

__all__ = ["OracleResult", "solve_global"]

_CHUNK = 50_000
_TOP_PER_CHUNK = 8
_REFINE_ROUNDS = 60
_NEAR_ACTIVE_TARGETS = 6
_GAIN_TOL = 1e-13
_STATIONARY_M_CAP = 12
_CROSSING_TERMS = 40  # above this many anchors, line maxima use a grid too
_EVAL_CELLS = 16384
_STAGES = ("seeds", "stationary", "sampling", "ascent", "polish")


@dataclass(frozen=True)
class OracleResult:
    """Best point found by the search, with a trace of how it was found.

    certified_radius is an informal quality note; nothing here is a proof of
    optimality.
    """

    x_best: np.ndarray
    value: float
    method_trace: dict
    certified_radius: str


def _feasible_samples(inst, count, rng):
    """count feasible points: sphere/interior mix on the ball, corner/uniform on the box."""
    n = inst.dim
    if inst.geometry is Geometry.BALL:
        pts = sample_sphere(n, rng, count)
        half = count // 2
        # first half stays on the sphere, second half is pushed inside with
        # the radius law that makes the points uniform in the ball
        radii = rng.uniform(0.0, 1.0, size=count - half) ** (1.0 / n)
        pts[half:] *= radii[:, None]
        return pts
    pts = rng.uniform(-1.0, 1.0, size=(count, n))
    half = count // 2
    pts[:half] = np.sign(pts[:half]) + (pts[:half] == 0.0)
    return pts


def _seed_candidates(inst):
    """Deterministic starts: origin, axis points, anchor antipodes, and
    antipodes of small weighted anchor combinations.

    A sphere maximum with active anchors A satisfies the stationarity form
    x = +-normalize(sum over A of lam_i w_i p_i), so uniform-lambda pair and
    triple combinations land near every basin with a small active set.
    """
    n = inst.dim
    seeds = [np.zeros(n)]
    eye = np.eye(n)
    for j in range(n):
        seeds.append(eye[j].copy())
        seeds.append(-eye[j].copy())
    wp = inst.weights[:, None] * inst.points
    sums = list(wp)
    m = inst.m
    if m * (m - 1) // 2 <= 300:
        sums += [wp[i] + wp[j] for i, j in combinations(range(m), 2)]
    if m <= 14:
        sums += [wp[i] + wp[j] + wp[k] for i, j, k in combinations(range(m), 3)]
    # a zero vector points nowhere, so it seeds nothing
    seeds += [_far_target(inst, seeds[0], v) for v in sums if np.linalg.norm(v) > 0.0]
    return seeds


def _stationary_candidates(inst):
    """Every stationary point of the maximin objective on the ball, by
    enumerating active subsets of at most n + 1 anchors (ball geometry,
    m <= _STATIONARY_M_CAP).

    By Caratheodory a stationary point needs at most n active anchors on the
    sphere and n + 1 inside, and a tie set of more anchors is also the tie set
    of at most n + 1 of them, so larger sets add only least-squares points.

    A local maximum with active anchors A sits on the sphere or inside.  On
    the sphere each term is the relaxation's piece a_i - b_i.x, so the ties of
    A cut out an affine set, and the common value is stationary at the set's
    two sphere points along the set's part of b_0, or along any direction of
    the set where b_0.x is constant on it (antiparallel or repeated anchors).
    Inside, x is an affine combination of the anchors and the only
    nonlinearity is the scalar u = ||x||^2, determined by a quadratic.  Sign
    conditions on the multipliers are not checked; spurious candidates are
    harmless because every candidate is scored by a full evaluation.
    """
    m = inst.m
    P, w = inst.points, inst.weights
    p_sq = np.einsum("ij,ij->i", P, P)
    a, B = w * (1.0 + p_sq), 2.0 * w[:, None] * P
    out = []
    for k in range(1, min(m, inst.dim + 1) + 1):
        for A in combinations(range(m), k):
            idx = list(A)
            c, dirs, room = _tie_set(a, B, idx)
            # a tie set that is one point lies on the tie line of a subset
            if room >= 0.0 and len(dirs):
                b0 = B[idx[0]]
                g = dirs @ b0
                gn = float(np.linalg.norm(g))
                flat = gn <= 1e-12 * max(1.0, float(np.linalg.norm(b0)))
                step = math.sqrt(room) * (dirs[0] if flat else dirs.T @ g / gn)
                for x in (c + step, c - step):
                    out.append(x / float(np.linalg.norm(x)))

            # interior branch: x = PA^T theta, sum theta = 1, u = |x|^2
            PA, wA, sqA = P[idx], w[idx], p_sq[idx]
            G = PA.T  # span basis, n x k
            L = -2.0 * (wA[:, None] * PA) @ G  # k x k
            M2 = np.zeros((k + 1, k + 1))
            M2[:k, :k] = L
            M2[:k, k] = -1.0
            M2[k, :k] = 1.0
            r_const = np.concatenate([-(wA * sqA), [1.0]])
            r_lin = np.concatenate([-wA, [0.0]])
            z, *_ = np.linalg.lstsq(M2, np.column_stack([r_const, r_lin]), rcond=None)
            x0 = G @ z[:k, 0]
            x1 = G @ z[:k, 1]
            qa = float(x1 @ x1)
            qb = 2.0 * float(x0 @ x1) - 1.0
            qc = float(x0 @ x0)
            if qa <= 1e-16:
                roots = [-qc / qb] if abs(qb) > 1e-16 else []
            else:
                disc = qb * qb - 4.0 * qa * qc
                sq = math.sqrt(disc) if disc >= 0.0 else None
                roots = [] if sq is None else [(-qb + sq) / (2 * qa), (-qb - sq) / (2 * qa)]
            for u in roots:
                if u < -1e-12:
                    continue
                x = x0 + max(u, 0.0) * x1
                if np.linalg.norm(x) <= 1.0 + 1e-9:
                    out.append(_project(x, True))
    return out


def _far_target(inst, x, anchor):
    """Feasible point maximizing the distance to one anchor (ball antipode or far corner).

    Where the anchor leaves a choice (an anchor at the origin, or a zero
    coordinate on the box), x breaks the tie: its own direction on the ball,
    its own signs on the box.  None on the ball when both are zero vectors.
    """
    if inst.geometry is Geometry.BALL:
        away = _unit(anchor)
        return _unit(x) if away is None else -away
    target = -np.sign(anchor)
    zero = anchor == 0.0
    if np.any(zero):
        fill = np.sign(x)
        fill[fill == 0.0] = 1.0
        target = np.where(zero, fill, target)
    return target


@lru_cache(maxsize=None)
def _pairs(k):
    """Read-only index arrays (i, j), i < j, of all pairs among k terms."""
    ii, jj = np.triu_indices(k, k=1)
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


def _segment_max(inst, x, D):
    """Exact maxima of the objective along x + t d, t in [0, 1], for each row d of D.

    Returns arrays (t, v), one entry per row: the smallest maximizer and the
    maximum.  Candidates are a base grid ({0, 1}) and every pairwise crossing
    of the per-anchor parabolas inside (0, 1); for m > 40, crossings are only
    enumerated among the 40 smallest terms at x and the base grid is 257
    uniform points.  All rows' candidates form one flat array.
    """
    w = inst.weights
    diff = x - inst.points  # (m, n)
    # one product per row: a batched D @ diff.T may round differently
    A = w * np.array([[float(d @ d)] for d in D])
    B = 2.0 * w * np.array([diff @ d for d in D])
    c = w * np.einsum("ij,ij->i", diff, diff)

    if len(w) > _CROSSING_TERMS:
        keep = np.argsort(c)[:_CROSSING_TERMS]
        grid = np.linspace(0.0, 1.0, 257)
    else:
        keep = np.arange(len(w))
        grid = np.array([0.0, 1.0])
    ii, jj = _pairs(keep.size)
    ii, jj = keep[ii], keep[jj]
    qa = A[:, ii] - A[:, jj]
    qb = B[:, ii] - B[:, jj]
    qc = c[ii] - c[jj]
    lin = np.abs(qa) <= 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lin = np.where(np.abs(qb) > 0.0, -qc / qb, np.nan)
        disc = qb * qb - 4.0 * qa * qc
        sq = np.sqrt(np.maximum(disc, 0.0))
        t_plus = (-qb + sq) / (2.0 * qa)
        t_minus = (-qb - sq) / (2.0 * qa)
    rows, g = D.shape[0], grid.size
    cand = np.empty((rows, g + 3 * ii.size))
    cand[:, :g] = grid
    np.concatenate((t_lin, t_plus, t_minus), axis=1, out=cand[:, g:])
    use = (cand > 0.0) & (cand < 1.0)
    use[:, :g] = True
    quad = ~lin & (disc >= 0.0)
    use[:, g:] &= np.concatenate((lin, quad, quad), axis=1)
    t_flat = cand[use]
    counts = use.sum(axis=1)
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(rows), counts)
    # evaluated in slices of about _EVAL_CELLS (candidate, term) cells, so
    # that large m does not spill the temporaries out of cache
    vals = np.empty(t_flat.size)
    step = max(1, _EVAL_CELLS // len(w))
    for s in range(0, t_flat.size, step):
        o, tc = owner[s : s + step], t_flat[s : s + step, None]
        np.min(A[o] * tc**2 + B[o] * tc + c, axis=1, out=vals[s : s + step])
    v = np.maximum.reduceat(vals, starts)
    # smallest t attaining the maximum: the tie-break of a sorted scan
    t = np.minimum.reduceat(np.where(vals == v[owner], t_flat, np.inf), starts)
    return t, v


def _steepest_direction(inst, x, scale):
    """Feasible direction maximizing the worst active-term slope, by a small LP.

    Variables are (d, s): maximize s subject to g_i . d >= s over the
    near-active terms, |d_j| <= 1, tangency x . d = 0 when x sits on the
    sphere, and sign restrictions on coordinates sitting at box walls.
    Returns None when no first-order ascent direction exists.
    """
    n = x.size
    w, P = inst.weights, inst.points
    diff = x - P
    vals = w * np.einsum("ij,ij->i", diff, diff)
    act = vals <= vals.min() + 1e-6 * scale
    g = 2.0 * w[act, None] * diff[act]

    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    A_ub = np.hstack([-g, np.ones((g.shape[0], 1))])
    b_ub = np.zeros(g.shape[0])
    A_eq = b_eq = None
    if inst.geometry is Geometry.BALL:
        bounds = [(-1.0, 1.0)] * n + [(None, None)]
        if float(x @ x) >= 1.0 - 1e-9:
            A_eq = np.concatenate([x, [0.0]])[None, :]
            b_eq = [0.0]
    else:
        bounds = []
        for j in range(n):
            lo = 0.0 if x[j] <= -1.0 + 1e-12 else -1.0
            hi = 0.0 if x[j] >= 1.0 - 1e-12 else 1.0
            bounds.append((lo, hi))
        bounds.append((None, None))
    res = linprog(
        cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if not res.success or -res.fun <= 1e-11 * scale:
        return None
    return res.x[:n]


def _max_feasible_step(inst, x, d):
    """Largest t >= 0 with x + t d feasible."""
    if inst.geometry is Geometry.BALL:
        return _sphere_step(x, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        room = np.where(d > 0.0, (1.0 - x) / d, np.where(d < 0.0, (-1.0 - x) / d, np.inf))
    t = float(np.min(room))
    return max(0.0, min(t, 2.0))


def _steepest_refine(inst, x, val):
    """Second-stage ascent: LP steepest directions with exact line maxima."""
    steps = 0
    w = inst.weights
    for _ in range(_REFINE_ROUNDS):
        if inst.geometry is Geometry.BALL:
            nrm = float(np.linalg.norm(x))
            if nrm > 1.0 - 1e-9:
                # snap onto the sphere so the tangency constraint engages
                x = x / nrm
                val = float(np.min(w * np.einsum("ij,ij->i", x - inst.points, x - inst.points)))
        scale = max(1.0, abs(val))
        d = _steepest_direction(inst, x, scale)
        if d is None:
            break
        t_max = _max_feasible_step(inst, x, d)
        if t_max <= 1e-14:
            break
        t, v = (float(a[0]) for a in _segment_max(inst, x, (t_max * d)[None, :]))
        if v <= val + _GAIN_TOL * scale:
            break
        x = x + t * (t_max * d)
        val = v
        steps += 1
    return x, val, steps


def _ascend(inst, x0):
    """Deterministic local ascent by exact line maxima toward far targets."""
    x = np.asarray(x0, dtype=float).copy()
    w = inst.weights
    val = float(np.min(w * np.einsum("ij,ij->i", x - inst.points, x - inst.points)))
    steps = 0
    for _ in range(_REFINE_ROUNDS):
        diff = x - inst.points
        order = np.argsort(w * np.einsum("ij,ij->i", diff, diff))
        # the nearest anchors, then a virtual anchor at the origin: its far
        # target is the radial push to the sphere, or x's own corner of the box
        anchors = [*inst.points[order[:_NEAR_ACTIVE_TARGETS]], 0.0]
        targets = [t for p in anchors if (t := _far_target(inst, x, p)) is not None]
        D = np.asarray(targets).reshape(-1, x.size) - x
        D = D[[float(d @ d) >= 1e-24 for d in D]]
        if not len(D):
            break
        ts, vs = _segment_max(inst, x, D)
        best_gain, best_move = 0.0, None
        for d, t, v in zip(D, ts.tolist(), vs.tolist()):
            if v > val + best_gain:
                best_gain = v - val
                best_move = x + t * d
        if best_move is None or best_gain <= _GAIN_TOL * max(1.0, abs(val)):
            break
        x = best_move
        val += best_gain
        steps += 1
    return x, val, steps


def _trace(seconds, **counts):
    """method_trace: the six counts (0 unless given) and every stage's seconds."""
    trace = {"samples": 0, "best_sampled": -math.inf, "stationary_candidates": 0,
             "candidates_refined": 0, "refine_steps": 0, "polish_steps": 0, **counts}
    return trace | {f"seconds_{s}": seconds.get(s, 0.0) for s in _STAGES}


def _enumerate(inst):
    """Best stationary point over all active sets: the route for small balls."""
    t0 = time.perf_counter()
    points = np.asarray(_stationary_candidates(inst))
    x = points[int(np.argmax(evaluate_batch(inst, points)))].copy()
    trace = _trace({"stationary": time.perf_counter() - t0}, stationary_candidates=len(points))
    note = (
        f"enumerated: best of {len(points)} stationary points over every active "
        "set; pair with a relaxation upper bound for soundness"
    )
    return OracleResult(
        x_best=x, value=evaluate(inst, x).value, method_trace=trace, certified_radius=note
    )


def _search(inst, budget, rng):
    """Seeds, `budget` feasible samples, ascent from the best starts, LP polish.

    Sampling is consumed in fixed 50k chunks so that enlarging the budget
    with the same generator extends, rather than reshuffles, the draw stream:
    method_trace["best_sampled"] is non-decreasing in the budget for a fixed
    seed. The perturbation stage afterwards also consumes the generator, so
    the final value is usually, but not provably, budget-monotone; it never
    falls below best_sampled.
    """
    clock = [time.perf_counter()]
    seeds = _seed_candidates(inst)
    seed_vals = evaluate_batch(inst, np.asarray(seeds))
    keep = np.argsort(seed_vals)[-40:]
    candidates = [seeds[int(i)] for i in keep]
    best_x = seeds[0]
    best_val = float(seed_vals[0])
    clock.append(time.perf_counter())

    sampled = 0
    best_sampled = -math.inf
    while sampled < budget:
        take = min(_CHUNK, budget - sampled)
        pts = _feasible_samples(inst, take, rng)
        vals = evaluate_batch(inst, pts)
        top = np.argsort(vals)[-_TOP_PER_CHUNK:]
        for idx in top:
            candidates.append(pts[idx].copy())
        hi = int(top[-1])
        best_sampled = max(best_sampled, float(vals[hi]))
        if vals[hi] > best_val:
            best_val = float(vals[hi])
            best_x = pts[hi].copy()
        sampled += take
    clock.append(time.perf_counter())

    refine_steps = 0
    refined = []
    for cand in candidates:
        x, val, steps = _ascend(inst, cand)
        refine_steps += steps
        refined.append((val, x))
        if val > best_val:
            best_val = val
            best_x = x.copy()
    refined.sort(key=lambda pair: pair[0], reverse=True)
    clock.append(time.perf_counter())

    # the LP-driven stage is costlier, so only the strongest finishers get it,
    # each with a perturbation cascade to escape shallow neighboring basins
    polish_steps = 0
    for val, x in refined[:6]:
        x2, val2, steps = _steepest_refine(inst, x, val)
        polish_steps += steps
        if val2 > best_val:
            best_val = val2
            best_x = x2.copy()
        for radius in (0.08, 0.25):
            for _ in range(4):
                hop = x2 + radius * rng.standard_normal(inst.dim)
                hop = _project(hop, inst.geometry is Geometry.BALL)
                x3, val3, s3 = _ascend(inst, hop)
                if val3 > best_val - 1e-9 * max(1.0, abs(best_val)):
                    x3, val3, s4 = _steepest_refine(inst, x3, val3)
                    polish_steps += s3 + s4
                    if val3 > best_val:
                        best_val = val3
                        best_x = x3.copy()
    clock.append(time.perf_counter())
    seconds = {s: t1 - t0 for s, t0, t1 in zip(("seeds", "sampling", "ascent", "polish"),
                                                clock, clock[1:])}
    trace = _trace(seconds, samples=sampled, best_sampled=best_sampled,
                   candidates_refined=len(candidates), refine_steps=refine_steps,
                   polish_steps=polish_steps)
    note = (
        f"heuristic: best of {sampled} samples and {len(candidates)} refined "
        "starts; pair with a relaxation upper bound for soundness"
    )
    return OracleResult(
        x_best=best_x, value=best_val, method_trace=trace, certified_radius=note
    )


def solve_global(
    inst: DispersionInstance,
    budget: int = 200_000,
    rng: np.random.Generator | None = None,
) -> OracleResult:
    """Best dispersion value found by the route the input selects.

    A ball with m <= 12 anchors gets the best stationary point over every
    active set, and `budget` and `rng` are unused.  Any other instance gets
    the search, with `budget` feasible samples drawn from `rng`.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if inst.geometry is Geometry.BALL and inst.m <= _STATIONARY_M_CAP:
        return _enumerate(inst)
    return _search(inst, budget, np.random.default_rng(0) if rng is None else rng)
