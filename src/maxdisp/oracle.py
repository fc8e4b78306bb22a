"""Brute-force search oracle for desk-scale instances.

solve_global maximizes the dispersion objective by dense feasible sampling
followed by deterministic local ascent from the most promising candidates.
The ascent exploits the objective's structure: along any segment inside the
feasible region every term w_i ||x + t d - p_i||^2 is an upward parabola in
t, so the exact maximum of their minimum over the segment sits at a segment
endpoint or at a crossing of two parabolas, all of which are enumerable.

The result is a heuristic ground truth, not a certificate; tests always pair
it with the relaxation upper bound.  Intended for small dimensions (n <= 6
is comfortable; the hardness reduction uses it up to n around 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from .instance import DispersionInstance, Geometry, evaluate_batch
from .tail import sample_sphere

__all__ = ["OracleResult", "solve_global"]

_CHUNK = 50_000
_TOP_PER_CHUNK = 8
_REFINE_ROUNDS = 60
_NEAR_ACTIVE_TARGETS = 6
_GAIN_TOL = 1e-13
_STATIONARY_M_CAP = 12


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

    def far_point(v):
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            return None
        if inst.geometry is Geometry.BALL:
            return -v / nrm
        out = -np.sign(v)
        out[out == 0.0] = 1.0
        return out

    wp = inst.weights[:, None] * inst.points
    for row in wp:
        s = far_point(row)
        if s is not None:
            seeds.append(s)
    m = inst.m
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    if len(pairs) <= 300:
        for i, j in pairs:
            s = far_point(wp[i] + wp[j])
            if s is not None:
                seeds.append(s)
    if m <= 14:
        for i in range(m):
            for j in range(i + 1, m):
                for k in range(j + 1, m):
                    s = far_point(wp[i] + wp[j] + wp[k])
                    if s is not None:
                        seeds.append(s)
    return seeds


def _stationary_candidates(inst):
    """Every stationary point of the maximin objective on the ball, by
    enumerating active subsets (ball geometry, m <= _STATIONARY_M_CAP).

    A local maximum with active anchors A either sits on the sphere, where
    stationarity forces x into span{p_i : i in A} and the equalization
    equations are linear in the span coefficients and the common value v
    (leaving a one-parameter family to intersect with the sphere), or in the
    interior, where x is an affine combination of the anchors and the only
    nonlinearity is the scalar u = ||x||^2, determined by a quadratic.  Sign
    conditions on the multipliers are not checked; spurious candidates are
    harmless because every candidate is scored by a full evaluation.
    """
    m = inst.m
    P, w = inst.points, inst.weights
    p_sq = np.einsum("ij,ij->i", P, P)
    out = []
    for k in range(1, m + 1):
        for A in combinations(range(m), k):
            idx = list(A)
            PA, wA, sqA = P[idx], w[idx], p_sq[idx]
            G = PA.T  # span basis, n x k
            L = -2.0 * (wA[:, None] * PA) @ G  # k x k

            # sphere branch: [L | -1] z = -wA (1 + |p|^2), z = (y, v)
            M = np.hstack([L, -np.ones((k, 1))])
            rhs = -(wA * (1.0 + sqA))
            z0, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            null = null_space(M)
            if null.shape[1] >= 1:
                zd = null[:, 0]
                x0 = G @ z0[:k]
                xd = G @ zd[:k]
                qa = float(xd @ xd)
                qb = 2.0 * float(x0 @ xd)
                qc = float(x0 @ x0) - 1.0
                if qa > 1e-16:
                    disc = qb * qb - 4.0 * qa * qc
                    if disc >= 0.0:
                        sq = math.sqrt(disc)
                        for t in ((-qb + sq) / (2 * qa), (-qb - sq) / (2 * qa)):
                            x = x0 + t * xd
                            nrm = float(np.linalg.norm(x))
                            if nrm > 0.0:
                                out.append(x / nrm)
                elif qc <= 0.0:
                    nrm = float(np.linalg.norm(x0))
                    if nrm > 0.0:
                        out.append(x0 / nrm)

            # interior branch: x = PA^T theta, sum theta = 1, u = |x|^2
            M2 = np.zeros((k + 1, k + 1))
            M2[:k, :k] = L
            M2[:k, k] = -1.0
            M2[k, :k] = 1.0
            r_const = np.concatenate([-(wA * sqA), [1.0]])
            r_lin = np.concatenate([-wA, [0.0]])
            z0, *_ = np.linalg.lstsq(M2, r_const, rcond=None)
            z1, *_ = np.linalg.lstsq(M2, r_lin, rcond=None)
            x0 = G @ z0[:k]
            x1 = G @ z1[:k]
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
                nrm = float(np.linalg.norm(x))
                if nrm <= 1.0 + 1e-9:
                    out.append(x if nrm <= 1.0 else x / nrm)
    return out


def _far_target(inst, x, anchor):
    """Feasible point maximizing the distance to one anchor (ball antipode or far corner)."""
    if inst.geometry is Geometry.BALL:
        nrm = float(np.linalg.norm(anchor))
        if nrm == 0.0:
            xn = float(np.linalg.norm(x))
            return x / xn if xn > 0.0 else None
        return -anchor / nrm
    target = -np.sign(anchor)
    zero = anchor == 0.0
    if np.any(zero):
        fill = np.sign(x)
        fill[fill == 0.0] = 1.0
        target = np.where(zero, fill, target)
    return target


def _segment_max(inst, x, d):
    """Exact maximum of the objective along x + t d, t in [0, 1].

    Enumerates 0, 1, and all pairwise crossing points of the per-anchor
    parabolas; for very large m, crossings are only enumerated among the 40
    currently smallest terms and a uniform fallback grid is added.
    """
    w = inst.weights
    diff = x - inst.points  # (m, n)
    a = w * float(d @ d)
    b = 2.0 * w * (diff @ d)
    c = w * np.einsum("ij,ij->i", diff, diff)

    if len(w) > 40:
        keep = np.argsort(c)[:40]
        ts = [np.linspace(0.0, 1.0, 257)]
    else:
        keep = np.arange(len(w))
        ts = [np.array([0.0, 1.0])]
    ii, jj = np.triu_indices(keep.size, k=1)
    ii, jj = keep[ii], keep[jj]
    qa = a[ii] - a[jj]
    qb = b[ii] - b[jj]
    qc = c[ii] - c[jj]
    lin = np.abs(qa) <= 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lin = np.where(np.abs(qb) > 0.0, -qc / qb, np.nan)
        disc = qb * qb - 4.0 * qa * qc
        sq = np.sqrt(np.maximum(disc, 0.0))
        t_plus = (-qb + sq) / (2.0 * qa)
        t_minus = (-qb - sq) / (2.0 * qa)
    roots = np.concatenate(
        [t_lin[lin], t_plus[~lin & (disc >= 0.0)], t_minus[~lin & (disc >= 0.0)]]
    )
    roots = roots[np.isfinite(roots)]
    ts.append(roots[(roots > 0.0) & (roots < 1.0)])
    ts.append(np.array([0.0, 1.0]))
    t_all = np.unique(np.concatenate(ts))
    vals = np.min(
        a[:, None] * t_all[None, :] ** 2 + b[:, None] * t_all[None, :] + c[:, None],
        axis=0,
    )
    k = int(np.argmax(vals))
    return float(t_all[k]), float(vals[k])


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
        dd = float(d @ d)
        if dd == 0.0:
            return 0.0
        xd = float(x @ d)
        slack = max(0.0, 1.0 - float(x @ x))
        return (-xd + math.sqrt(max(xd * xd + dd * slack, 0.0))) / dd
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
                val = float(
                    np.min(w * np.einsum("ij,ij->i", x - inst.points, x - inst.points))
                )
        scale = max(1.0, abs(val))
        d = _steepest_direction(inst, x, scale)
        if d is None:
            break
        t_max = _max_feasible_step(inst, x, d)
        if t_max <= 1e-14:
            break
        t, v = _segment_max(inst, x, t_max * d)
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
    val = float(
        np.min(w * np.einsum("ij,ij->i", x - inst.points, x - inst.points))
    )
    steps = 0
    for _ in range(_REFINE_ROUNDS):
        diff = x - inst.points
        order = np.argsort(w * np.einsum("ij,ij->i", diff, diff))
        targets = []
        for idx in order[:_NEAR_ACTIVE_TARGETS]:
            t = _far_target(inst, x, inst.points[idx])
            if t is not None:
                targets.append(t)
        if inst.geometry is Geometry.BALL:
            xn = float(np.linalg.norm(x))
            if 1e-12 < xn < 1.0:
                targets.append(x / xn)  # radial push to the sphere
        else:
            corner = np.sign(x)
            corner[corner == 0.0] = 1.0
            targets.append(corner)
        best_gain = 0.0
        best_move = None
        for target in targets:
            d = target - x
            if float(d @ d) < 1e-24:
                continue
            t, v = _segment_max(inst, x, d)
            if v > val + best_gain:
                best_gain = v - val
                best_move = x + t * d
        if best_move is None or best_gain <= _GAIN_TOL * max(1.0, abs(val)):
            break
        x = best_move
        val += best_gain
        steps += 1
    return x, val, steps


def solve_global(
    inst: DispersionInstance,
    budget: int = 200_000,
    rng: np.random.Generator | None = None,
) -> OracleResult:
    """Best dispersion value found by sampling `budget` feasible points plus ascent.

    Sampling is consumed in fixed 50k chunks so that enlarging the budget
    with the same generator extends, rather than reshuffles, the draw stream:
    method_trace["best_sampled"] is non-decreasing in the budget for a fixed
    seed. The perturbation stage afterwards also consumes the generator, so
    the final value is usually, but not provably, budget-monotone; it never
    falls below best_sampled.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if rng is None:
        rng = np.random.default_rng(0)

    seeds = _seed_candidates(inst)
    seed_vals = evaluate_batch(inst, np.asarray(seeds))
    keep = np.argsort(seed_vals)[-40:]
    candidates = [seeds[int(i)] for i in keep]
    best_x = seeds[0]
    best_val = float(seed_vals[0])

    stationary = 0
    if inst.geometry is Geometry.BALL and inst.m <= _STATIONARY_M_CAP:
        points = _stationary_candidates(inst)
        stationary = len(points)
        if points:
            vals = evaluate_batch(inst, np.asarray(points))
            hi = int(np.argmax(vals))
            candidates.append(points[hi].copy())
            if vals[hi] > best_val:
                best_val = float(vals[hi])
                best_x = points[hi].copy()

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

    # the LP-driven stage is costlier, so only the strongest finishers get it,
    # each with a perturbation cascade to escape shallow neighboring basins.
    # When the active-set enumeration above was exhaustive the landscape is
    # already covered and the cascade would only re-discover the same maxima,
    # so it is skipped and the LP polish kept for the two best finishers.
    exhaustive = stationary > 0
    polish_steps = 0
    for val, x in refined[: 2 if exhaustive else 6]:
        x2, val2, steps = _steepest_refine(inst, x, val)
        polish_steps += steps
        if val2 > best_val:
            best_val = val2
            best_x = x2.copy()
        if exhaustive:
            continue
        for radius in (0.08, 0.25):
            for _ in range(4):
                hop = x2 + radius * rng.standard_normal(inst.dim)
                if inst.geometry is Geometry.BALL:
                    hn = float(np.linalg.norm(hop))
                    if hn > 1.0:
                        hop /= hn
                else:
                    hop = np.clip(hop, -1.0, 1.0)
                x3, val3, s3 = _ascend(inst, hop)
                if val3 > best_val - 1e-9 * max(1.0, abs(best_val)):
                    x3, val3, s4 = _steepest_refine(inst, x3, val3)
                    polish_steps += s3 + s4
                    if val3 > best_val:
                        best_val = val3
                        best_x = x3.copy()
    trace = {
        "samples": sampled,
        "best_sampled": best_sampled,
        "stationary_candidates": stationary,
        "candidates_refined": len(candidates),
        "refine_steps": refine_steps,
        "polish_steps": polish_steps,
    }
    note = (
        f"heuristic: best of {sampled} samples and {len(candidates)} refined "
        "starts; pair with a relaxation upper bound for soundness"
    )
    return OracleResult(
        x_best=best_x, value=best_val, method_trace=trace, certified_radius=note
    )
