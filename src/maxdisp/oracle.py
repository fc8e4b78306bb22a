"""Global oracle for desk-scale instances: the best stationary point.

solve_global enumerates the stationary points of the maximin objective and
returns the best.  A local maximum x has an active set, the anchors whose
terms w_i ||x - p_i||^2 attain the minimum there; by Caratheodory at most
n + 1 of them make x stationary.  Inside a face with free coordinates F
(the open ball has |F| = n), |F| + 1 of them span the face: else a face
direction d has every (x - p_i).d over the active set equal, to 0, where d
raises every active term, or to 1, where it raises them to first order.

Most sets can never be active (Edelsbrunner & Seidel's lifting map).  With
s = ||x||^2 every term is affine in (x, s): it equals q_i . (x, s, 1) with
q_i = (-2 w_i p_i, w_i, w_i ||p_i||^2).  The active set at any x is the face
of conv{q_i} that minimizes the functional (x, s, 1), whose last component
is 1, so it lies in a facet whose outer normal has a negative last
component: a lower facet.  Only the subsets of lower facets are solved.  The
hull comes from Qhull (scipy.spatial.ConvexHull).

On the ball each set gives the two sphere points c +- step of its tie set,
by the rule (relax._sphere_points) whose c and c - step the relaxation
scores; that geometry is kept between calls by instance._kept.  On the box
each face, its J fixed at signs sigma, gives interior points in its free
coordinates F, and the 2^n corners are candidates too.
The ball is the one face with F = all coordinates.  Each face solves the
interior systems of its sets of exactly |F| + 1 anchors, so only faces with
|F| < m solve any: none on a ball with m <= n.  Such a system is the set's
ties, linear in (x_F, t) at fixed u = ||x||^2; its matrix depends on F and
the set alone, so one factorization serves all 2^|J| faces that fix J, and a
stacked pass holds at most _BLOCK (set, sign pattern) systems.  Instances with
more than _MAX_SYSTEMS (face, set) systems before pruning are refused: the
protocol's m = 30 (768,211) and the hardness instances up to n = 10
(784,625) fit under it.

The result is a reference value, not a certificate; tests always pair it
with the relaxation upper bound.  method_trace holds the counts (systems
solved, candidates) and the enumeration's seconds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .instance import DispersionInstance, Geometry, _value, evaluate_batch
from .relax import _TABLES, _distinct_rows, _padded_sets, _sphere_points

__all__ = ["OracleResult", "solve_global"]

_MAX_SYSTEMS = 1_000_000
_BLOCK = 8192


@dataclass(frozen=True)
class OracleResult:
    """Best stationary point found, with a trace of how it was found.

    certified_radius is an informal quality note; nothing here is a proof of
    optimality.
    """

    x_best: np.ndarray
    value: float
    method_trace: dict
    certified_radius: str


@lru_cache(maxsize=_TABLES)
def _combos(c, k):
    """Every k-subset of range(c) as the rows of one index array, in combinations order."""
    return np.array(list(combinations(range(c), k)), dtype=np.intp)


def _system_count(inst):
    """The count the 10^6 refusal reads, not the work done: every set of at
    most |F| + 1 anchors on each face with |F| >= 1 free coordinates."""
    n, m = inst.dim, inst.m

    def per_face(f):
        return sum(math.comb(m, k) for k in range(1, min(m, f + 1) + 1))

    if inst.geometry is Geometry.BALL:
        return per_face(n)
    return sum(math.comb(n, f) * 2 ** (n - f) * per_face(f) for f in range(1, n + 1))


def _active_sets(inst):
    """The active sets to solve, as _padded_sets returns them: the subsets of at
    most K = min(m, n + 1) anchors of the lower facets of the lifted points q_i.

    The q_i are first reduced to their affine hull.  Every subset is kept when
    they form a simplex (always when m <= n + 2), when the last axis leaves
    their span (then no facet is "lower": anchors of one norm and one weight),
    and when Qhull fails; only the m <= n + 2 table is cached, every fallback
    below it is built uncached, one-off and up to tens of MB.  Qhull
    triangulates a facet with more than rank vertices; the pieces share their
    equation, which merges them back.
    """
    m, n = inst.m, inst.dim
    K = min(m, n + 1)
    if m <= n + 2:
        return _padded_sets(m, K)
    P, w = inst.points, inst.weights
    q = np.column_stack([-2.0 * w[:, None] * P, w, w * np.einsum("ij,ij->i", P, P)])
    _, sv, vt = np.linalg.svd(q[1:] - q[0])
    rank = int(np.sum(sv > max(m, n + 2) * np.finfo(float).eps * sv[0]))
    # rank < 2 leaves the last axis out too: q_i that differ only there would
    # have equal w_i and p_i, hence equal q_i
    if m <= rank + 1 or rank < 2 or np.linalg.norm(vt[rank:, -1]) > 1e-9:
        return _padded_sets.__wrapped__(m, K)
    try:
        hull = ConvexHull((q - q[0]) @ vt[:rank].T)
    except QhullError:
        return _padded_sets.__wrapped__(m, K)
    # vertical facets (last normal component 0 up to rounding) are kept too
    lower = hull.equations[:, :rank] @ vt[:rank, -1] < 1e-9
    facets = {}
    for eq, simplex in zip(hull.equations[lower], hull.simplices[lower]):
        facets.setdefault(eq.tobytes(), set()).update(simplex.tolist())
    by_count = {}
    for verts in facets.values():
        by_count.setdefault(len(verts), []).append(sorted(verts))
    idx, size = [], []
    for k in range(1, K + 1):
        parts = [np.asarray(rows)[:, _combos(c, k)].reshape(-1, k)
                 for c, rows in by_count.items() if c >= k]
        if not parts:
            break
        rows = np.concatenate(parts)
        sets = rows[_distinct_rows(rows)]  # sorted: combinations order
        idx.append(np.column_stack([sets, np.repeat(sets[:, :1], K - k, axis=1)]))
        size.append(np.full(len(sets), k, dtype=np.intp))
    return np.concatenate(idx), np.concatenate(size)


def _face_points(P, w, C, shift, sets):
    """Each set's interior stationary points on one face, in its free
    coordinates F, for each row c of C (one per sign pattern sigma).

    Every term is w_i (u - 2 p_i.x + c_i) with u = ||x||^2 + shift (c_i =
    ||p_i||^2 - 2 p_iJ.sigma and shift |J| on a box face; c_i = ||p_i||^2 and
    shift 0 on the ball).  At fixed u the K = |F| + 1 ties are the rows
    [-2 w_i p_i, -1] . (x, t) = -w_i c_i - w_i u, so x = x0 + u x1, and u is a
    root of ||x0 + u x1||^2 + shift = u.  One SVD per set (cutoff eps K s_0)
    takes every c and the u column as right-hand sides.  Returns the two root
    points per (c, set), shape (len(C), len(sets), 2, |F|), and which roots
    are real with u >= shift; the caller checks the region.  Spurious roots
    are harmless: every candidate is scored by a full evaluation.
    """
    count, K = sets.shape
    wA = w[sets][:, :, None]
    T = np.concatenate([-2.0 * wA * P[sets], np.full((count, K, 1), -1.0)], axis=2)
    rhs = -wA * np.concatenate([C.T[sets], np.ones((count, K, 1))], axis=2)
    left, sv, right = np.linalg.svd(T)
    keep = sv > np.finfo(float).eps * K * sv[:, :1]
    z = np.einsum("sji,sjc->sic", left, rhs) / np.where(keep, sv, np.inf)[:, :, None]
    x = np.einsum("sji,sjc->sci", right[:, :, : K - 1], z)  # the x of each (x, t)
    x0, x1 = x[:, :-1].transpose(1, 0, 2), x[:, -1]
    qa = np.einsum("sn,sn->s", x1, x1)
    qb = 2.0 * np.einsum("csn,sn->cs", x0, x1) - 1.0
    qc = np.einsum("csn,csn->cs", x0, x0) + shift
    disc = qb * qb - 4.0 * qa * qc
    # the root pair without cancellation, larger first; q / qa is infinite
    # when qa = 0, and qc / q is then the root of the linear equation
    q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(disc, 0.0)), qb))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.sort(np.stack([qc / q, q / qa], axis=-1), axis=-1)[..., ::-1]
    ok = (disc >= 0.0)[..., None] & np.isfinite(u) & (u >= shift - 1e-12)
    u = np.where(ok, np.maximum(u, shift), shift)
    return x0[:, :, None] + u[..., None] * x1[:, None], ok


def _candidate_blocks(inst, sets, size):
    """The candidate points block by block, each with its count of systems
    solved: on the ball the two sphere points of every set, on the box the
    corners; then the interior roots of each face with |F| < m, from its sets
    of exactly |F| + 1 anchors, all sign patterns of one J in one call per
    block of max(1, _BLOCK >> |J|) sets.  The ball is the one face J = ()."""
    P, w, n = inst.points, inst.weights, inst.dim
    p_sq = np.einsum("ij,ij->i", P, P)
    ball = inst.geometry is Geometry.BALL
    if ball:
        a, B = w * (1.0 + p_sq), 2.0 * w[:, None] * P
        for s in range(0, len(sets), _BLOCK):
            c, step, on_sphere = _sphere_points(a, B, sets[s : s + _BLOCK])
            X = np.concatenate([c + step, c - step], axis=1).reshape(-1, 2, n)[on_sphere]
            # as row-vector products, which round as np.linalg.norm of one vector
            X /= np.sqrt((X[:, :, None, :] @ X[:, :, :, None])[:, :, 0, 0])[:, :, None]
            yield X.reshape(-1, n), len(c)
    else:
        yield np.array(list(product((-1.0, 1.0), repeat=n))), 0
    for k in range(max(0, n - inst.m + 1), 1 if ball else n):  # |J| = k, |F| = n - k < m
        kept = sets[size == n - k + 1, : n - k + 1]  # sets of exactly |F| + 1
        signs = np.array(list(product((-1.0, 1.0), repeat=k)))  # (1, 0) on the ball
        per = max(1, _BLOCK >> k)
        for J in combinations(range(n), k):
            J, F = list(J), [j for j in range(n) if j not in J]
            C = p_sq - 2.0 * signs @ P[:, J].T
            for s in range(0, len(kept), per):
                inner, ok = _face_points(P[:, F], w, C, float(k), kept[s : s + per])
                if ball:  # roots into the ball
                    nrm = np.sqrt((inner[..., None, :] @ inner[..., :, None])[..., 0, 0])
                    ok &= nrm <= 1.0 + 1e-9
                    x = inner / np.maximum(1.0, nrm)[..., None]
                else:
                    ok &= np.abs(inner).max(axis=-1) <= 1.0 + 1e-9
                    x = np.empty(inner.shape[:-1] + (n,))
                    x[..., F], x[..., J] = np.clip(inner, -1.0, 1.0), signs[:, None, None]
                yield x[ok], ok[..., 0].size


def solve_global(
    inst: DispersionInstance,
    budget: int = 200_000,
    rng: np.random.Generator | None = None,
) -> OracleResult:
    """Best stationary point over the active sets the lifted hull keeps.

    Interior systems run only for sets of exactly |F| + 1 anchors, the only
    sets that can hold a maximum inside a face with free coordinates F (none
    on a ball with m <= n).  `budget` and `rng` are accepted and unused; a
    negative budget still raises.  An instance with more than 10^6 (face, set)
    systems before pruning raises ValueError.  method_trace["active_sets"]
    counts the systems solved, sphere and interior alike; the
    certified_radius note counts the sets kept.  Among candidates of equal
    value the first in enumeration order wins.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    systems = _system_count(inst)
    if systems > _MAX_SYSTEMS:
        raise ValueError(f"the enumeration needs {systems:,} active-set systems, "
                         f"above its limit of {_MAX_SYSTEMS:,}")
    t0 = time.perf_counter()
    best_x, best_v, found, solved = None, -math.inf, 0, 0
    idx, size = _active_sets(inst)
    for points, count in _candidate_blocks(inst, idx, size):
        solved += count
        found += len(points)
        if len(points):
            vals = evaluate_batch(inst, points)
            i = int(np.argmax(vals))
            if vals[i] > best_v:
                best_x, best_v = points[i].copy(), vals[i]
    # the deleted search's four counts stay, at zero: perfbench/harness.py reads them
    trace = {"samples": 0, "stationary_candidates": found, "active_sets": solved,
             "candidates_refined": 0, "refine_steps": 0, "polish_steps": 0,
             "seconds_stationary": time.perf_counter() - t0}
    note = (
        f"enumerated: best of {found} stationary points of {len(idx)} active "
        "sets; pair with a relaxation upper bound for soundness"
    )
    return OracleResult(x_best=best_x, value=_value(inst, best_x), method_trace=trace,
                        certified_radius=note)
