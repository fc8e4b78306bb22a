"""Enumeration oracle: agreement with certified routes and an independent
multistart reference, hull pruning, the size limit and the budget contract."""

import math
import time
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.spatial import QhullError

from maxdisp import (
    DispersionInstance,
    Geometry,
    NotApplicableError,
    bqp_enumerate,
    build_hardness,
    evaluate,
    evaluate_batch,
    generate_random,
    solve_bqp_relaxcheck,
    solve_cr_ball,
    solve_cr_box,
    solve_exact,
    solve_global,
)
from maxdisp import oracle
from maxdisp.instance import _project
from maxdisp.oracle import _active_sets, _candidate_blocks, _face_points, _padded_sets


def _halfspace_instance(n, m, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, n))
    pts[:, 0] = -np.abs(pts[:, 0])
    w = rng.uniform(0.3, 3.0, m)
    return DispersionInstance(dim=n, points=pts, weights=w, geometry=Geometry.BALL)


def test_matches_exact_solver():
    # on instances the exact route covers, the heuristic must land on the
    # same value: above would contradict optimality, below means a missed basin
    rng = np.random.default_rng(0)
    for k in range(12):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        inst = _halfspace_instance(n, m, 800 + k)
        ex = solve_exact(inst)
        orc = solve_global(inst, budget=20_000, rng=np.random.default_rng(k))
        assert abs(orc.value - ex.value) < 1e-8 * max(1.0, ex.value), (n, m, k)


def test_never_exceeds_relaxation():
    rng = np.random.default_rng(1)
    for k in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 12))
        inst = generate_random(n, m, seed=900 + k)
        rel = solve_cr_ball(inst, tol=1e-9)
        orc = solve_global(inst, budget=10_000, rng=np.random.default_rng(k))
        assert orc.value <= rel.zeta_star + rel.gap + 1e-9 * max(1.0, orc.value)


def test_result_point_is_feasible_and_consistent():
    for geom in (Geometry.BALL, Geometry.BOX):
        inst = generate_random(5, 9, seed=31, geometry=geom)
        orc = solve_global(inst, budget=5_000, rng=np.random.default_rng(2))
        assert inst.contains(orc.x_best)
        assert abs(evaluate(inst, orc.x_best).value - orc.value) < 1e-12 * max(
            1.0, orc.value
        )


def test_zero_budget_still_works():
    # the budget is accepted and unused, and must still be >= 0
    inst = generate_random(4, 7, seed=12, geometry=Geometry.BOX)
    res = solve_global(inst, budget=0, rng=np.random.default_rng(0))
    assert np.isfinite(res.value) and res.value > 0
    assert res.method_trace["samples"] == 0
    with pytest.raises(ValueError):
        solve_global(inst, budget=-1)


def test_box_dominates_corner_enumeration():
    rng = np.random.default_rng(4)
    corners = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
        dtype=float,
    )
    for k in range(6):
        inst = generate_random(3, int(rng.integers(3, 10)), seed=40 + k, geometry=Geometry.BOX)
        corner_best = float(evaluate_batch(inst, corners).max())
        res = solve_global(inst, budget=20_000, rng=np.random.default_rng(k))
        assert res.value >= corner_best - 1e-9 * max(1.0, corner_best)


def test_box_grid_cross_check():
    inst = generate_random(2, 5, seed=21, geometry=Geometry.BOX)
    axis = np.linspace(-1.0, 1.0, 401)
    xs = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    grid_best = float(evaluate_batch(inst, xs).max())
    res = solve_global(inst, budget=30_000, rng=np.random.default_rng(0))
    assert res.value >= grid_best - 1e-4 * max(1.0, grid_best)


_TRACE_KEYS = (
    "samples",
    "stationary_candidates",
    "active_sets",
    "candidates_refined",
    "refine_steps",
    "polish_steps",
    "seconds_stationary",
)


def test_trace_bookkeeping():
    # a box takes the same enumeration as a ball: the corners, then each
    # face's interior roots; the counts of the deleted search read zero
    inst = generate_random(4, 7, seed=3, geometry=Geometry.BOX)
    t0 = time.perf_counter()
    res = solve_global(inst, budget=60_000, rng=np.random.default_rng(7))
    wall = time.perf_counter() - t0
    tr = res.method_trace
    assert set(tr) == set(_TRACE_KEYS)
    assert 0.0 < tr["seconds_stationary"] <= wall
    assert tr["samples"] == tr["candidates_refined"] == tr["refine_steps"] == 0
    assert tr["polish_steps"] == 0
    # one system per face with f >= 1 free coordinates and kept set of
    # exactly f + 1 anchors; the hull keeps fewer than all 7 anchors' subsets
    size = _active_sets(inst)[1]
    assert 0 < size.size < sum(math.comb(7, k) for k in range(1, 6))
    assert tr["active_sets"] == sum(
        math.comb(4, f) * 2 ** (4 - f) * int(np.sum(size == f + 1)) for f in range(1, 5))
    assert tr["stationary_candidates"] >= 2**4  # the corners
    assert res.certified_radius.startswith("enumerated")
    assert res.value == evaluate(inst, res.x_best).value


def test_small_ball_trace_names_the_enumeration():
    inst = generate_random(4, 6, seed=3)
    res = solve_global(inst, budget=60_000, rng=np.random.default_rng(7))
    tr = res.method_trace
    assert set(tr) == set(_TRACE_KEYS)
    assert tr["samples"] == 0 and tr["stationary_candidates"] > 0
    # the sphere systems of every set of at most n + 1 = 5 of the 6 anchors,
    # and the interior systems of the C(6, 5) sets of exactly 5
    assert tr["active_sets"] == sum(math.comb(6, k) for k in range(1, 6)) + math.comb(6, 5)
    assert tr["candidates_refined"] == tr["refine_steps"] == tr["polish_steps"] == 0
    assert res.certified_radius.startswith("enumerated")
    assert f"{tr['stationary_candidates']} stationary points of 68 active sets" in (
        res.certified_radius)
    assert res.value == evaluate(inst, res.x_best).value


def test_relaxcheck_agrees_with_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        M = rng.normal(size=(n, n))
        Q = M @ M.T + n * np.eye(n)
        assert abs(solve_bqp_relaxcheck(Q) - bqp_enumerate(Q)) < 1e-12


@pytest.mark.parametrize(
    "points, weights",
    [
        ([(0, 1, 1), (0, -1, -1)], (9.292, 8.131)),
        ([(3, 0), (-3, 0), (3, 0), (-3, 3)], (3.627, 1.698, 1.324, 8.664)),
    ],
    ids=["antiparallel", "duplicate"],
)
def test_degenerate_anchors_reach_relaxation(points, weights):
    # antiparallel and repeated anchors leave b_0.x constant on a tie set, or
    # make ties repeat; the relaxation is tight on both, and the stationary
    # points alone must close the gap
    pts = np.asarray(points, dtype=float)
    inst = DispersionInstance(
        dim=pts.shape[1], points=pts, weights=np.asarray(weights), geometry=Geometry.BALL
    )
    rel = solve_cr_ball(inst)
    res = solve_global(inst, budget=2000, rng=np.random.default_rng(0))
    assert res.value >= rel.zeta_star * (1.0 - 1e-12)


def test_enumeration_solves_only_sets_of_at_most_n_plus_one(monkeypatch):
    # a stationary point needs at most n + 1 active anchors, so no larger
    # tie set is ever solved; each stacked row repeats its first anchor as
    # padding, so a set's size is its count of distinct anchors
    sizes = []

    def recording_sphere_points(a, B, acts):
        sizes.extend(len(set(row)) for row in acts.tolist())
        return sphere_points(a, B, acts)

    # the oracle's own binding of relax._sphere_points
    sphere_points = oracle._sphere_points
    monkeypatch.setattr(oracle, "_sphere_points", recording_sphere_points)
    inst = generate_random(5, 12, seed=8)
    res = solve_global(inst)
    assert res.method_trace["stationary_candidates"] > 0
    assert sizes and max(sizes) == inst.dim + 1


def _reference_stationary_candidates(inst):
    # the per-set loop the stacked pass replaced, with its own unstacked tie
    # solve, kept verbatim as the reference the stacked pass must match
    # candidate by candidate: the sphere points of every set of at most n + 1
    # anchors, then the interior roots of the sets of exactly n + 1, the only
    # sets that can hold an interior maximum (none when m <= n)
    m, n = inst.m, inst.dim
    P, w = inst.points, inst.weights
    p_sq = np.einsum("ij,ij->i", P, P)
    a, B = w * (1.0 + p_sq), 2.0 * w[:, None] * P
    out = []
    for k in range(1, min(m, n + 1) + 1):
        for A in combinations(range(m), k):
            idx = list(A)
            u, sv, vt = np.linalg.svd(B[idx[1:]] - B[idx[0]])
            rank = int(np.sum(sv > 1e-12 * sv[0])) if sv.size else 0
            c = vt[:rank].T @ ((u[:, :rank].T @ (a[idx[1:]] - a[idx[0]])) / sv[:rank])
            dirs, room = vt[rank:], 1.0 - float(c @ c)
            if room >= 0.0 and len(dirs):
                b0 = B[idx[0]]
                g = dirs @ b0
                gn = float(np.linalg.norm(g))
                flat = gn <= 1e-12 * max(1.0, float(np.linalg.norm(b0)))
                step = math.sqrt(room) * (dirs[0] if flat else dirs.T @ g / gn)
                for x in (c + step, c - step):
                    out.append(x / float(np.linalg.norm(x)))
    k = n + 1
    for A in combinations(range(m), k):
        idx = list(A)
        PA, wA, sqA = P[idx], w[idx], p_sq[idx]
        G = PA.T
        L = -2.0 * (wA[:, None] * PA) @ G
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
    return np.asarray(out)


def test_stacked_enumeration_matches_per_set_loop():
    # anchors in general position, so no tie set is flat (there the sphere
    # step takes an arbitrary direction of the set).  The same candidates
    # come in the same order.  The stacked SVDs round differently from
    # lstsq, and a double root of the u-quadratic passes that rounding
    # through a square root, so points agree to sqrt(eps) times the
    # coefficients' size (1e-6), and the best value to 1e-14 relative.  The
    # loop keeps its textbook root formula; the stacked pass avoids its
    # cancellation (see test_interior_roots_tie_with_nearly_equal_weights).
    rng = np.random.default_rng(12)
    compared = 0
    for k in range(40):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        w = rng.uniform(0.3, 3.0, m) if k % 2 else np.ones(m)
        inst = DispersionInstance(dim=n, points=rng.normal(size=(m, n)), weights=w,
                                  geometry=Geometry.BALL)
        stacked = np.concatenate(
            [pts for pts, _ in _candidate_blocks(inst, *_padded_sets(m, min(m, n + 1)))])
        loop = _reference_stationary_candidates(inst)
        assert stacked.shape == loop.shape, (k, n, m)
        assert np.abs(stacked - loop).max() <= 1e-6, (k, n, m)
        best, best_loop = (float(evaluate_batch(inst, c).max()) for c in (stacked, loop))
        assert abs(best - best_loop) <= 1e-14 * max(1.0, best_loop), (k, n, m)
        compared += len(loop)
    assert compared > 1000


def test_interior_roots_tie_with_nearly_equal_weights():
    # weights 1 and 1 + d make the u-quadratic's leading coefficient about
    # d^2, where the textbook root formula cancels: the interior point of the
    # pair then missed the tie by up to 2.6e-9 relative at d = 1e-7
    P = np.array([[0.3], [-0.5]])
    for d in (1e-3, 1e-5, 1e-7):
        w = np.array([1.0, 1.0 + d])
        pts, ok = _face_points(P, w, np.einsum("ij,ij->i", P, P), 0.0, np.array([[0, 1]]))
        inside = pts[ok][np.abs(pts[ok][:, 0]) <= 1.0]
        assert len(inside) == 1, d
        terms = w * ((inside[0] - P) ** 2).sum(axis=1)
        assert abs(terms[0] - terms[1]) <= 1e-14 * terms.max(), d


_FAMILIES = ("duplicate", "antiparallel", "cospherical", "integer", "hardness", "weighted")


def _family_instance(family, n, m, seed, geometry=Geometry.BALL):
    """An instance with m anchors in R^n of one degenerate family; unit
    weights except "weighted".  "hardness" takes n as the partition size and
    emits its 2n anchors +-L_i of one norm."""
    rng = np.random.default_rng(seed)
    if family == "hardness":
        inst = build_hardness(rng.integers(1, 9, size=n)).instance
        return DispersionInstance(inst.dim, inst.points, inst.weights, geometry)
    pts = rng.normal(size=(m, n))
    w = rng.uniform(0.3, 3.0, m) if family == "weighted" else np.ones(m)
    if family == "duplicate":
        pts[-1] = pts[0]
    elif family == "antiparallel":
        pts[-1] = -pts[0]
    elif family == "cospherical":  # the center ties every anchor
        pts *= 3.0 / np.linalg.norm(pts, axis=1, keepdims=True)
    elif family == "integer":
        pts = rng.integers(-2, 3, size=(m, n)).astype(float)
    return DispersionInstance(dim=n, points=pts, weights=w, geometry=geometry)


def _feasible_batch(inst, count, rng):
    """count feasible points drawn without the oracle: half on the sphere and
    half uniform in the ball, or half corners and half uniform in the box."""
    n, half = inst.dim, count // 2
    if inst.geometry is Geometry.BALL:
        pts = rng.standard_normal((count, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts[half:] *= rng.uniform(0.0, 1.0, size=(count - half, 1)) ** (1.0 / n)
        return pts
    pts = rng.uniform(-1.0, 1.0, size=(count, n))
    pts[:half] = np.where(pts[:half] < 0.0, -1.0, 1.0)
    return pts


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(_FAMILIES), geom=st.sampled_from([Geometry.BALL, Geometry.BOX]),
       n=st.integers(1, 5), m=st.integers(1, 30), seed=st.integers(0, 2**16))
def test_enumeration_between_feasible_batch_and_relaxation_bound(family, geom, n, m, seed):
    # the relaxation bounds the optimum from above, and a fixed feasible
    # batch, drawn without the oracle, bounds it from below; the degenerate
    # families give the stacked pass rank-deficient and padded systems, and
    # the hull degenerate facets.  Boxes keep to the test shapes, m <= 9.
    inst = _family_instance(family, n, m if geom is Geometry.BALL else min(m, 9), seed, geom)
    res = solve_global(inst)
    assert res.certified_radius.startswith("enumerated")
    rel = (solve_cr_ball if geom is Geometry.BALL else solve_cr_box)(inst, tol=1e-12)
    scale = max(1.0, res.value)
    assert res.value <= rel.zeta_star + rel.gap + 1e-12 * scale
    batch = _feasible_batch(inst, 4096, np.random.default_rng(0))
    assert res.value >= float(evaluate_batch(inst, batch).max()) - 1e-12 * scale


@pytest.mark.parametrize("family", _FAMILIES)
def test_pruned_equals_every_set(family, monkeypatch):
    # a failing Qhull keeps every set, which is the reference the lower-hull
    # pruning must match; anchors of one norm and one weight (cospherical,
    # hardness) leave the last axis out of the lifted span and keep every set
    cases = [(_family_instance(family, n, m, 100 * n + m, geom), geom)
             for n, m, geom in ((2, 9, Geometry.BALL), (3, 14, Geometry.BALL),
                                (4, 16, Geometry.BALL), (3, 9, Geometry.BOX))]
    pruned = [solve_global(inst) for inst, _ in cases]

    def failing_hull(*args, **kwargs):
        raise QhullError("forced")

    monkeypatch.setattr(oracle, "ConvexHull", failing_hull)
    for (inst, geom), res in zip(cases, pruned):
        every = solve_global(inst)
        # equal up to the rounding of one point reached from different sets
        assert abs(res.value - every.value) <= 1e-13 * every.value, (family, inst.m, geom)
        kept, total = res.method_trace["active_sets"], every.method_trace["active_sets"]
        if family in ("cospherical", "hardness"):
            assert kept == total
        else:
            assert kept < total


def _every_small_set_system(inst):
    """solve_global's value and x_best, and every candidate, when every face
    solves the interior systems of every kept set of at most |F| + 1
    anchors, one unpadded _face_points call per set size; scored in one batch."""
    P, w, n = inst.points, inst.weights, inst.dim
    sets, size = _active_sets(inst)
    p_sq = np.einsum("ij,ij->i", P, P)
    ball = inst.geometry is Geometry.BALL
    if ball:
        a, B = w * (1.0 + p_sq), 2.0 * w[:, None] * P
        c, step, on_sphere = oracle._sphere_points(a, B, sets)
        X = np.stack([c + step, c - step], axis=1)[on_sphere]
        X /= np.sqrt((X[:, :, None, :] @ X[:, :, :, None])[:, :, 0, 0])[:, :, None]
        cands = [X.reshape(-1, n)]
    else:
        cands = [np.array(list(product((-1.0, 1.0), repeat=n)))]
    for k in range(1 if ball else n):
        for J, sigma in product(combinations(range(n), k), product((-1.0, 1.0), repeat=k)):
            J, F = list(J), [j for j in range(n) if j not in J]
            c = p_sq - 2.0 * (P[:, J] @ np.array(sigma))
            for r in range(1, len(F) + 2):
                if not np.any(size == r):
                    continue
                inner, ok = _face_points(P[:, F], w, c, float(k), sets[size == r, :r])
                if ball:
                    nrm = np.sqrt((inner[:, :, None, :] @ inner[:, :, :, None])[:, :, 0, 0])
                    ok &= nrm <= 1.0 + 1e-9
                    x = inner / np.maximum(1.0, nrm)[:, :, None]
                else:
                    ok &= np.abs(inner).max(axis=2) <= 1.0 + 1e-9
                    x = np.empty(inner.shape[:2] + (n,))
                    x[:, :, F], x[:, :, J] = np.clip(inner, -1.0, 1.0), sigma
                cands.append(x[ok])
    X = np.concatenate(cands)
    best = X[int(np.argmax(evaluate_batch(inst, X)))]
    return evaluate(inst, best).value, best, X


@pytest.mark.parametrize("family", _FAMILIES)
def test_skipped_interior_systems_leave_the_result(family):
    # only a set of exactly |F| + 1 anchors can hold a maximum inside a face
    # with free coordinates F, so smaller sets' interior systems are skipped,
    # and so is every interior system on a face with m <= |F| (a ball with
    # m <= n, the box's faces of dimension m and above).  Solving them anyway
    # adds candidates but never removes one: every candidate is, byte for
    # byte, one of the reference's.  On a ball with m <= n value and x_best
    # stay bit-equal; elsewhere a smaller set's interior point can round the
    # same maximum differently, by at most 4 ulp.  "hardness" has m = 2n.
    for n, m, geom in ((5, 4, Geometry.BALL), (6, 6, Geometry.BALL), (3, 9, Geometry.BALL),
                       (4, 3, Geometry.BOX), (3, 3, Geometry.BOX), (3, 6, Geometry.BOX)):
        inst = _family_instance(family, n, m, 10 * n + m, geom)
        res = solve_global(inst)
        value, x_best, every = _every_small_set_system(inst)
        case = (family, n, m, geom)
        found = np.concatenate([pts for pts, _ in _candidate_blocks(inst, *_active_sets(inst))])
        assert len(found) == res.method_trace["stationary_candidates"] <= len(every), case
        assert {x.tobytes() for x in found} <= {x.tobytes() for x in every}, case
        if geom is Geometry.BALL and inst.m <= n:
            assert res.value == value and res.x_best.tobytes() == x_best.tobytes(), case
        else:
            assert abs(res.value - value) <= 4 * np.finfo(float).eps * value, case


def test_interior_systems_only_on_faces_with_more_anchors(monkeypatch):
    # _face_points runs only on faces with |F| < m, each with its sets of
    # exactly |F| + 1 distinct anchors; a ball with m <= n never calls it
    calls = []

    def recording_face_points(P, w, c, shift, sets):
        calls.append((P.shape[1], sets.shape[1], {len(set(r)) for r in sets.tolist()}))
        return face_points(P, w, c, shift, sets)

    face_points = oracle._face_points
    monkeypatch.setattr(oracle, "_face_points", recording_face_points)
    for n in (2, 6, 10):
        assert solve_global(generate_random(n, n, seed=8)).method_trace["active_sets"] > 0
    assert calls == []
    solve_global(generate_random(5, 12, seed=8))
    assert calls and all(call == (5, 6, {6}) for call in calls)
    calls.clear()
    solve_global(generate_random(5, 3, seed=8, geometry=Geometry.BOX))
    assert {f for f, _, _ in calls} == {1, 2}  # the faces with |F| < m = 3
    assert all(k == f + 1 and distinct == {f + 1} for f, k, distinct in calls)


def _slsqp_best(inst, starts, rng):
    """Best feasible value SLSQP reaches on the epigraph form (maximize t
    subject to w_i ||x - p_i||^2 >= t and the region) from random feasible
    starts; each end point is projected onto the region and evaluated."""
    n, P, w = inst.dim, inst.points, inst.weights
    ball = inst.geometry is Geometry.BALL
    cons = [{"type": "ineq",
             "fun": lambda z: w * np.einsum("ij,ij->i", z[:n] - P, z[:n] - P) - z[n],
             "jac": lambda z: np.column_stack([2.0 * w[:, None] * (z[:n] - P), -np.ones(len(w))])}]
    if ball:
        cons.append({"type": "ineq", "fun": lambda z: 1.0 - z[:n] @ z[:n],
                     "jac": lambda z: np.r_[-2.0 * z[:n], 0.0]})
    best = -np.inf
    for x0 in _feasible_batch(inst, starts, rng):
        res = minimize(lambda z: -z[n], np.r_[x0, evaluate(inst, x0).value],
                       jac=lambda z: np.r_[np.zeros(n), -1.0], method="SLSQP",
                       bounds=[(-1.0, 1.0)] * n + [(None, None)], constraints=cons)
        best = max(best, evaluate(inst, _project(res.x[:n], ball)).value)
    return best


def test_enumeration_never_below_multistart_slsqp():
    # an independent local method from 32 starts: any value it reaches is
    # feasible, so the enumeration's best stationary point must not be below it
    rng = np.random.default_rng(77)
    for k in range(16):
        geom = (Geometry.BALL, Geometry.BOX)[k % 2]
        n = int(rng.integers(2, 6))
        m = int(rng.integers(3, 31 if geom is Geometry.BALL else 10))
        w = rng.uniform(0.3, 3.0, m) if k % 4 >= 2 else np.ones(m)
        inst = DispersionInstance(n, rng.uniform(-1.0, 1.0, size=(m, n)), w, geom)
        ref = _slsqp_best(inst, 32, rng)
        assert solve_global(inst).value >= ref * (1.0 - 1e-12), (k, geom, n, m)
