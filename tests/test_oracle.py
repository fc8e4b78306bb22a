"""Heuristic global oracle: agreement with certified routes, budget contract."""

import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    solve_exact,
    solve_global,
)
from maxdisp import oracle
from maxdisp.instance import _project
from maxdisp.oracle import (
    _far_target,
    _feasible_samples,
    _search,
    _segment_max,
    _stationary_candidates,
)


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


def test_sampled_best_monotone_in_budget():
    inst = generate_random(6, 18, seed=55)
    prev = -np.inf
    for budget in (0, 50_000, 100_000, 200_000):
        res = solve_global(inst, budget=budget, rng=np.random.default_rng(3))
        tr = res.method_trace
        assert tr["samples"] == budget
        assert tr["best_sampled"] >= prev
        assert res.value >= tr["best_sampled"]
        prev = tr["best_sampled"]


def test_zero_budget_still_works():
    # a box instance takes the search route, where the budget is used
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


_STAGES = ("seeds", "stationary", "sampling", "ascent", "polish")
_TRACE_KEYS = (
    "samples",
    "best_sampled",
    "stationary_candidates",
    "active_sets",
    "candidates_refined",
    "refine_steps",
    "polish_steps",
) + tuple(f"seconds_{s}" for s in _STAGES)


def test_trace_bookkeeping():
    # m > 12 on the ball takes the search route, so every stage runs but the
    # enumeration
    inst = generate_random(4, 13, seed=3)
    t0 = time.perf_counter()
    res = solve_global(inst, budget=60_000, rng=np.random.default_rng(7))
    wall = time.perf_counter() - t0
    tr = res.method_trace
    assert set(tr) == set(_TRACE_KEYS)
    stages = [tr[f"seconds_{s}"] for s in _STAGES]
    assert min(stages) >= 0.0
    assert sum(stages) <= wall
    assert tr["samples"] == 60_000 and tr["stationary_candidates"] == 0
    assert tr["active_sets"] == 0
    assert tr["candidates_refined"] > 0 and tr["refine_steps"] > 0
    assert tr["seconds_stationary"] == 0.0
    assert res.certified_radius.startswith("heuristic")


def test_small_ball_trace_names_the_enumeration():
    inst = generate_random(4, 6, seed=3)
    res = solve_global(inst, budget=60_000, rng=np.random.default_rng(7))
    tr = res.method_trace
    assert set(tr) == set(_TRACE_KEYS)
    assert tr["samples"] == 0 and tr["stationary_candidates"] > 0
    # every set of at most n + 1 = 5 of the 6 anchors
    assert tr["active_sets"] == sum(math.comb(6, k) for k in range(1, 6))
    assert tr["best_sampled"] == -np.inf
    assert tr["candidates_refined"] == tr["refine_steps"] == tr["polish_steps"] == 0
    for stage in ("seeds", "sampling", "ascent", "polish"):  # skipped stages
        assert tr[f"seconds_{stage}"] == 0.0
    assert res.certified_radius.startswith("enumerated")
    assert f"{tr['stationary_candidates']} stationary points of 62 active sets" in (
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
    enumerated = evaluate_batch(inst, _stationary_candidates(inst)[0])
    assert enumerated.max() >= rel.zeta_star * (1.0 - 1e-12)
    res = solve_global(inst, budget=2000, rng=np.random.default_rng(0))
    assert res.value >= rel.zeta_star * (1.0 - 1e-12)


def test_enumeration_solves_only_sets_of_at_most_n_plus_one(monkeypatch):
    # a stationary point needs at most n + 1 active anchors, so no larger
    # tie set is ever solved; each stacked row repeats its first anchor as
    # padding, so a set's size is its count of distinct anchors
    sizes = []

    def recording_tie_set(a, B, acts):
        sizes.extend(len(set(row)) for row in acts.tolist())
        return tie_set(a, B, acts)

    tie_set = oracle._tie_set
    monkeypatch.setattr(oracle, "_tie_set", recording_tie_set)
    inst = generate_random(5, 12, seed=8)
    res = solve_global(inst)
    assert res.method_trace["stationary_candidates"] > 0
    assert sizes and max(sizes) == inst.dim + 1


def _reference_stationary_candidates(inst):
    # the per-set loop the stacked pass replaced, over every set of at most
    # n + 1 anchors, with its own unstacked tie solve, kept verbatim as the
    # reference the stacked pass must match candidate by candidate
    m = inst.m
    P, w = inst.points, inst.weights
    p_sq = np.einsum("ij,ij->i", P, P)
    a, B = w * (1.0 + p_sq), 2.0 * w[:, None] * P
    out = []
    for k in range(1, min(m, inst.dim + 1) + 1):
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
    # coefficients' size (1e-6), and the best value to 1e-14 relative.
    rng = np.random.default_rng(12)
    compared = 0
    for k in range(40):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        w = rng.uniform(0.3, 3.0, m) if k % 2 else np.ones(m)
        inst = DispersionInstance(dim=n, points=rng.normal(size=(m, n)), weights=w,
                                  geometry=Geometry.BALL)
        stacked = _stationary_candidates(inst)[0]
        loop = _reference_stationary_candidates(inst)
        assert stacked.shape == loop.shape, (k, n, m)
        assert np.abs(stacked - loop).max() <= 1e-6, (k, n, m)
        best, best_loop = (float(evaluate_batch(inst, c).max()) for c in (stacked, loop))
        assert abs(best - best_loop) <= 1e-14 * max(1.0, best_loop), (k, n, m)
        compared += len(loop)
    assert compared > 1000


_FAMILIES = ("duplicate", "antiparallel", "cospherical", "integer", "hardness", "weighted")


def _family_ball(family, n, m, seed):
    """A ball instance with m anchors in R^n of one degenerate family; unit
    weights except "weighted".  "hardness" takes n as the partition size and
    emits its 2n anchors +-L_i of one norm."""
    rng = np.random.default_rng(seed)
    if family == "hardness":
        return build_hardness(rng.integers(1, 9, size=n)).instance
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
    return DispersionInstance(dim=n, points=pts, weights=w, geometry=Geometry.BALL)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(_FAMILIES), n=st.integers(1, 5), m=st.integers(1, 12),
       seed=st.integers(0, 2**16))
def test_enumeration_between_feasible_batch_and_relaxation_bound(family, n, m, seed):
    # the relaxation bounds the optimum from above, and a fixed feasible
    # batch, drawn without the oracle, bounds it from below; the degenerate
    # families give the stacked pass rank-deficient and padded systems
    inst = _family_ball(family, n, m, seed)
    res = solve_global(inst)
    assert res.certified_radius.startswith("enumerated")
    rel = solve_cr_ball(inst, tol=1e-12)
    scale = max(1.0, res.value)
    assert res.value <= rel.zeta_star + rel.gap + 1e-12 * scale
    batch = _feasible_samples(inst, 4096, np.random.default_rng(0))
    assert res.value >= float(evaluate_batch(inst, batch).max()) - 1e-12 * scale


_coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), geom=st.sampled_from([Geometry.BALL, Geometry.BOX]))
def test_far_target_is_farthest_from_its_anchor(data, geom):
    n = data.draw(st.integers(1, 6))
    anchor, x = (np.array(data.draw(st.lists(_coords, min_size=n, max_size=n)))
                 for _ in range(2))
    inst = DispersionInstance(dim=n, points=anchor[None, :], weights=np.ones(1), geometry=geom)
    x = _project(x, geom is Geometry.BALL)
    target = _far_target(inst, x, anchor)
    if target is None:  # no direction to prefer: origin anchor, x at the origin
        assert geom is Geometry.BALL and not anchor.any() and not x.any()
        return
    assert inst.contains(target)
    samples = _feasible_samples(inst, 1000, np.random.default_rng(data.draw(st.integers(0, 99))))
    far = float(np.linalg.norm(samples - anchor, axis=1).max())
    assert np.linalg.norm(target - anchor) >= far - 1e-12 * max(1.0, far)


@pytest.mark.parametrize("anchor, x, expect", [
    ((1e-200, 0.0), (0.0, 0.0), (-1.0, 0.0)),
    ((0.0, 0.0), (5e-324, 0.0), (1.0, 0.0)),
    ((0.0, 0.0), (5.550377172619886e-159, 0.0), (1.0, 0.0)),
    ((1e200, -1e200), (0.0, 0.0), (-0.5 ** 0.5, 0.5 ** 0.5)),
    ((0.0, 0.0), (0.0, 0.0), None),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_far_target_survives_extreme_norms(anchor, x, expect):
    # a nonzero vector still has a direction when v . v underflows or overflows
    anchor, x = np.array(anchor), np.array(x)
    inst = DispersionInstance(dim=2, points=anchor[None, :], weights=np.ones(1))
    target = _far_target(inst, x, anchor)
    if expect is None:
        assert target is None
    else:
        assert np.allclose(target, expect, rtol=0.0, atol=1e-15)


def _small_ball_cases(count, seed):
    """Seeded ball instances with m <= 12: integer anchors with a duplicated
    or antiparallel pair, anchors at radius 3, and dyadic data whose values
    tie."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        w = rng.uniform(0.3, 3.0, m)
        if k % 3 == 0:
            pts = rng.integers(-2, 3, size=(m, n)).astype(float)
            i, j = rng.choice(m, 2, replace=False)
            pts[j] = pts[i] if k % 2 else -pts[i]
        elif k % 3 == 1:
            pts = rng.normal(size=(m, n))
            pts *= 3.0 / np.linalg.norm(pts, axis=1, keepdims=True)
        else:
            pts = rng.integers(-4, 5, size=(m, n)) / 2.0
            w = rng.integers(1, 3, m).astype(float)
        yield DispersionInstance(dim=n, points=pts, weights=w, geometry=Geometry.BALL)


def test_enumeration_route_never_below_search():
    # on small balls solve_global returns the best stationary point and runs
    # no search; the search, called directly, must never beat it
    cases = 0
    for k, inst in enumerate(_small_ball_cases(100, seed=77)):
        route = solve_global(inst)
        assert route.method_trace["samples"] == 0
        searched = _search(inst, 500, np.random.default_rng(k))
        assert route.value >= searched.value * (1.0 - 1e-12), (k, inst.dim, inst.m)
        cases += 1
    assert cases == 100


def _reference_segment_max(inst, x, d):
    # the single-direction line maximum the batched kernel replaced, kept
    # verbatim as the reference it must match bit for bit
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


def _segment_cases(count, seed):
    """Seeded (instance, x, D) cases: both geometries, m from 1 to 120,
    duplicated anchors, directions toward far targets, random or tiny, and
    dyadic data on which several t attain the maximum."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        geom = (Geometry.BALL, Geometry.BOX)[k % 2]
        n = int(rng.integers(1, 9))
        m = (1, 2, 7, 12, 40, 41, 120)[k % 7]
        exact = k % 5 == 4  # small dyadic data: exact arithmetic, so values tie
        pts = rng.integers(-3, 4, size=(m, n)) / 2.0 if exact else rng.normal(size=(m, n))
        w = rng.integers(1, 3, m).astype(float) if exact else rng.uniform(0.3, 3.0, m)
        if m > 1 and k % 3 == 0:
            dup = rng.integers(0, m, size=max(1, m // 3))
            pts[dup[1:]] = pts[dup[0]]
            w[dup[1:]] = w[dup[0]]  # identical, tied parabolas
        inst = DispersionInstance(dim=n, points=pts, weights=w, geometry=geom)
        x = rng.uniform(-1.0, 1.0, n)
        if geom is Geometry.BALL:
            x /= max(1.0, float(np.linalg.norm(x)))
            far = -pts / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-300)
        else:
            far = -np.sign(pts) + (pts == 0.0)
        rows = int(rng.integers(1, 8))
        D = far[rng.integers(0, m, size=rows)] - x
        D[rng.random(rows) < 0.3] = rng.normal(size=n)
        if exact:
            x = rng.integers(-1, 2, size=n) / 2.0
            D = rng.integers(-4, 5, size=(rows, n)) / 2.0
        D[rng.random(rows) < 0.15] *= 10.0 ** rng.uniform(-11.0, -5.0)
        yield inst, x, D


def test_segment_max_matches_reference_bitwise():
    cases = 0
    for inst, x, D in _segment_cases(350, seed=2024):
        ts, vs = _segment_max(inst, x, D)
        assert ts.shape == vs.shape == (D.shape[0],)
        for r, d in enumerate(D):
            t_ref, v_ref = _reference_segment_max(inst, x, d)
            assert (float(ts[r]), float(vs[r])) == (t_ref, v_ref), (inst.m, r)
            t_one, v_one = _segment_max(inst, x, D[r : r + 1])
            assert (t_one[0], v_one[0]) == (ts[r], vs[r])
            cases += 1
    assert cases >= 1000
