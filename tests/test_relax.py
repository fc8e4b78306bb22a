"""Certified relaxation solver and lifting maps.

Every solve is checked two ways: the returned point must be feasible with
matching objective (lower-bound route), and no sampled feasible point may
beat zeta_star + gap (upper-bound route). The two routes only share the
instance container. On the box, an interior-point solve of the same LP must
also land in [zeta_star, zeta_star + gap].
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from maxdisp import (
    DispersionInstance,
    Geometry,
    NonPositiveValueError,
    RelaxationResult,
    evaluate_batch,
    gamma1,
    generate_random,
    lift_ball,
    lift_box,
    solve_cr_ball,
    solve_cr_box,
    solve_global,
)
from maxdisp import relax

THREE_POINTS = DispersionInstance(
    dim=2,
    points=np.array([[1.0, 2.0], [2.0, 3.0], [1.0, 5.0]]),
    weights=np.ones(3),
    geometry=Geometry.BALL,
)


def _affine_pieces(inst):
    """(a, B) with the lifted affine minorants a_i - b_i . x as rows."""
    w = inst.weights
    if inst.geometry is Geometry.BALL:
        mu = 1.0
    else:
        mu = float(inst.dim)
    a = w * (mu + np.sum(inst.points**2, axis=1))
    B = 2.0 * w[:, None] * inst.points
    return a, B


def _relaxed_objective(inst, xs):
    """min_i of the lifted affine minorants, vectorized over rows of xs."""
    a, B = _affine_pieces(inst)
    return np.min(a[None, :] - xs @ B.T, axis=1)


def _feasible_cloud(inst, count, rng):
    xs = rng.uniform(-1.0, 1.0, (count, inst.dim))
    if inst.geometry is Geometry.BALL:
        norms = np.linalg.norm(xs, axis=1, keepdims=True)
        xs = xs / np.maximum(norms, 1.0)
    return xs


def test_three_point_anchor():
    res = solve_cr_ball(THREE_POINTS, tol=1e-10)
    assert res.converged
    assert abs(res.zeta_star - (6.0 + 2.0 * math.sqrt(5.0))) < 1e-8
    assert res.gap < 1e-8
    # optimum sits on the unit circle for this instance
    assert abs(np.linalg.norm(res.x_star) - 1.0) < 1e-9


def test_primal_value_consistent():
    rng = np.random.default_rng(0)
    for k in range(40):
        geom = Geometry.BALL if k % 2 == 0 else Geometry.BOX
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 14))
        inst = generate_random(n, m, seed=100 + k, geometry=geom)
        solver = solve_cr_ball if geom is Geometry.BALL else solve_cr_box
        res = solver(inst)
        val = float(_relaxed_objective(inst, res.x_star[None, :])[0])
        assert abs(val - res.zeta_star) < 1e-9 * max(1.0, abs(val))
        assert inst.contains(res.x_star)
        assert res.gap >= 0.0


def test_certificate_dominates_samples():
    rng = np.random.default_rng(1)
    for k in range(30):
        geom = Geometry.BALL if k % 2 == 0 else Geometry.BOX
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 16))
        inst = generate_random(n, m, seed=200 + k, geometry=geom)
        solver = solve_cr_ball if geom is Geometry.BALL else solve_cr_box
        res = solver(inst, tol=1e-9)
        cloud = _feasible_cloud(inst, 4000, rng)
        best = float(np.max(_relaxed_objective(inst, cloud)))
        assert best <= res.zeta_star + res.gap + 1e-7 * max(1.0, best)


def test_box_grid_cross_check():
    """Dense grid over [-1,1]^3 brackets the reported box optimum."""
    inst = generate_random(3, 5, seed=42, geometry=Geometry.BOX)
    res = solve_cr_box(inst, tol=1e-10)
    axis = np.linspace(-1.0, 1.0, 101)
    xs = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    grid_best = float(np.max(_relaxed_objective(inst, xs)))
    assert grid_best <= res.zeta_star + res.gap + 1e-9
    # piecewise-linear objective: grid misses the peak by at most L * h * sqrt(n)
    lip = float(np.max(2.0 * inst.weights * np.linalg.norm(inst.points, axis=1)))
    slack = lip * 0.02 * math.sqrt(3.0)
    assert res.zeta_star <= grid_best + slack


def test_single_anchor_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        p = rng.normal(size=(1, n))
        w = float(rng.uniform(0.2, 3.0))
        ball = DispersionInstance(
            dim=n, points=p, weights=np.array([w]), geometry=Geometry.BALL
        )
        res = solve_cr_ball(ball)
        expect = w * (1.0 + np.linalg.norm(p)) ** 2
        assert abs(res.zeta_star - expect) < 1e-9 * expect
        assert res.gap == 0.0 and res.converged
    # an anchor so close to the origin that its squared norm underflows
    tiny = DispersionInstance(2, np.array([[3e-256, -1e-256]]), np.ones(1), Geometry.BALL)
    res = solve_cr_ball(tiny)
    assert tiny.contains(res.x_star) and abs(np.linalg.norm(res.x_star) - 1.0) < 1e-15
    assert res.zeta_star == 1.0


def test_coincident_origin_anchors():
    inst = DispersionInstance(
        dim=3,
        points=np.zeros((4, 3)),
        weights=np.array([2.0, 1.5, 1.0, 3.0]),
        geometry=Geometry.BALL,
    )
    res = solve_cr_ball(inst)
    assert abs(res.zeta_star - 1.0) < 1e-12
    box = DispersionInstance(
        dim=3,
        points=np.zeros((4, 3)),
        weights=np.array([2.0, 1.5, 1.0, 3.0]),
        geometry=Geometry.BOX,
    )
    res = solve_cr_box(box)
    assert abs(res.zeta_star - 3.0) < 1e-12


@pytest.mark.parametrize("geom", [Geometry.BALL, Geometry.BOX])
def test_repeated_anchors(geom):
    solver = solve_cr_ball if geom is Geometry.BALL else solve_cr_box
    # each repeat is a redundant piece; the solve must see through them
    bases = ([[-0.5], [0.25], [0.75]], [[1.0, 0.0], [-0.5, 0.5], [0.0, -1.0]])
    for base in map(np.array, bases):
        once = solver(DispersionInstance(base.shape[1], base, np.ones(3), geom))
        pts = np.repeat(base, 16, axis=0)
        res = solver(DispersionInstance(base.shape[1], pts, np.ones(48), geom))
        assert res.converged
        assert abs(res.zeta_star - once.zeta_star) <= once.gap + res.gap


@pytest.mark.parametrize("geom", [Geometry.BALL, Geometry.BOX])
def test_closed_start_runs_no_solve(geom):
    # the origin anchor's piece is smallest and flat, so the starting
    # certificate (x = 0 and the singleton on that piece) is already closed
    solver = solve_cr_ball if geom is Geometry.BALL else solve_cr_box
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    res = solver(DispersionInstance(2, pts, np.ones(3), geom))
    assert res.iterations == 0 and res.gap == 0.0 and res.converged
    assert np.all(res.x_star == 0.0)


def test_polish_solves_each_support_once(monkeypatch):
    # a face point depends on its support alone, so one solve never needs
    # the same support twice, however many tau rounds repeat it
    supports = []

    def recording_sphere_points(a, B, acts):
        # a row is its support padded by repeats of its first index
        supports.extend(tuple(dict.fromkeys(row)) for row in acts.tolist())
        return sphere_points(a, B, acts)

    sphere_points = relax._sphere_points
    monkeypatch.setattr(relax, "_sphere_points", recording_sphere_points)
    rng = np.random.default_rng(3)
    solved = 0
    for k in range(30):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, n + 1)) if k % 2 else int(rng.integers(n + 1, 3 * n + 1))
        supports.clear()
        solve_cr_ball(generate_random(n, m, seed=600 + k))
        assert len(supports) == len(set(supports)), (n, m, k)
        solved += len(supports)
    assert solved > 30


def _tie_pieces(seed, m=3, n=4):
    """A ball's pieces a = 1 + ||p||^2, B = 2 p, and every set of its m anchors."""
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, (m, n))
    return 1.0 + np.einsum("ij,ij->i", pts, pts), 2.0 * pts, relax._padded_sets(m, m)[0]


def _counting_sphere_points(monkeypatch):
    """An empty memo, and a list whose length counts the uncached calls."""
    calls, uncached = [], relax._sphere_points_uncached

    def counting(a, B, acts):
        calls.append(None)
        return uncached(a, B, acts)

    monkeypatch.setattr(relax, "_sphere_points_uncached", counting)
    monkeypatch.setattr("maxdisp.instance._KEPT", {})
    return calls


def _same_bits(got, want):
    return all(g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()
               for g, w in zip(got, want, strict=True))


def test_sphere_points_memo_hit_is_a_fresh_call_bit_for_bit(monkeypatch):
    calls = _counting_sphere_points(monkeypatch)
    a, B, acts = _tie_pieces(0)
    first = relax._sphere_points(a, B, acts)
    # equal content in other arrays is a hit
    hit = relax._sphere_points(a.copy(), B.copy(), acts.copy())
    assert len(calls) == 1
    assert all(h is f for h, f in zip(hit, first))
    assert _same_bits(hit, relax._sphere_points_uncached(a, B, acts))


def test_sphere_points_memo_is_read_only(monkeypatch):
    _counting_sphere_points(monkeypatch)
    a, B, acts = _tie_pieces(0)
    for arr in relax._sphere_points(a, B, acts):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    # the memo's copy is untouched by the attempts
    assert _same_bits(relax._sphere_points(a, B, acts), relax._sphere_points_uncached(a, B, acts))


def _one_ulp_up(a, B, acts):
    a = a.copy()
    a[1] = np.nextafter(a[1], np.inf)
    return a, B, acts


def _other_acts_index(a, B, acts):
    acts = acts.copy()
    acts[-1, -1] = acts[-1, 0]  # the set {0, 1, 2} becomes {0, 1}, padded
    return a, B, acts


@pytest.mark.parametrize("change", [
    _one_ulp_up,
    lambda a, B, acts: (a, B.reshape(B.shape[::-1]), acts),  # same bytes, other shape
    _other_acts_index,
    lambda a, B, acts: _tie_pieces(1),  # a second instance
])
def test_sphere_points_memo_recomputes_on_any_change(change, monkeypatch):
    calls = _counting_sphere_points(monkeypatch)
    a, B, acts = _tie_pieces(0)
    relax._sphere_points(a, B, acts)
    args = change(a, B, acts)
    got = relax._sphere_points(*args)
    assert len(calls) == 2
    assert _same_bits(got, relax._sphere_points_uncached(*args))


def _start_family(kind, n, m, rng):
    """An m <= n ball of one of five kinds: unit weights, U(0.3, 3) weights,
    anchors scaled by 10^U(-4, 2), an antiparallel pair, repeated anchors."""
    pts, w = rng.uniform(-1.0, 1.0, (m, n)), np.ones(m)
    if kind == "weighted":
        w = rng.uniform(0.3, 3.0, m)
    elif kind == "scaled":
        pts *= 10.0 ** rng.uniform(-4.0, 2.0)
    elif kind == "antiparallel" and m >= 2:
        pts[1] = -pts[0] * rng.uniform(0.5, 2.0)
    elif kind == "repeated" and m >= 2:
        pts[m // 2 :] = pts[: m - m // 2]
    return DispersionInstance(n, pts, w, Geometry.BALL)


@pytest.mark.parametrize(
    "seed, kind", enumerate(["unit", "weighted", "scaled", "antiparallel", "repeated"])
)
def test_face_point_start_matches_barrier(seed, kind, monkeypatch):
    # with m <= n every support is one of the 2^m - 1 sets the start solves,
    # so the start closes where the barrier (forced by a cut-off of 0) does
    rng = np.random.default_rng(seed)
    for _ in range(12):
        n = int(rng.integers(1, 11))
        inst = _start_family(kind, n, int(rng.integers(1, min(n, 8) + 1)), rng)
        start = solve_cr_ball(inst)
        with monkeypatch.context() as patch:
            patch.setattr(relax, "_START_MAX", 0)
            barrier = solve_cr_ball(inst)
        assert start.iterations == 0 and start.converged
        # both ends are rounded: the gap is clamped at 0 where U rounds below F
        scale = max(1.0, abs(barrier.zeta_star))
        low, high = barrier.zeta_star - 1e-12 * scale, barrier.zeta_star + barrier.gap
        assert low <= start.zeta_star <= high + 4 * np.finfo(float).eps * scale
    # above the cut-off the barrier runs
    assert solve_cr_ball(generate_random(10, 9, seed=7)).iterations > 0


def test_start_stops_at_its_first_closing_bound(monkeypatch):
    # the start drops the polish's supports, so once a simplex vector closes
    # the gap no further NNLS runs: a start whose first multiplier closes it
    # makes exactly one solve
    solves, offers = [0], []
    real_nnls, real_offer = relax.nnls, relax._Certificate.offer_bound

    def counting_nnls(*args):
        solves[0] += 1
        return real_nnls(*args)

    def recording_offer(cert, lam):
        real_offer(cert, lam)
        offers.append((solves[0], cert.upper, cert.upper - cert.f))

    monkeypatch.setattr(relax, "nnls", counting_nnls)
    monkeypatch.setattr(relax._Certificate, "offer_bound", recording_offer)
    rng = np.random.default_rng(11)
    outcomes = set()
    for k in range(100):
        kind = ("unit", "weighted", "scaled", "antiparallel", "repeated")[k % 5]
        n = int(rng.integers(2, 11))
        inst = _start_family(kind, n, int(rng.integers(2, min(n, 8) + 1)), rng)
        solves[0] = 0
        offers.clear()
        res = solve_cr_ball(inst)
        assert res.iterations == 0 and res.converged
        # the singleton offered first is U0; the default tol closes at 1e-12 max(1, U0)
        fine = 1e-12 * max(1.0, offers[0][1])
        if offers[0][2] <= fine:  # closed before any solve
            assert solves[0] == 0
            continue
        first_closes = next(gap for count, _, gap in offers if count == 1) <= fine
        assert (solves[0] == 1) == first_closes, (k, kind, n, solves[0])
        outcomes.add(first_closes)
    assert outcomes == {True, False}


def test_flat_optimal_face_shares_the_tie_set_rule():
    # with anchors (1, 0) and (-1, 0) every point of the tie line x_1 = 0 in
    # the disc has relaxed value 2: the relaxation keeps the line's
    # minimum-norm point, and the oracle steps along the line to the sphere
    inst = DispersionInstance(2, np.array([[1.0, 0.0], [-1.0, 0.0]]), np.ones(2), Geometry.BALL)
    rel = solve_cr_ball(inst)
    assert rel.x_star.tolist() == [0.0, 0.0]
    assert rel.zeta_star == 2.0 and rel.converged
    res = solve_global(inst)
    assert abs(np.linalg.norm(res.x_best) - 1.0) <= 1e-15
    assert res.value == 2.0


def test_box_is_certified_by_its_lp_duals(monkeypatch):
    def no_polish(*args):
        raise AssertionError("the box must not need the polish")

    monkeypatch.setattr("maxdisp.relax._polish", no_polish)
    rng = np.random.default_rng(11)
    for k in range(24):
        n, m = int(rng.integers(1, 9)), int(rng.integers(2, 30))
        res = solve_cr_box(generate_random(n, m, seed=500 + k, geometry=Geometry.BOX))
        assert res.converged
        assert res.gap <= 1e-12 * max(1.0, res.zeta_star)


@pytest.mark.parametrize("solver", [solve_cr_ball, solve_cr_box])
def test_overflowing_piece_is_an_error(solver):
    # ||p||^2 overflows although every input is finite
    geom = Geometry.BALL if solver is solve_cr_ball else Geometry.BOX
    inst = DispersionInstance(2, np.array([[1e200, 0.0], [0.0, 1.0]]), np.ones(2), geom)
    with pytest.raises(ValueError, match="overflows"):
        solver(inst)


def test_line_segment_pair():
    inst = DispersionInstance(
        dim=1,
        points=np.array([[1.0], [-1.0]]),
        weights=np.ones(2),
        geometry=Geometry.BALL,
    )
    res = solve_cr_ball(inst, tol=1e-10)
    assert abs(res.zeta_star - 2.0) < 1e-9


@pytest.mark.parametrize("geom", [Geometry.BALL, Geometry.BOX])
def test_nonconvergence_is_reported(geom):
    solver = solve_cr_ball if geom is Geometry.BALL else solve_cr_box
    inst = generate_random(8, 25, seed=0, geometry=geom)
    starved = solver(inst, max_iter=3)
    assert not starved.converged
    assert starved.gap > 1e-2
    full = solver(inst, tol=1e-10)
    assert full.converged
    assert full.gap < 1e-10
    # starving the solver must not break the bound sandwich
    assert starved.zeta_star <= full.zeta_star + full.gap + 1e-9


def test_interior_optimum_certified():
    # the benchmark protocol's m = 15 instance at seed 0: the optimum is
    # interior, with six pieces tied, so no boundary formula can reach it
    stream = np.random.default_rng(np.random.SeedSequence([0, 0]))
    pts = stream.uniform(-1.0, 1.0, (450, 5))[90:105]
    inst = DispersionInstance(5, pts, np.ones(15), Geometry.BALL)
    res = solve_cr_ball(inst, tol=1e-10)
    assert res.converged
    assert res.gap <= 1e-10
    assert np.linalg.norm(res.x_star) < 0.9


_coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _instances(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 40))
    row = st.lists(_coords, min_size=n, max_size=n)
    pts = draw(st.lists(row, min_size=m, max_size=m))
    w = draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
    geom = draw(st.sampled_from([Geometry.BALL, Geometry.BOX]))
    return DispersionInstance(n, np.array(pts), np.array(w), geom)


@settings(max_examples=60, deadline=None)
@given(inst=_instances(), seed=st.integers(0, 2**32 - 1))
def test_certificate_properties(inst, seed):
    solver = solve_cr_ball if inst.geometry is Geometry.BALL else solve_cr_box
    res = solver(inst)
    assert inst.contains(res.x_star)
    # zeta_star is F(x_star), equal up to the rounding of the recomputation
    a, B = _affine_pieces(inst)
    assert abs(res.zeta_star - float(np.min(a - B @ res.x_star))) <= 1e-13 * np.max(a)
    assert res.converged
    cloud = _feasible_cloud(inst, 2000, np.random.default_rng(seed))
    assert np.max(_relaxed_objective(inst, cloud)) <= res.zeta_star + res.gap + 1e-9
    if inst.geometry is Geometry.BOX:
        # the same LP solved independently, by HiGHS's interior-point method
        m, n = B.shape
        lp = linprog(np.append(np.zeros(n), -1.0), np.hstack([B, np.ones((m, 1))]), a,
                     bounds=[(-1.0, 1.0)] * n + [(None, None)], method="highs-ipm")
        assert lp.success
        value, slack = -lp.fun, 1e-9 * max(1.0, abs(lp.fun))
        assert res.zeta_star - slack <= value <= res.zeta_star + res.gap + slack


def test_geometry_and_tol_validation():
    ball = generate_random(3, 4, seed=9, geometry=Geometry.BALL)
    box = generate_random(3, 4, seed=9, geometry=Geometry.BOX)
    with pytest.raises(ValueError):
        solve_cr_box(ball)
    with pytest.raises(ValueError):
        solve_cr_ball(box)
    with pytest.raises(ValueError):
        solve_cr_ball(ball, tol=0.0)


def _anchor_matrices(inst):
    """(n+1)x(n+1) quadratic-form matrices of each squared distance."""
    n = inst.dim
    mats = []
    for p in inst.points:
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = np.eye(n)
        A[:n, n] = -p
        A[n, :n] = -p
        A[n, n] = float(p @ p)
        mats.append(A)
    return mats


@pytest.mark.parametrize("geom", [Geometry.BALL, Geometry.BOX])
def test_lift_invariants(geom):
    rng = np.random.default_rng(3)
    solver = solve_cr_ball if geom is Geometry.BALL else solve_cr_box
    lifter = lift_ball if geom is Geometry.BALL else lift_box
    for k in range(25):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 12))
        inst = generate_random(n, m, seed=300 + k, geometry=geom)
        res = solver(inst, tol=1e-9)
        Z = lifter(res, inst)
        assert Z.shape == (n + 1, n + 1)
        assert np.allclose(Z, Z.T, rtol=0, atol=1e-14)
        scale = float(np.linalg.norm(Z))
        assert np.linalg.eigvalsh(Z).min() >= -1e-9 * scale
        assert abs(Z[n, n] - 1.0 / res.zeta_star) < 1e-9
        top_trace = float(np.trace(Z[:n, :n]))
        expect = (1.0 if geom is Geometry.BALL else n) / res.zeta_star
        assert abs(top_trace - expect) < 1e-9 * max(1.0, expect)
        for w, A in zip(inst.weights, _anchor_matrices(inst)):
            assert w * float(np.sum(A * Z)) >= 1.0 - 1e-9


def test_lift_anchor_diagonal():
    res = solve_cr_ball(THREE_POINTS, tol=1e-10)
    Z = lift_ball(res, THREE_POINTS)
    assert np.allclose(
        np.diag(Z), [0.0190983, 0.0763932, 0.0954915], rtol=0, atol=1e-6
    )
    assert abs(gamma1(Z) - 0.8) < 1e-9


def test_box_corner_ratio_is_uniform():
    # box optima sit at sign vectors, so every lifted diagonal entry of the
    # spatial block equals Z[n, n] and the ratio collapses to 1/n
    rng = np.random.default_rng(8)
    for k in range(10):
        n = int(rng.integers(2, 7))
        inst = generate_random(n, int(rng.integers(2, 9)), seed=400 + k, geometry=Geometry.BOX)
        res = solve_cr_box(inst, tol=1e-9)
        Z = lift_box(res, inst)
        assert abs(gamma1(Z) - 1.0 / n) < 1e-9


def test_lift_rejects_nonpositive_value():
    inst = generate_random(2, 2, seed=1)
    fake = RelaxationResult(
        x_star=np.zeros(2), zeta_star=0.0, gap=0.0, iterations=0, converged=True
    )
    with pytest.raises(NonPositiveValueError):
        lift_ball(fake, inst)


def test_lift_rejects_wrong_geometry():
    ball, box = (generate_random(3, 4, seed=2, geometry=g) for g in (Geometry.BALL, Geometry.BOX))
    with pytest.raises(ValueError, match="lift_box requires a box-geometry instance"):
        lift_box(solve_cr_ball(ball), ball)
    with pytest.raises(ValueError, match="lift_ball requires a ball-geometry instance"):
        lift_ball(solve_cr_box(box), box)


def test_gamma1_validation():
    with pytest.raises(ValueError):
        gamma1(np.ones((2, 3)))
    with pytest.raises(ValueError):
        gamma1(np.zeros((1, 1)))
