"""Certified relaxation solver and lifting maps.

Every solve is checked two ways: the returned point must be feasible with
matching objective (lower-bound route), and no sampled feasible point may
beat zeta_star + gap (upper-bound route). The two routes only share the
instance container.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)

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
