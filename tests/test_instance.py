"""Instance container: validation, evaluation, serialization, no hidden state."""

import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import maxdisp.instance
from maxdisp import (
    DispersionInstance,
    Geometry,
    InstanceError,
    approx_ball,
    approx_box_simplified,
    approx_general_fixed,
    evaluate,
    evaluate_batch,
    generate_random,
    lift_ball,
    lift_box,
    read_instance,
    solve_cr_ball,
    solve_cr_box,
    solve_exact,
    solve_global,
    write_instance,
)
from maxdisp.instance import _project, _sphere_step


def test_rejects_shape_mismatch():
    with pytest.raises(InstanceError, match="coordinates"):
        DispersionInstance(
            dim=2,
            points=np.ones((2, 3)),
            weights=np.ones(2),
            geometry=Geometry.BALL,
        )


def test_rejects_bad_weights():
    for w in ([1.0, -1.0], [1.0, 0.0], [1.0, np.inf]):
        with pytest.raises(InstanceError):
            DispersionInstance(
                dim=2,
                points=np.zeros((2, 2)),
                weights=np.asarray(w),
                geometry=Geometry.BALL,
            )


def test_rejects_nonfinite_points_and_bad_dim():
    with pytest.raises(InstanceError):
        DispersionInstance(
            dim=2,
            points=np.array([[np.nan, 0.0]]),
            weights=np.ones(1),
            geometry=Geometry.BALL,
        )
    with pytest.raises(InstanceError):
        DispersionInstance(
            dim=0, points=np.ones((1, 0)), weights=np.ones(1), geometry=Geometry.BALL
        )


@pytest.mark.parametrize("dim", [2.7, True, np.True_, "3", "3.0", np.float64(2.5), None,
                                 float("inf"), float("nan")])
def test_rejects_a_dim_that_is_not_an_integer(dim):
    with pytest.raises(InstanceError, match="dim must be an integer"):
        DispersionInstance(dim=dim, points=np.ones((1, 3)), weights=np.ones(1))


@pytest.mark.parametrize("dim", [3, np.int64(3), 3.0, np.float64(3.0)])
def test_accepts_an_integral_dim_of_any_type(dim):
    inst = DispersionInstance(dim=dim, points=np.ones((1, 3)), weights=np.ones(1))
    assert inst.dim == 3 and type(inst.dim) is int


@pytest.mark.parametrize("points, weights, geometry, match", [
    (np.ones(3), np.ones(1), Geometry.BALL, "2-d array"),
    (np.ones((0, 3)), np.ones(0), Geometry.BALL, "at least one anchor"),
    (np.ones((2, 3)), np.ones(3), Geometry.BALL, r"weights must have shape \(2,\)"),
    (np.ones((2, 3)), np.ones((2, 1)), Geometry.BALL, r"weights must have shape \(2,\)"),
    (np.ones((2, 3)), np.ones(2), "sphere", "unknown geometry 'sphere'"),
])
def test_rejects_malformed_fields(points, weights, geometry, match):
    with pytest.raises(InstanceError, match=match):
        DispersionInstance(dim=3, points=points, weights=weights, geometry=geometry)


def test_equality_compares_every_field():
    pts, w = np.array([[0.5, -0.25], [0.0, 1.0]]), np.array([1.0, 2.0])
    inst = DispersionInstance(2, pts, w, Geometry.BALL)
    assert inst == DispersionInstance(2.0, pts.tolist(), w.tolist(), "ball")
    assert inst != DispersionInstance(2, pts, w, Geometry.BOX)
    assert inst != DispersionInstance(2, pts[::-1], w, Geometry.BALL)
    assert inst != DispersionInstance(2, pts, w[::-1], Geometry.BALL)
    assert inst != DispersionInstance(3, np.ones((2, 3)), w, Geometry.BALL)
    assert inst.__eq__(pts) is NotImplemented and inst != "ball"


def test_arrays_are_frozen():
    inst = generate_random(3, 4, seed=0)
    assert not inst.points.flags.writeable
    assert not inst.weights.flags.writeable


def test_evaluate_matches_manual():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        inst = generate_random(n, m, seed=int(rng.integers(0, 10**6)))
        x = rng.uniform(-1, 1, n)
        vals = inst.weights * np.sum((x - inst.points) ** 2, axis=1)
        ev = evaluate(inst, x)
        assert abs(ev.value - vals.min()) < 1e-12 * max(1.0, vals.min())
        assert ev.argmin_index == int(np.argmin(vals))


def test_argmin_is_first_occurrence():
    # two anchors symmetric about the origin tie at x = 0
    inst = DispersionInstance(
        dim=1,
        points=np.array([[1.0], [-1.0]]),
        weights=np.ones(2),
        geometry=Geometry.BALL,
    )
    assert evaluate(inst, np.zeros(1)).argmin_index == 0


@pytest.mark.parametrize("x", [np.zeros(3), np.zeros((2, 4)), np.zeros(0)])
def test_evaluate_rejects_a_point_of_another_shape(x):
    with pytest.raises(InstanceError, match=r"expected \(4,\)"):
        evaluate(generate_random(4, 3, seed=0), x)


@pytest.mark.parametrize("xs", [np.zeros(4), np.zeros((2, 3)), np.zeros((1, 2, 4))])
def test_evaluate_batch_rejects_a_batch_of_another_shape(xs):
    with pytest.raises(InstanceError, match=r"expected \(k, 4\)"):
        evaluate_batch(generate_random(4, 3, seed=0), xs)


def test_evaluate_batch_matches_loop():
    inst = generate_random(4, 6, seed=5)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, (64, 4))
    batch = evaluate_batch(inst, xs)
    single = np.array([evaluate(inst, x).value for x in xs])
    assert np.allclose(batch, single, rtol=0, atol=1e-12)


def test_contains():
    ball = generate_random(3, 2, seed=1, geometry=Geometry.BALL)
    box = generate_random(3, 2, seed=1, geometry=Geometry.BOX)
    e = np.zeros(3)
    e[0] = 1.0
    assert ball.contains(e) and box.contains(e)
    assert not ball.contains(1.01 * e)
    assert box.contains(np.ones(3)) and not ball.contains(np.ones(3))


def test_generate_random_deterministic():
    a = generate_random(5, 7, seed=123)
    b = generate_random(5, 7, seed=123)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weights, b.weights)
    c = generate_random(5, 7, seed=124)
    assert not np.array_equal(a.points, c.points)
    assert np.all(a.weights > 0)


def test_round_trip(tmp_path):
    inst = generate_random(4, 9, seed=77, geometry=Geometry.BOX)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.dim == inst.dim
    assert back.geometry is inst.geometry
    assert np.allclose(back.points, inst.points, rtol=0, atol=0)
    assert np.allclose(back.weights, inst.weights, rtol=0, atol=0)


def test_read_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{\"dim\": 2}")
    with pytest.raises(InstanceError):
        read_instance(path)


def _write(tmp_path, doc):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    return path


_ONE = {"dim": 2, "geometry": "ball", "points": [[0.5, 0.0]]}


@pytest.mark.parametrize("doc, match", [
    ([_ONE], "must hold a JSON object"),
    ({**_ONE, "points": []}, "points must be a non-empty list"),
    ({**_ONE, "points": {"0": [0.5, 0.0]}}, "points must be a non-empty list"),
    ({**_ONE, "points": [[0.5, 0.0], 0.5]}, "point 1 is not a list"),
    ({**_ONE, "points": [[0.5, 0.0], [0.5]]}, r"mixed lengths \[1, 2\]"),
    ({**_ONE, "dim": 2.7}, "dim must be an integer"),
    ({**_ONE, "dim": True}, "dim must be an integer"),
    ({**_ONE, "dim": "2"}, "dim must be an integer"),
    ({**_ONE, "weights": [-1.0]}, "strictly positive"),
    ({**_ONE, "geometry": "sphere"}, "unknown geometry"),
])
def test_read_rejects_malformed_documents(tmp_path, doc, match):
    path = _write(tmp_path, doc)
    with pytest.raises(InstanceError, match=match) as info:
        read_instance(path)
    assert str(info.value).startswith(f"instance file {path}")


def test_read_defaults_to_unit_weights_and_integral_dim(tmp_path):
    doc = {**_ONE, "dim": 2.0, "points": [[0.5, 0.0], [0.0, 1.0]]}
    inst = read_instance(_write(tmp_path, doc))
    assert inst.dim == 2 and type(inst.dim) is int
    assert inst.weights.tolist() == [1.0, 1.0]


def _bits(value):
    """Every field of a result, arrays as dtype, shape and bytes and floats in
    hex; the oracle's seconds are left out."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, list):
        return tuple(map(_bits, value))
    if isinstance(value, dict):
        return tuple((k, _bits(v)) for k, v in sorted(value.items()) if k != "seconds_stationary")
    return value.hex() if isinstance(value, float) else value


def _solve_all(inst):
    """Every public solver that takes inst, each sampler twice on one generator."""
    ball = inst.geometry is Geometry.BALL
    rel = (solve_cr_ball if ball else solve_cr_box)(inst)
    lift = (lift_ball if ball else lift_box)(rel, inst)
    out = [rel, lift, solve_global(inst)]
    if ball:
        out.append(solve_exact(inst))
    own = approx_ball if ball else approx_box_simplified
    for rho, k in ((0.5, 0), (1e-9, 1)):
        rng = np.random.default_rng(k)
        out += [own(inst, rho, rng), own(inst, rho, rng)]
        out += [approx_general_fixed(inst, rho, rng, lift=lift),
                approx_general_fixed(inst, rho, rng)]
    return _bits(out)


def test_solvers_leave_no_state_on_an_instance(monkeypatch):
    # values reused between calls are kept outside the instance: it keeps its
    # four fields, pickles as a fresh equal instance does, and alternating
    # instances give what fresh calls on an empty memo give
    rng = np.random.default_rng(25)
    shapes = {"A": (rng.uniform(-1.0, 1.0, (4, 5)), Geometry.BALL),
              "B": (rng.uniform(-1.0, 1.0, (4, 5)), Geometry.BALL),
              "C": (rng.uniform(-1.0, 1.0, (4, 5)), Geometry.BOX)}

    def make(name):
        pts, geom = shapes[name]
        return DispersionInstance(5, pts, np.ones(4), geom)

    fresh = {}
    for name in shapes:
        monkeypatch.setattr("maxdisp.instance._KEPT", {})
        fresh[name] = _solve_all(make(name))
    monkeypatch.setattr("maxdisp.instance._KEPT", {})
    insts = {name: make(name) for name in shapes}
    for name in "ABACBA":
        assert _solve_all(insts[name]) == fresh[name], name
    for name, inst in insts.items():
        assert set(vars(inst)) == {"dim", "points", "weights", "geometry"}
        assert pickle.dumps(inst) == pickle.dumps(make(name))
    kept = [item for *_, value in maxdisp.instance._KEPT.values()
            for item in value if isinstance(item, np.ndarray)]
    assert len(maxdisp.instance._KEPT) == 4 and len(kept) >= 9
    for arr in kept:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


_coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def _vector(n):
    return st.lists(_coords, min_size=n, max_size=n).map(np.array)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), geom=st.sampled_from([Geometry.BALL, Geometry.BOX]))
def test_project_lands_in_region_and_fixes_its_points(data, geom):
    n = data.draw(st.integers(1, 8))
    x = data.draw(_vector(n))
    inst = DispersionInstance(dim=n, points=np.zeros((1, n)), weights=np.ones(1), geometry=geom)
    y = _project(x, geom is Geometry.BALL)
    assert inst.contains(y)
    if inst.contains(x, tol=0.0):
        assert np.array_equal(y, x)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sphere_step_reaches_the_sphere(data):
    n = data.draw(st.integers(1, 8))
    x = _project(data.draw(_vector(n)), True)
    d = data.draw(_vector(n))
    assume(np.linalg.norm(d) > 1e-3)
    t = _sphere_step(x, d)
    assert t >= 0.0
    assert abs(float(np.linalg.norm(x + t * d)) - 1.0) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_evaluate_agrees_with_evaluate_batch(data):
    # the batch expands ||x - p||^2, so it is exact only relative to the size
    # of the expanded terms, not to a value that cancels toward zero
    n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 12))
    pts = np.array([data.draw(_vector(n)) for _ in range(m)])
    w = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
    inst = DispersionInstance(dim=n, points=pts, weights=w, geometry=Geometry.BALL)
    xs = np.array([data.draw(_vector(n)) for _ in range(4)])
    batch = evaluate_batch(inst, xs)
    for x, v in zip(xs, batch):
        scale = float(np.max(w * (x @ x + np.einsum("ij,ij->i", pts, pts))))
        assert abs(evaluate(inst, x).value - v) <= 1e-12 * max(1.0, scale)
