"""Instance container: validation, evaluation, serialization."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxdisp import (
    DispersionInstance,
    Geometry,
    InstanceError,
    evaluate,
    evaluate_batch,
    generate_random,
    read_instance,
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
