"""Polynomial-time exact ball solver: applicability, tightness, certificates."""

import numpy as np
import pytest

import maxdisp.exact
from maxdisp import (
    DispersionInstance,
    Geometry,
    NotApplicableError,
    evaluate,
    find_sign_direction,
    generate_random,
    solve_cr_ball,
    solve_exact,
    solve_global,
)


def _halfspace_instance(n, m, seed):
    """Random anchors folded into {p : p[0] <= 0}, so e_1 certifies a direction."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, n))
    pts[:, 0] = -np.abs(pts[:, 0])
    w = rng.uniform(0.3, 3.0, m)
    return DispersionInstance(dim=n, points=pts, weights=w, geometry=Geometry.BALL)


def test_certificate_structure():
    rng = np.random.default_rng(0)
    for k in range(40):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 3))
        inst = _halfspace_instance(n, m, 500 + k)
        res = solve_exact(inst)
        assert abs(np.linalg.norm(res.x_opt) - 1.0) < 1e-10
        assert abs(np.linalg.norm(res.certificate) - 1.0) < 1e-10
        assert float(np.max(inst.points @ res.certificate)) <= 1e-10
        assert res.alpha >= 0.0
        recon = res.relaxation.x_star + res.alpha * res.certificate
        assert np.allclose(res.x_opt, recon, rtol=0, atol=1e-12)
        assert abs(res.value - evaluate(inst, res.x_opt).value) < 1e-12 * max(
            1.0, res.value
        )


def test_value_matches_relaxation():
    # when applicable the method closes the relaxation sandwich exactly
    rng = np.random.default_rng(1)
    for k in range(40):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 3))
        inst = _halfspace_instance(n, m, 600 + k)
        res = solve_exact(inst)
        rel = res.relaxation
        assert res.value >= rel.zeta_star - 1e-6 * max(1.0, rel.zeta_star)
        assert res.value <= rel.zeta_star + rel.gap + 1e-9 * max(1.0, rel.zeta_star)


def test_oracle_cannot_beat_exact():
    rng = np.random.default_rng(2)
    for k in range(8):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        inst = _halfspace_instance(n, m, 700 + k)
        res = solve_exact(inst)
        orc = solve_global(inst, budget=20_000, rng=np.random.default_rng(k))
        assert orc.value <= res.value + 1e-8 * max(1.0, res.value)


def test_not_applicable_on_spanning_anchors():
    for n in (1, 2, 4):
        pts = np.vstack([np.eye(n), -np.eye(n)])
        inst = DispersionInstance(
            dim=n, points=pts, weights=np.ones(2 * n), geometry=Geometry.BALL
        )
        assert find_sign_direction(inst) is None
        with pytest.raises(NotApplicableError, match="sign system"):
            solve_exact(inst)


def test_single_anchor_always_applies():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        p = rng.normal(size=(1, n))
        inst = DispersionInstance(
            dim=n, points=p, weights=np.ones(1), geometry=Geometry.BALL
        )
        res = solve_exact(inst)
        expect = (1.0 + np.linalg.norm(p)) ** 2
        assert abs(res.value - expect) < 1e-9 * expect


def test_sign_direction_standalone():
    inst = _halfspace_instance(5, 4, seed=77)
    d = find_sign_direction(inst)
    assert d is not None
    assert abs(np.linalg.norm(d) - 1.0) < 1e-10
    assert float(np.max(inst.points @ d)) <= 1e-10


def test_rejects_box_geometry():
    box = generate_random(3, 3, seed=4, geometry=Geometry.BOX)
    with pytest.raises(ValueError):
        solve_exact(box)


def test_more_anchors_than_dim_can_still_apply():
    # m > n forces the LP route instead of the null-space route
    rng = np.random.default_rng(5)
    n = 3
    pts = rng.normal(size=(8, n))
    pts[:, 0] = -np.abs(pts[:, 0]) - 0.1
    inst = DispersionInstance(
        dim=n, points=pts, weights=np.ones(8), geometry=Geometry.BALL
    )
    res = solve_exact(inst)
    assert abs(np.linalg.norm(res.x_opt) - 1.0) < 1e-10
    rel = res.relaxation
    assert res.value >= rel.zeta_star - 1e-6 * max(1.0, rel.zeta_star)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("lp_raises", [False, True])
def test_line_cone_with_more_anchors_than_dim(n, lp_raises, monkeypatch):
    # P = [Q; -Q] pins the sign cone to the line null(Q), with m > n.  Every
    # point of the cone is then an LP optimum, the zero vector included (an
    # interior-point solver may return it), but all anchors except the last
    # leave the same line as null space, so that candidate finds it and no LP
    # is needed
    rng = np.random.default_rng(n)
    Q = rng.normal(size=(n - 1, n))
    pts = np.vstack([Q, -Q])
    inst = DispersionInstance(
        dim=n, points=pts, weights=rng.uniform(0.3, 3.0, 2 * n - 2), geometry=Geometry.BALL
    )
    if lp_raises:

        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called although the null space holds the cone")

        monkeypatch.setattr(maxdisp.exact, "linprog", no_lp)
    d = find_sign_direction(inst)
    assert d is not None
    assert float(np.max(pts @ d)) <= 1e-10
    res = solve_exact(inst)
    assert res.value >= res.relaxation.zeta_star - 1e-9 * max(1.0, res.relaxation.zeta_star)


@pytest.mark.parametrize("p", [(1e-200, 0.0), (1e-300, 1e-300, 0.0)])
def test_lone_tiny_anchor_gets_a_strict_direction(p):
    # a norm that underflows to 0 must not flip the direction toward the anchor
    p = np.array([p])
    inst = DispersionInstance(dim=p.shape[1], points=p, weights=np.ones(1), geometry=Geometry.BALL)
    d = find_sign_direction(inst)
    assert abs(np.linalg.norm(d) - 1.0) < 1e-12
    assert float(p[0] @ d) < 0.0
