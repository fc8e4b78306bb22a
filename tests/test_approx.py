"""Randomized rounding samplers: guarantees, acceptance bookkeeping, budgets."""

import math

import numpy as np
import pytest

import maxdisp.approx
from maxdisp import (
    DispersionInstance,
    Geometry,
    SampleBudgetExceeded,
    approx_ball,
    approx_box_simplified,
    approx_general_fixed,
    bound_refined,
    evaluate,
    gamma1,
    generate_random,
    lift_ball,
    lift_box,
    solve_cr_ball,
    solve_cr_box,
    tail_s_inverse,
)


def test_ball_guarantee_sweep():
    # acceptance is a deterministic certificate: once a draw passes the
    # separation test its dispersion clears bound_r * zeta_star
    rng_top = np.random.default_rng(0)
    for k in range(25):
        n = int(rng_top.integers(2, 9))
        m = int(rng_top.integers(2, 15))
        inst = generate_random(n, m, seed=1000 + k)
        rel = solve_cr_ball(inst, tol=1e-9)
        for seed in range(3):
            res = approx_ball(inst, 0.9, np.random.default_rng(seed))
            assert res.f_value >= res.bound_r * rel.zeta_star - 1e-9
            assert abs(evaluate(inst, res.x_tilde).value - res.f_value) < 1e-12 * max(
                1.0, res.f_value
            )
            assert np.linalg.norm(res.x_tilde) <= 1.0 + 1e-12


def test_ball_threshold_formula():
    inst = generate_random(5, 8, seed=4)
    res = approx_ball(inst, 0.8, np.random.default_rng(0))
    alpha = tail_s_inverse(5, 0.8 / 8)
    assert abs(res.alpha_used - alpha) < 1e-12
    assert abs(res.bound_r - (1.0 - alpha / math.sqrt(5)) / 2.0) < 1e-12
    assert res.refined_bound is not None
    assert abs(res.refined_bound - bound_refined(inst, 0.8)) < 1e-15


def test_ball_surrogate_threshold_when_ratio_large():
    # a single anchor at rho >= 0.5 per anchor pushes the threshold to zero
    inst = generate_random(4, 1, seed=9)
    res = approx_ball(inst, 0.6, np.random.default_rng(2))
    assert res.alpha_used == 0.0
    assert res.bound_r == 0.5


@pytest.mark.parametrize("geom", [Geometry.BALL, Geometry.BOX])
def test_general_guarantee_sweep(geom):
    rng_top = np.random.default_rng(1)
    solver = solve_cr_ball if geom is Geometry.BALL else solve_cr_box
    lifter = lift_ball if geom is Geometry.BALL else lift_box
    for k in range(10):
        n = int(rng_top.integers(2, 7))
        m = int(rng_top.integers(2, 10))
        inst = generate_random(n, m, seed=2000 + k, geometry=geom)
        rel = solver(inst, tol=1e-9)
        lift = lifter(rel, inst)
        res = approx_general_fixed(
            inst, 0.9, np.random.default_rng(k), lift=lift, relaxation=rel
        )
        assert res.f_value >= res.bound_r * rel.zeta_star - 1e-9
        assert inst.contains(res.x_tilde)
        alpha = math.sqrt(2.0 * math.log(m / 0.9))
        assert abs(res.alpha_used - alpha) < 1e-12
        g1 = gamma1(lift)
        assert abs(res.bound_r - (1.0 - alpha * math.sqrt(g1)) / 2.0) < 1e-10
        assert res.refined_bound is None


def test_general_solves_internally_when_not_given():
    inst = generate_random(3, 4, seed=5, geometry=Geometry.BOX)
    a = approx_general_fixed(inst, 0.7, np.random.default_rng(11))
    rel = solve_cr_box(inst)
    b = approx_general_fixed(
        inst, 0.7, np.random.default_rng(11), lift=lift_box(rel, inst), relaxation=rel
    )
    assert np.allclose(a.x_tilde, b.x_tilde, rtol=0, atol=1e-12)
    assert a.accepted_at == b.accepted_at


@pytest.mark.parametrize("geom", [Geometry.BALL, Geometry.BOX])
def test_general_given_a_lift_solves_no_relaxation(geom, monkeypatch):
    # the sampler reads only the lift, so a caller who passes one pays no solve
    ball = geom is Geometry.BALL
    inst = generate_random(3, 4, seed=6, geometry=geom)
    rel = (solve_cr_ball if ball else solve_cr_box)(inst)
    lift = (lift_ball if ball else lift_box)(rel, inst)
    expect = approx_general_fixed(inst, 0.7, np.random.default_rng(12), lift=lift, relaxation=rel)

    def no_solve(*args, **kwargs):
        raise AssertionError("relaxation solved although a lift was given")

    monkeypatch.setattr(maxdisp.approx, "solve_cr_ball", no_solve)
    monkeypatch.setattr(maxdisp.approx, "solve_cr_box", no_solve)
    res = approx_general_fixed(inst, 0.7, np.random.default_rng(12), lift=lift)
    assert np.array_equal(res.x_tilde, expect.x_tilde)
    assert res.accepted_at == expect.accepted_at


def test_simplified_box_matches_general_pointwise():
    # on the box the corner ratio is exactly 1/n and the lifted scalings are
    # uniform, so both samplers walk the same acceptance path draw by draw
    rng_top = np.random.default_rng(2)
    for k in range(50):
        n = int(rng_top.integers(2, 7))
        m = int(rng_top.integers(2, 9))
        inst = generate_random(n, m, seed=3000 + k, geometry=Geometry.BOX)
        rel = solve_cr_box(inst, tol=1e-9)
        lift = lift_box(rel, inst)
        seed = 4000 + k
        ga = approx_general_fixed(
            inst, 0.85, np.random.default_rng(seed), lift=lift, relaxation=rel
        )
        si = approx_box_simplified(inst, 0.85, np.random.default_rng(seed))
        assert np.array_equal(ga.x_tilde, si.x_tilde)
        assert ga.accepted_at == si.accepted_at
        assert ga.f_value == si.f_value


def test_zero_image_instance_terminates():
    """All anchors at the origin give empty separation tests.

    The first draw is then vacuously accepted and the reported bound is
    honest about being useless (it can go negative), not silently clamped.
    """
    inst = DispersionInstance(
        dim=4,
        points=np.zeros((3, 4)),
        weights=np.array([1.0, 2.0, 0.5]),
        geometry=Geometry.BOX,
    )
    res = approx_general_fixed(inst, 0.3, np.random.default_rng(0))
    assert res.accepted_at == 1
    assert res.f_value > 0.0
    assert res.bound_r < 0.5


def test_budget_zero_always_raises():
    inst = generate_random(6, 10, seed=2)
    with pytest.raises(SampleBudgetExceeded) as info:
        approx_ball(inst, 0.5, np.random.default_rng(0), budget=0)
    assert info.value.draws == 0


def test_budget_exceeded_and_resume():
    # draws fill batches row by row, so a shorter budget sees a prefix of the
    # same stream: stopping one draw before the known acceptance index must
    # raise, and resuming with the same generator lands on that very draw
    inst = generate_random(5, 30, seed=13)
    one_shot = approx_ball(inst, 0.9999, np.random.default_rng(5))
    assert one_shot.accepted_at >= 3  # pinned by the seed above

    rng = np.random.default_rng(5)
    with pytest.raises(SampleBudgetExceeded) as info:
        approx_ball(inst, 0.9999, rng, budget=one_shot.accepted_at - 1)
    assert info.value.draws == one_shot.accepted_at - 1
    resumed = approx_ball(inst, 0.9999, rng)
    assert resumed.accepted_at == 1
    assert np.array_equal(resumed.x_tilde, one_shot.x_tilde)


def test_acceptance_bookkeeping():
    inst = generate_random(5, 6, seed=8)
    res = approx_ball(inst, 0.9, np.random.default_rng(3))
    assert 1 <= res.accepted_at <= res.raw_samples
    again = approx_ball(inst, 0.9, np.random.default_rng(3))
    assert res.accepted_at == again.accepted_at
    assert res.raw_samples == again.raw_samples


def test_mean_waiting_time_reasonable():
    # acceptance probability is at least 1 - rho, so at rho = 0.5 the mean
    # accepted_at over many runs stays close to the geometric mean of 2
    inst = generate_random(10, 8, seed=1)
    rng = np.random.default_rng(10)
    waits = [approx_ball(inst, 0.5, rng).accepted_at for _ in range(300)]
    assert float(np.mean(waits)) <= 2.0 + 3.0 * 2.0 / math.sqrt(300)


def test_input_validation():
    inst = generate_random(4, 5, seed=0)
    box = generate_random(4, 5, seed=0, geometry=Geometry.BOX)
    rng = np.random.default_rng(0)
    for bad_rho in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            approx_ball(inst, bad_rho, rng)
    with pytest.raises(ValueError):
        approx_ball(box, 0.5, rng)
    with pytest.raises(ValueError):
        approx_box_simplified(inst, 0.5, rng)
    line = DispersionInstance(
        dim=1, points=np.array([[0.5]]), weights=np.ones(1), geometry=Geometry.BALL
    )
    with pytest.raises(ValueError):
        approx_ball(line, 0.5, rng)


def test_refined_bound_beats_plain_for_far_anchors():
    pts = 4.0 * np.eye(5)[:3] + 2.0
    far = DispersionInstance(
        dim=5, points=pts, weights=np.ones(3), geometry=Geometry.BALL
    )
    res = approx_ball(far, 0.9, np.random.default_rng(1))
    assert res.refined_bound > res.bound_r
    near = generate_random(5, 3, seed=6)  # anchors inside the ball
    d = float(np.min(np.linalg.norm(near.points, axis=1)))
    if d <= 1.0:
        # distance term collapses to the constant improvement ratio
        nu = 2.0
        expect = nu / (2.0 + nu) - (2.0 / (2.0 + nu)) * math.sqrt(
            20.0 / (9.0 * 5) * math.log(3 / 0.9)
        )
        assert abs(bound_refined(near, 0.9) - expect) < 1e-12
