"""Randomized rounding samplers: guarantees, acceptance bookkeeping, budgets."""

import hashlib
import math
from itertools import product

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

# the guarantee must hold at every allowed rho, not only near the middle
_SWEEP_RHOS = (0.9, 0.9999, 0.5, 1e-9)


def test_ball_guarantee_sweep():
    # acceptance is a deterministic certificate: once a draw passes the
    # separation test its dispersion clears bound_r * zeta_star
    rng_top = np.random.default_rng(0)
    for k in range(25):
        n = int(rng_top.integers(2, 9))
        m = int(rng_top.integers(2, 15))
        inst = generate_random(n, m, seed=1000 + k)
        rel = solve_cr_ball(inst, tol=1e-9)
        for rho, seed in product(_SWEEP_RHOS, range(3)):
            res = approx_ball(inst, rho, np.random.default_rng(seed))
            assert res.f_value >= res.bound_r * rel.zeta_star - 1e-9, (rho, k)
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
        for rho in _SWEEP_RHOS:
            res = approx_general_fixed(
                inst, rho, np.random.default_rng(k), lift=lift, relaxation=rel
            )
            assert res.f_value >= res.bound_r * rel.zeta_star - 1e-9, (rho, k)
            assert inst.contains(res.x_tilde)
            alpha = math.sqrt(2.0 * math.log(m / rho))
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
    box = generate_random(6, 10, seed=2, geometry=Geometry.BOX)
    for call in (lambda g: approx_ball(inst, 0.5, g, budget=0),
                 lambda g: approx_box_simplified(box, 0.5, g, budget=0),
                 lambda g: approx_general_fixed(box, 0.5, g, budget=0)):
        with pytest.raises(SampleBudgetExceeded) as info:
            call(np.random.default_rng(0))
        assert info.value.draws == 0


@pytest.mark.parametrize("bad", [-1, -128, 2.5, 1e-3, float("nan"), float("inf")])
def test_invalid_budget_raises_before_any_draw(bad):
    ball = generate_random(4, 6, seed=2)
    box = generate_random(4, 6, seed=2, geometry=Geometry.BOX)
    lift = lift_box(solve_cr_box(box), box)
    calls = (lambda g: approx_ball(ball, 0.5, g, budget=bad),
             lambda g: approx_box_simplified(box, 0.5, g, budget=bad),
             lambda g: approx_general_fixed(box, 0.5, g, budget=bad, lift=lift))
    for call in calls:
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="budget"):
            call(rng)
        assert rng.bit_generator.state == state


def test_integral_budgets_of_any_type_accepted():
    inst = generate_random(4, 6, seed=2)
    want = approx_ball(inst, 0.5, np.random.default_rng(4), budget=300)
    for budget in (300.0, np.int64(300), np.float64(300.0)):
        got = approx_ball(inst, 0.5, np.random.default_rng(4), budget=budget)
        assert _outcome(got) == _outcome(want)


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


def _full_batch_rejection(draw, rows, D, norms, alpha, budget, stretch=1.0):
    """The rejection loop without slices: every row of a batch becomes a
    candidate and the whole batch is tested at once."""
    thresholds = alpha * norms
    seen = 0
    while seen < budget:
        take = min(maxdisp.approx._BATCH, budget - seen)
        batch = rows(draw(take))
        proj = batch @ D
        if stretch != 1.0:
            proj *= stretch
        hits = np.flatnonzero(np.all(proj < thresholds, axis=1))
        if hits.size:
            k = int(hits[0])
            return batch[k].copy(), seen + take, seen + k + 1
        seen += take
    raise SampleBudgetExceeded(seen)


def _sampler_outcomes():
    """Every sampler, rho in {0.9999, 0.5, 1e-9}, n in {2, 5, 20}, m up to 120,
    anchors with zero rows, at budgets that leave partial batches and one-row
    tails; each budget runs six calls on one generator, so the calls after
    an exhausted budget resume its stream."""
    out = []
    for k, (n, m, geom) in enumerate(product(
            (2, 5, 20), (1, 9, 40, 120), (Geometry.BALL, Geometry.BOX))):
        ball = geom is Geometry.BALL
        if ball and n == 2:
            # anchors spread over 90 % of the circle: at rho 0.9999 about one
            # draw in ten passes, so acceptances land past the first 8 rows
            angle = 1.8 * np.pi * np.arange(m) / m
            points = np.column_stack([np.cos(angle), np.sin(angle)])
            points[0] = 0.0
        else:
            points = np.random.default_rng(k).uniform(-1.0, 1.0, size=(m, n))
            points[::3] = 0.0  # every anchor zero when m = 1
        inst = DispersionInstance(n, points, np.ones(m), geom)
        rel = (solve_cr_ball if ball else solve_cr_box)(inst)
        lift = (lift_ball if ball else lift_box)(rel, inst)
        own = approx_ball if ball else approx_box_simplified
        samplers = (own, lambda i, r, g, b: approx_general_fixed(i, r, g, b, lift=lift))
        for (s, sampler), rho, budget in product(
                enumerate(samplers), (0.9999, 0.5, 1e-9), (1, 2, 8, 9, 10, 130, 137)):
            rng = np.random.default_rng([k, s, budget])
            for _ in range(6):
                try:
                    res = sampler(inst, rho, rng, budget)
                except SampleBudgetExceeded as exc:
                    out.append(("exceeded", budget, exc.draws))
                else:
                    out.append((res.x_tilde.tobytes(), budget, res.accepted_at,
                                res.raw_samples, res.f_value))
    return out


def test_lazy_rejection_matches_full_batch_reference(monkeypatch):
    lazy = _sampler_outcomes()
    monkeypatch.setattr(maxdisp.approx, "_rejection", _full_batch_rejection)
    reference = _sampler_outcomes()
    assert lazy == reference
    # the sweep reaches the second slice, at its first row too, and exhausts budgets
    accepted = [row[2] for row in reference if row[0] != "exceeded" and row[1] >= 10]
    assert 9 in accepted and any(at > 9 for at in accepted)
    assert any(row[0] == "exceeded" for row in reference)


def _outcome(res):
    return (res.x_tilde.tobytes(), res.f_value, res.raw_samples, res.accepted_at,
            res.alpha_used, res.bound_r, res.refined_bound)


@pytest.mark.parametrize("geom", [Geometry.BALL, Geometry.BOX])
def test_prepared_tests_match_fresh_instances(geom):
    # the tests a sampler keeps on an instance never change a result: every
    # call equals one on a fresh equal instance, whatever lift came before it
    ball = geom is Geometry.BALL
    points = np.random.default_rng(21).uniform(-1.0, 1.0, size=(30, 5))
    points[3] = 0.0
    inst = DispersionInstance(5, points, np.ones(30), geom)
    lift = (lift_ball if ball else lift_box)((solve_cr_ball if ball else solve_cr_box)(inst), inst)
    other = lift.copy()
    other[np.diag_indices(5)] *= np.linspace(0.25, 4.0, 5)

    def fresh():
        return DispersionInstance(5, points, np.ones(30), geom)

    def general(target, L, rng):
        return _outcome(approx_general_fixed(target, 0.5, rng, lift=L))

    own = approx_ball if ball else approx_box_simplified
    calls = [lambda t, g: _outcome(own(t, 0.5, g))] + [
        lambda t, g, L=L: general(t, L, g) for L in (lift, other, lift, other, other)]
    for seed in range(3):
        # the kept calls run back to back: a fresh call between them would
        # replace the one kept entry
        kept, new = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [call(inst, kept) for call in calls * 2]
        assert got == [call(fresh(), new) for call in calls * 2], seed
    # the lifts lead to different results, so a stale test would show
    assert general(inst, lift, np.random.default_rng(7)) != general(
        inst, other, np.random.default_rng(7))
    # a writable lift overwritten in place between calls
    buf = lift.copy()
    first = general(inst, buf, np.random.default_rng(7))
    buf[...] = other
    assert general(inst, buf, np.random.default_rng(7)) == general(
        fresh(), other, np.random.default_rng(7))
    buf[...] = lift
    assert general(inst, buf, np.random.default_rng(7)) == first
    # the same bytes in a shape that is no lift
    with pytest.raises(ValueError):
        approx_general_fixed(inst, 0.5, np.random.default_rng(7), lift=lift.reshape(1, -1))


def test_kept_test_matches_its_instance_by_identity(monkeypatch):
    # an equal but distinct instance prepares its own test, so a fresh equal
    # instance never reads the entry a kept call built
    calls, real = [], maxdisp.approx._prepare
    monkeypatch.setattr(maxdisp.approx, "_prepare", lambda d: calls.append(None) or real(d))
    monkeypatch.setattr("maxdisp.instance._KEPT", {})
    inst = generate_random(4, 6, seed=8, geometry=Geometry.BOX)
    twin = DispersionInstance(inst.dim, inst.points, inst.weights, inst.geometry)
    assert twin == inst
    for target, builds in ((inst, 1), (inst, 1), (twin, 2), (twin, 2), (inst, 3)):
        approx_box_simplified(target, 0.5, np.random.default_rng(0))
        assert len(calls) == builds


def _with(lift, index, value):
    lift = lift.copy()
    lift[index] = value
    return lift


@pytest.mark.parametrize("geom", [Geometry.BALL, Geometry.BOX])
@pytest.mark.parametrize("spoil, match", [
    pytest.param(lambda lift: _with(lift, (0, 0), np.nan), "not finite", id="nan-diagonal"),
    pytest.param(lambda lift: _with(lift, (4, 4), np.inf), "not finite", id="inf-corner"),
    pytest.param(lambda lift: _with(lift, (4, 4), -1.0), r"lift\[4, 4\] must be positive",
                 id="negative-corner"),
    pytest.param(lambda lift: np.eye(6), r"shape \(6, 6\), expected \(5, 5\) at n = 4",
                 id="too-large"),
    pytest.param(lambda lift: _with(lift, (1, 1), np.nan).tolist(), "not finite",
                 id="nested-list"),
    pytest.param(lambda lift: [[1.0, 2.0], [3.0]], "not an array of numbers", id="ragged-list"),
    pytest.param(lambda lift: _with(lift.astype(object), (0, 0), object()),
                 "not an array of numbers", id="object-dtype"),
])
def test_malformed_lift_raises_before_any_draw(geom, spoil, match):
    ball = geom is Geometry.BALL
    inst = generate_random(4, 6, seed=8, geometry=geom)
    bad = spoil((lift_ball if ball else lift_box)(
        (solve_cr_ball if ball else solve_cr_box)(inst), inst))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for _ in range(2):  # a refused lift is not kept
        with pytest.raises(ValueError, match=match):
            approx_general_fixed(inst, 0.5, rng, lift=bad)
    assert rng.bit_generator.state == state


# the sha256 of every result field over _mix_digest's calls, captured before
# approx_ball kept its per-rho constants and _result stopped calling evaluate
SAMPLER_MIX_SHA256 = "c6ec2b9b31c102e48ddf35c69eb9d5711a1c6cfe37d6da3f363eac6c5c649c55"


def _mix_digest():
    """sha256 over all three samplers on ball and box, n in {5, 20}, m in
    {6, 120}, rho in {0.9999, 0.5, 1e-9}, four calls on each generator."""
    h = hashlib.sha256()
    for k, (geom, n, m) in enumerate(product((Geometry.BALL, Geometry.BOX), (5, 20), (6, 120))):
        ball = geom is Geometry.BALL
        inst = generate_random(n, m, seed=k, geometry=geom)
        lift = (lift_ball if ball else lift_box)((solve_cr_ball if ball else solve_cr_box)(inst), inst)
        own = approx_ball if ball else approx_box_simplified
        samplers = (own, lambda i, r, g: approx_general_fixed(i, r, g, lift=lift))
        for (s, sampler), (j, rho) in product(enumerate(samplers), enumerate((0.9999, 0.5, 1e-9))):
            rng = np.random.default_rng([k, s, j])
            for _ in range(4):
                res = sampler(inst, rho, rng)
                h.update(res.x_tilde.tobytes())
                h.update(repr((res.f_value, res.raw_samples, res.accepted_at, res.alpha_used,
                               res.bound_r, res.refined_bound)).encode())
    return h.hexdigest()


def test_sampler_mix_digest():
    assert _mix_digest() == SAMPLER_MIX_SHA256


def test_kept_ball_constants_match_fresh_instances():
    # approx_ball keeps alpha and its bounds for the last rho: one instance
    # served alternating rho gives what fresh equal instances give, including
    # rho/m >= 0.5, where alpha is 0
    points = np.random.default_rng(22).uniform(-1.0, 1.0, size=(30, 5))
    one = np.array([[0.3, -0.2, 0.4]])
    for pts, rhos in ((points, (0.9999, 0.5, 1e-9, np.float64(0.5), 0.5, 0.9999, 1e-9)),
                      (one, (0.7, 0.5, 1e-9, np.float64(0.7), 0.7, 0.4))):
        m, n = pts.shape
        inst = DispersionInstance(n, pts, np.ones(m), Geometry.BALL)
        kept, new = np.random.default_rng(3), np.random.default_rng(3)
        # the kept calls run back to back, as in the test above
        got = [approx_ball(inst, rho, kept) for rho in rhos * 2]
        for res, rho in zip(got, rhos * 2):
            assert _outcome(res) == _outcome(
                approx_ball(DispersionInstance(n, pts, np.ones(m), Geometry.BALL), rho, new))
            assert (res.alpha_used == 0.0) == (rho / m >= 0.5)


def test_f_value_is_evaluate_bit_for_bit(monkeypatch):
    # every result of the lazy-rejection sweep scores its point exactly as
    # evaluate does
    seen = []
    real = maxdisp.approx._result

    def recording(inst, *args):
        res = real(inst, *args)
        seen.append((inst, res))
        return res

    monkeypatch.setattr(maxdisp.approx, "_result", recording)
    _sampler_outcomes()
    assert len(seen) > 1000
    for inst, res in seen:
        assert res.f_value == evaluate(inst, res.x_tilde).value


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
