"""Acceptance suite: twelve numbered criteria, one verdict line each.

Each test prints exactly one line of the form

    [acceptance] criterion NN PASS|FAIL (detail)

through the capture-disabled channel, so the verdicts are visible in plain
pytest output. Tolerances are pinned in the assertions, not configurable.

Criterion 02 is expected to FAIL: its second clause asserts a chained
comparison between the per-dimension tail maxima at one checkpoint and the
Gaussian-style envelope at the next checkpoint, and that chain is false as
stated (the first checkpoint pair already violates it by an order of
magnitude, see the detail line). The clause is implemented faithfully and
left red rather than weakened.
"""

import json
import math
import time

import numpy as np
import pytest

from maxdisp import (
    DispersionInstance,
    Geometry,
    NotApplicableError,
    bqp_enumerate,
    build_hardness,
    evaluate,
    g_of_t,
    generate_random,
    lift_ball,
    approx_ball,
    qcqp_grid_value,
    qcqp_value,
    solve_cr_ball,
    solve_exact,
    solve_global,
    tail_s,
    verify_reduction,
)
from maxdisp.cli import main as cli_main


def _emit(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_tail_closed_form(capsys):
    t0 = time.perf_counter()
    ok = abs(tail_s(2, 1.0) - 0.25) <= 1e-12
    for n in range(2, 61):
        ok = ok and abs(tail_s(n, 0.0) - 0.5) <= 1e-12
        ok = ok and tail_s(n, math.sqrt(n) + 1e-9) == 0.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _emit(capsys, 1, ok, f"anchors at n=2..60, {elapsed:.2f}s")


def test_criterion_02_tail_envelope_and_checkpoint_chain(capsys):
    t0 = time.perf_counter()
    alphas = 0.1 * np.arange(1, 80)
    envelope = np.exp(-0.45 * alphas**2)
    grid_ok = True
    min_margin = math.inf
    for n in range(2, 61):
        vals = np.array([tail_s(n, float(a)) for a in alphas])
        margins = envelope - vals
        min_margin = min(min_margin, float(margins.min()))
        grid_ok = grid_ok and bool(np.all(vals < envelope))

    checkpoints = [0.0, 1.2, 2.9, 3.8, 4.9, 6.3]
    chain_ok = True
    first_violation = None
    for lo, hi in zip(checkpoints[:-1], checkpoints[1:]):
        peak = max(tail_s(n, lo) for n in range(2, 40))
        target = math.exp(-0.45 * hi * hi)
        if not peak < target:
            chain_ok = False
            if first_violation is None:
                first_violation = (lo, hi, peak, target)
    elapsed = time.perf_counter() - t0
    ok = grid_ok and chain_ok and elapsed < 10.0
    detail = f"grid min margin {min_margin:.3e}, {elapsed:.2f}s"
    if first_violation is not None:
        lo, hi, peak, target = first_violation
        detail += (
            f"; chain broken at ({lo}, {hi}): max_n S(n, {lo}) = {peak:.6f}"
            f" >= exp(-0.45*{hi}^2) = {target:.6f}"
        )
    _emit(capsys, 2, ok, detail)


def test_criterion_03_monte_carlo_tail(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    ok = True
    details = []
    for n, alpha in ((5, 1.0), (10, 2.0), (40, 3.0)):
        p = tail_s(n, alpha)
        total = 1_000_000
        hits = 0
        for _ in range(4):
            raw = rng.standard_normal((250_000, n))
            first = raw[:, 0] / np.linalg.norm(raw, axis=1)
            hits += int(np.count_nonzero(math.sqrt(n) * first >= alpha))
        emp = hits / total
        se = math.sqrt(p * (1.0 - p) / total)
        ok = ok and abs(emp - p) <= 4.0 * se
        details.append(f"({n},{alpha}): {abs(emp - p) / se:.2f}se")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _emit(capsys, 3, ok, ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_04_exact_tightness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(40)
    ok = True
    for k in range(100):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, n + 1))
        inst = generate_random(n, m, seed=4000 + k)
        res = solve_exact(inst)
        rel = res.relaxation
        ok = ok and abs(float(np.linalg.norm(res.x_opt)) - 1.0) <= 1e-10
        ok = ok and res.value >= rel.zeta_star - 1e-6
        orc = solve_global(inst, budget=1000, rng=np.random.default_rng(k))
        ok = ok and orc.value <= rel.zeta_star + rel.gap + 1e-9
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _emit(capsys, 4, ok, f"100 instances m<=n<=10, {elapsed:.1f}s")


def test_criterion_05_line_segment_gap(capsys):
    inst = DispersionInstance(
        dim=1,
        points=np.array([[1.0], [-1.0]]),
        weights=np.ones(2),
        geometry=Geometry.BALL,
    )
    orc = solve_global(inst, budget=10_000, rng=np.random.default_rng(0))
    rel = solve_cr_ball(inst, tol=1e-10)
    ok = abs(orc.value - 1.0) <= 1e-9 and abs(rel.zeta_star - 2.0) <= 1e-9
    raised = False
    try:
        solve_exact(inst)
    except NotApplicableError:
        raised = True
    ok = ok and raised
    _emit(
        capsys,
        5,
        ok,
        f"oracle {orc.value:.9f}, relaxation {rel.zeta_star:.9f}, exact not applicable",
    )


def test_criterion_06_three_point_example(capsys):
    inst = DispersionInstance(
        dim=2,
        points=np.array([[1.0, 2.0], [2.0, 3.0], [1.0, 5.0]]),
        weights=np.ones(3),
        geometry=Geometry.BALL,
    )
    rel = solve_cr_ball(inst, tol=1e-10)
    ok = abs(rel.zeta_star - 1.0 / 0.0955) <= 0.005 * (1.0 / 0.0955)
    Z = lift_ball(rel, inst)
    corner = float(Z[2, 2])
    ok = ok and abs(corner - 0.0955) <= 0.005 * 0.0955
    # prior sign-sampler bound at the reported concentration 0.8: its maximum
    # over rho <= 1 is attained at rho = 1, where it is already negative
    prior_bound = (1.0 - math.sqrt(2.0 * math.log(3.0 / 1.0) * 0.8)) / 2.0
    ok = ok and prior_bound < -0.1629
    _emit(
        capsys,
        6,
        ok,
        f"zeta* {rel.zeta_star:.6f}, corner {corner:.6f}, prior bound {prior_bound:.6f}",
    )


def test_criterion_07_deterministic_guarantee(capsys):
    t0 = time.perf_counter()
    ok = True
    worst_slack = math.inf
    for k in range(100):
        m = 6 + (k % 25)
        inst = generate_random(5, m, seed=7000 + k)
        rel = solve_cr_ball(inst)
        for j in range(10):
            res = approx_ball(inst, 0.9999, np.random.default_rng([k, j]))
            lower = res.bound_r * rel.zeta_star
            ok = ok and res.f_value > lower - 1e-9
            ok = ok and lower > 0.0
            worst_slack = min(worst_slack, res.f_value - lower)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _emit(
        capsys,
        7,
        ok,
        f"1000 runs, min(f - r*zeta*) = {worst_slack:.3e}, {elapsed:.1f}s",
    )


def test_criterion_08_acceptance_rate(capsys):
    rho, n, m = 0.5, 10, 8
    inst = generate_random(n, m, seed=88)
    from maxdisp import tail_s_inverse

    alpha = tail_s_inverse(n, rho / m)
    norms = np.linalg.norm(inst.points, axis=1)
    rng = np.random.default_rng(8)
    draws = 10_000
    raw = rng.standard_normal((draws, n))
    unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    lhs = math.sqrt(n) * (unit @ inst.points.T)
    accepted = np.all(lhs < alpha * norms[None, :], axis=1)
    freq = float(np.mean(accepted))
    se = math.sqrt(freq * (1.0 - freq) / draws)
    ok = freq >= 1.0 - rho - 4.0 * se
    _emit(capsys, 8, ok, f"freq {freq:.4f} vs floor {1.0 - rho:.4f} - 4se")


def test_criterion_09_hardness_identities(capsys):
    ok = True
    for a in ((1, 1, 1, 1, 2), (1, 1, 1, 3, 5), (2, 3, 5, 7, 11)):
        art = build_hardness(a)
        a_vec = np.asarray(a, dtype=float)
        lam = np.diag(art.lambda_diag)
        ok = ok and bool(
            np.all(np.abs(np.linalg.norm(art.L, axis=1) - 1.0) <= 1e-8)
        )
        resid = art.L @ art.L.T @ (lam - np.outer(a_vec, a_vec)) - np.eye(len(a))
        ok = ok and float(np.max(np.abs(resid))) <= 1e-7
        quad = float(a_vec @ np.linalg.solve(lam, a_vec))
        ok = ok and abs(quad - art.t_star) <= 1e-8
        ok = ok and abs(g_of_t(a, art.t_star)) <= 1e-13
    _emit(capsys, 9, ok, "three integer vectors, all four identities")


def test_criterion_10_scalarized_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    ok = True
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        M = rng.normal(size=(n, n))
        Q = M @ M.T + float(rng.uniform(0.01, 0.5)) * np.eye(n)
        closed = qcqp_value(Q)
        v = bqp_enumerate(Q)
        expect = 2.0 - 1.0 / math.sqrt(v) if v >= 1.0 else 1.0
        ok = ok and closed == expect
        diff = abs(closed - qcqp_grid_value(Q))
        worst = max(worst, diff)
        ok = ok and diff <= 1e-6
    elapsed = time.perf_counter() - t0
    _emit(capsys, 10, ok, f"50 matrices, worst grid gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_11_reduction_round_trip(capsys):
    feas = build_hardness((1, 1, 1, 1, 2))
    rep_f = verify_reduction(feas, budget=50_000, rng=np.random.default_rng(0))
    formula_f = 2.0 - 2.0 / math.sqrt(rep_f.trace_lambda)
    ok = rep_f.partition_feasible
    ok = ok and abs(rep_f.oracle_value - formula_f) <= 1e-3

    infeas = build_hardness((1, 1, 1, 3, 5))
    rep_i = verify_reduction(infeas, budget=50_000, rng=np.random.default_rng(0))
    formula_i = 2.0 - 2.0 / math.sqrt(rep_i.trace_lambda)
    margin = formula_i - rep_i.predicted_value
    ok = ok and not rep_i.partition_feasible
    ok = ok and rep_i.oracle_value < formula_i
    ok = ok and formula_i - rep_i.oracle_value >= margin - 1e-3
    _emit(
        capsys,
        11,
        ok,
        f"feasible gap {abs(rep_f.oracle_value - formula_f):.2e}, "
        f"infeasible short by {formula_i - rep_i.oracle_value:.2e} (predicted {margin:.2e})",
    )


def test_criterion_12_benchmark_protocol(capsys, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "bench.csv"
    rc = cli_main(
        ["bench", "--n", "5", "--m", "6..30", "--runs", "10", "--rho", "0.9999",
         "--out", str(out)]
    )
    elapsed = time.perf_counter() - t0
    ok = rc == 0 and elapsed < 300.0
    rows = out.read_text().strip().splitlines()
    ok = ok and len(rows) == 26  # header + 25 rows
    negative_prior = 0
    for row in rows[1:]:
        tok = row.split(",")
        m = int(tok[0])
        (v_oracle, v_cr, gen_vmax, gen_vmin, gen_vave, gen_lb,
         new_vmax, new_vmin, new_vave, new_lb) = map(float, tok[1:])
        ok = ok and 6 <= m <= 30
        ok = ok and v_oracle <= v_cr + 1e-9
        ok = ok and gen_vmin <= gen_vave <= gen_vmax + 1e-12
        ok = ok and new_vmin <= new_vave <= new_vmax + 1e-12
        ok = ok and gen_vmax <= v_oracle + 1e-9
        ok = ok and new_vmax <= v_oracle + 1e-9
        ok = ok and new_lb > 0.0
        ok = ok and new_vave > new_lb
        if gen_lb < 0.0:
            negative_prior += 1
    _emit(
        capsys,
        12,
        ok,
        f"25 rows, prior lower bound negative on {negative_prior}/25, {elapsed:.1f}s",
    )
