"""Partition-based hardness construction and its reduction identities."""

import itertools
import math

import numpy as np
import pytest

from maxdisp import (
    bqp_enumerate,
    build_hardness,
    g_of_t,
    partition_min_imbalance,
    qcqp_grid_value,
    qcqp_value,
    verify_reduction,
)

A_VECTORS = [(1, 1, 1, 1, 2), (1, 1, 1, 3, 5), (2, 3, 5, 7, 11)]


def test_input_validation():
    for bad in ([0, 1], [1.5, 2], []):
        with pytest.raises(ValueError):
            build_hardness(bad)
    with pytest.raises(ValueError):
        g_of_t([1, 2], 0.0)
    with pytest.raises(ValueError):
        g_of_t([1, 2], 1.0)


@pytest.mark.parametrize("a", A_VECTORS)
def test_construction_identities(a):
    art = build_hardness(a)
    a_vec = np.asarray(a, dtype=float)
    n = len(a)
    assert 0.0 < art.t_star < 1.0
    assert abs(art.gamma_val - 1.0 / (1.0 - art.t_star)) < 1e-12 * art.gamma_val
    assert abs(art.g_residual) <= 1e-13
    # rows of the factor are unit vectors
    assert np.allclose(np.linalg.norm(art.L, axis=1), 1.0, rtol=0, atol=1e-8)
    # L L^T inverts the shifted diagonal
    lam = np.diag(art.lambda_diag)
    prod = art.L @ art.L.T @ (lam - np.outer(a_vec, a_vec))
    assert np.allclose(prod, np.eye(n), rtol=0, atol=1e-7)
    # the root equation ties the diagonal back to t*
    quad = float(a_vec @ np.linalg.solve(lam, a_vec))
    assert abs(quad - art.t_star) < 1e-8


@pytest.mark.parametrize("a", A_VECTORS)
def test_emitted_instance_shape(a):
    art = build_hardness(a)
    inst = art.instance
    n = len(a)
    assert inst.dim == n and inst.m == 2 * n
    assert np.allclose(inst.weights, 1.0, rtol=0, atol=0)
    assert np.allclose(inst.points, np.vstack([art.L, -art.L]), rtol=0, atol=0)


def test_g_is_increasing_with_single_root():
    a = (1, 1, 1, 1, 2)
    ts = np.linspace(1e-6, 1 - 1e-6, 400)
    vals = np.array([g_of_t(a, float(t)) for t in ts])
    assert np.all(np.diff(vals) > 0)
    assert vals[0] < 0 < vals[-1]
    art = build_hardness(a)
    lo = [t for t, v in zip(ts, vals) if v < 0][-1]
    hi = [t for t, v in zip(ts, vals) if v > 0][0]
    assert lo <= art.t_star <= hi


def test_bqp_enumeration_against_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        M = rng.normal(size=(n, n))
        Q = (M + M.T) / 2.0
        best = -math.inf
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            s = np.asarray(signs)
            best = max(best, float(s @ Q @ s))
        assert abs(bqp_enumerate(Q) - best) < 1e-12 * max(1.0, abs(best))
        val, arg = bqp_enumerate(Q, with_argmax=True)
        assert abs(float(arg @ Q @ arg) - val) < 1e-12 * max(1.0, abs(val))
        assert np.all(np.abs(arg) == 1.0)


def test_bqp_enumeration_guard():
    with pytest.raises(ValueError):
        bqp_enumerate(np.eye(23))


def test_partition_against_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        a = rng.integers(1, 30, size=n)
        best = min(
            abs(int(np.sum(a * np.asarray(signs))))
            for signs in itertools.product((-1, 1), repeat=n)
        )
        assert partition_min_imbalance(a) == best
    assert partition_min_imbalance([1, 1, 1, 1, 2]) == 0
    assert partition_min_imbalance([1, 1, 1, 3, 5]) == 1
    assert partition_min_imbalance([2, 3, 5, 7, 11]) == 0


def test_qcqp_closed_form_vs_grid():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        M = rng.normal(size=(n, n))
        Q = M @ M.T + 0.05 * np.eye(n)
        assert abs(qcqp_value(Q) - qcqp_grid_value(Q)) < 1e-6


def test_qcqp_rejects_indefinite():
    Q = np.diag([1.0, -0.5])
    with pytest.raises(ValueError):
        qcqp_value(Q)


def test_qcqp_small_matrices_floor_at_one():
    # when the sign maximum stays below 1 the scalar envelope peaks at s = 1
    Q = np.array([[0.01]])
    assert qcqp_value(Q) == 1.0
    assert abs(qcqp_grid_value(Q) - 1.0) < 1e-6


@pytest.mark.parametrize("a", [(1, 1, 2), (1, 1, 1, 1, 2)])
def test_reduction_round_trip(a):
    art = build_hardness(a)
    rep = verify_reduction(art)
    assert rep.abs_difference < 1e-8
    assert rep.partition_feasible == (partition_min_imbalance(a) == 0)
    assert abs(rep.trace_lambda - float(np.sum(art.lambda_diag))) < 1e-10
    # feasible partitions pin the oracle value through the trace
    if rep.partition_feasible:
        expect = 2.0 - 2.0 / math.sqrt(rep.trace_lambda)
        assert abs(rep.oracle_value - expect) < 1e-6
