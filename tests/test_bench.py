"""Golden output of the benchmark protocol.

The refactoring rule for this package is "the same results from less code":
a change that is meant to keep results must leave this CSV byte for byte.
It covers the oracle's enumeration over every active set (m = 6) and over
the sets the lifted hull keeps (m = 12 and 13), and both samplers; a digest
pins the whole protocol (m = 6..30, 10 runs) at the default seed.  A change
that moves a number on purpose updates GOLDEN here and states in its
description which cells moved, by how much, and why.  At m = 13 v_oracle
reaches v_cr, so the relaxation proves it optimal.
"""

import hashlib

import pytest

from maxdisp import run_benchmark, to_csv

GOLDEN = (
    "m,v_oracle,v_cr,gen_vmax,gen_vmin,gen_vave,gen_lb,"
    "new_vmax,new_vmin,new_vave,new_lb\n"
    "6,3.43798265864,3.43798265864,1.45782570859,1.00778503425,1.17322129464,"
    "-0.251957099874,1.78433407454,1.3406584682,1.5008525047,0.890900076077\n"
    "13,2.1756736716,2.1756736716,2.0910506016,0.977640149276,1.51330805412,"
    "-0.61013761541,1.39109607729,1.10849293364,1.27687409675,0.36997086616\n"
)


def test_benchmark_csv_golden():
    records = run_benchmark(n=5, m_values=(6, 13), runs=3, oracle_budget=2000, seed=0)
    assert to_csv(records) == GOLDEN


# captured before the enumeration stopped at n + 1 anchors: the larger active
# sets it used to solve never held the best stationary point
GOLDEN_ENUMERATED = (
    "m,v_oracle,v_cr,gen_vmax,gen_vmin,gen_vave,gen_lb,"
    "new_vmax,new_vmin,new_vave,new_lb\n"
    "12,1.88143923749,1.96692736291,1.26195013331,0.274644634398,0.708085689834,"
    "-0.397698862341,1.02256137533,0.872144713877,0.963318633754,0.349109327261\n"
)


def test_benchmark_csv_golden_enumerated():
    records = run_benchmark(n=5, m_values=(12,), runs=3, oracle_budget=2000, seed=0)
    assert to_csv(records) == GOLDEN_ENUMERATED


# the sha256 of the whole protocol's CSV at the default seed (m = 6..30, 10
# runs each), captured before the interior systems became the sets' own ties
PROTOCOL_SHA256 = "290d5a107955a2e7b3717604cf91bc268835efc6398a469e64a9c38a5cf9a314"


def test_protocol_csv_digest():
    csv = to_csv(run_benchmark(n=5, m_values=range(6, 31), runs=10, seed=0))
    assert hashlib.sha256(csv.encode()).hexdigest() == PROTOCOL_SHA256


@pytest.mark.parametrize("runs", [0, -1])
def test_runs_below_one_rejected_up_front(runs):
    with pytest.raises(ValueError, match="runs"):
        run_benchmark(n=2, m_values=(6,), runs=runs)


@pytest.mark.parametrize("m_values", [(), [], range(6, 6)])
def test_empty_anchor_counts_rejected_up_front(m_values):
    with pytest.raises(ValueError, match="m_values"):
        run_benchmark(n=2, m_values=m_values, runs=1)


@pytest.mark.parametrize("m_values", [(6, 0), (-1,), range(-2, 3)])
def test_nonpositive_anchor_count_rejected_up_front(m_values):
    with pytest.raises(ValueError, match="anchor counts must be positive"):
        run_benchmark(n=2, m_values=m_values, runs=1)
