"""Benchmark harness comparing the two samplers against reference values.

One protocol, fully deterministic given a seed: for each anchor count m a
fresh ball instance is carved out of a single shared uniform stream, the
convex relaxation is solved once, the sampling oracle estimates the true
optimum, and both samplers run `runs` times each from per-run seeded
generators.  Records carry the usual summary statistics plus the per-run
values, and serialize to CSV or a markdown table with stable formatting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .approx import approx_ball, approx_general_fixed
from .instance import DispersionInstance, Geometry
from .oracle import solve_global
from .relax import lift_ball, solve_cr_ball

__all__ = ["BenchRecord", "CSV_HEADER", "run_benchmark", "to_csv", "to_markdown"]

CSV_HEADER = (
    "m,v_oracle,v_cr,gen_vmax,gen_vmin,gen_vave,gen_lb,"
    "new_vmax,new_vmin,new_vave,new_lb"
)

_CSV_FIELDS = CSV_HEADER.split(",")


def _fmt(value: float) -> str:
    return "%.12g" % value


@dataclass(frozen=True)
class BenchRecord:
    """Results for one instance size.

    gen_* columns summarize the lift-driven sign sampler, new_* the direct
    sphere sampler; *_lb are the samplers' guaranteed floors (bound factor
    times the relaxation value).  cr_gap, gen_values and new_values are
    retained for inspection but do not appear in the CSV.
    """

    m: int
    v_oracle: float
    v_cr: float
    gen_vmax: float
    gen_vmin: float
    gen_vave: float
    gen_lb: float
    new_vmax: float
    new_vmin: float
    new_vave: float
    new_lb: float
    cr_gap: float
    gen_values: tuple[float, ...]
    new_values: tuple[float, ...]

    def csv_row(self) -> str:
        cells = [str(self.m)]
        cells += [_fmt(getattr(self, name)) for name in _CSV_FIELDS[1:]]
        return ",".join(cells)


def run_benchmark(
    n: int = 5,
    m_values: Iterable[int] = range(6, 31),
    runs: int = 10,
    rho: float = 0.9999,
    seed: int = 0,
    oracle_budget: int = 200_000,
) -> list[BenchRecord]:
    """Run the full protocol and return one record per anchor count.

    All anchor sets are consecutive blocks of a single uniform [-1, 1]
    stream, so growing m_values extends rather than reshuffles the data.
    """
    m_list = [int(m) for m in m_values]
    if any(m < 1 for m in m_list):
        raise ValueError("anchor counts must be positive")
    total = sum(m_list)
    stream = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    X = stream.uniform(-1.0, 1.0, size=(total, n))

    records: list[BenchRecord] = []
    offset = 0
    for m in m_list:
        pts = X[offset : offset + m]
        offset += m
        inst = DispersionInstance(
            dim=n, points=pts, weights=np.ones(m), geometry=Geometry.BALL
        )
        rr = solve_cr_ball(inst)
        lft = lift_ball(rr, inst)

        oracle_rng = np.random.default_rng(np.random.SeedSequence([seed, m, 1]))
        orc = solve_global(inst, budget=oracle_budget, rng=oracle_rng)

        gen_vals = []
        gen_bound = None
        for k in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence([seed, m, 2, k]))
            res = approx_general_fixed(inst, rho, rng, lift=lft, relaxation=rr)
            gen_vals.append(res.f_value)
            gen_bound = res.bound_r
        new_vals = []
        new_bound = None
        for k in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence([seed, m, 3, k]))
            res = approx_ball(inst, rho, rng)
            new_vals.append(res.f_value)
            new_bound = res.bound_r

        records.append(
            BenchRecord(
                m=m,
                v_oracle=orc.value,
                v_cr=rr.zeta_star,
                gen_vmax=max(gen_vals),
                gen_vmin=min(gen_vals),
                gen_vave=float(np.mean(gen_vals)),
                gen_lb=gen_bound * rr.zeta_star,
                new_vmax=max(new_vals),
                new_vmin=min(new_vals),
                new_vave=float(np.mean(new_vals)),
                new_lb=new_bound * rr.zeta_star,
                cr_gap=rr.gap,
                gen_values=tuple(gen_vals),
                new_values=tuple(new_vals),
            )
        )
    return records


def to_csv(records: Sequence[BenchRecord]) -> str:
    lines = [CSV_HEADER]
    lines += [r.csv_row() for r in records]
    return "\n".join(lines) + "\n"


def to_markdown(records: Sequence[BenchRecord]) -> str:
    header = "| " + " | ".join(_CSV_FIELDS) + " |"
    rule = "|" + "|".join(["---"] * len(_CSV_FIELDS)) + "|"
    lines = [header, rule]
    lines += ["| " + r.csv_row().replace(",", " | ") + " |" for r in records]
    return "\n".join(lines) + "\n"
