"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

* replay: the `protocol` workload's layer calls rebuild the CSV of
  `to_csv(run_benchmark(...))` byte for byte (m = 6..8, seeds 0 and 1);
* counts: two passes at one seed over the same instances give identical
  oracle `method_trace` counts, relaxation iterations, sampler calls, draws
  and summed accepted_at indices;
* coverage: every check of a workload runs on it, and failures appear only
  where known (the deep-tail `tail_s_inverse` inversions on `sample-deep`);
* corruption: each check rejects a deliberately corrupted result.

Prints one PASS/FAIL line per test and exits 1 if any failed.
"""

from __future__ import annotations

import dataclasses
import sys

from run import timed_pass  # puts ./src on the path first

from maxdisp import (
    approx_ball,
    run_benchmark,
    solve_cr_ball,
    solve_global,
    tail_s_inverse,
    to_csv,
)

from harness import Op, Recorder, Tally, TAIL_REL_ERR_LIMIT, reference_tail
from workloads import (
    PROTOCOL_BUDGET,
    PROTOCOL_N,
    PROTOCOL_RHO,
    PROTOCOL_RUNS,
    SAMPLE_M,
    SAMPLE_N,
    SAMPLE_RHOS,
    WORKLOADS,
    State,
    _rng,
    _tiny,
    BALL,
    protocol_instances,
    protocol_record,
)

COUNT_INSTANCES = {"protocol": 2, "tight": 12, "relax-large": 3, "sample": 6, "sample-deep": 6}
COMMON = {"relax.feasible", "relax.zeta_recomputed"}
ORACLE = {"oracle.feasible", "oracle.value_recomputed"}
APPROX = {"approx.feasible", "approx.f_value_recomputed", "approx.ball_guarantee"}
EXACT = {"exact.feasible", "exact.value_recomputed"}
EXPECTED_CHECKS = {
    "protocol": COMMON | ORACLE | APPROX | {
        "c12.oracle_le_relaxation", "c12.gen_order", "c12.new_order", "c12.gen_le_oracle",
        "c12.new_le_oracle", "c12.new_lb_positive", "c12.new_mean_above_lb"},
    "tight": COMMON | ORACLE | EXACT | {
        "c04.exact_on_sphere", "c04.exact_reaches_relaxation", "c04.oracle_le_bound"},
    "relax-large": COMMON | APPROX | EXACT,
    "sample": COMMON | APPROX | {"tail.inverse_rel_err"},
    "sample-deep": COMMON | APPROX | {"tail.inverse_rel_err"},
}
# labels allowed to fail at the current code: the known tail_s_inverse defect,
# which only `sample-deep` (tail inversion at rho = 1e-9) reaches
KNOWN_FAILURES = {"sample-deep": {"tail.inverse_rel_err"}}


def replay(seeds=(0, 1), m_values=range(6, 9)):
    protocol = WORKLOADS["protocol"]
    for seed in seeds:
        insts = protocol_instances(seed, m_values)
        state = State(seed, [])
        rows = []
        for m in m_values:
            out = protocol.pipeline(state, (m, insts[m]), 0, Recorder(False))
            rows.append(protocol_record(m, out))
        ours = to_csv(rows)
        ref = to_csv(run_benchmark(n=PROTOCOL_N, m_values=m_values, runs=PROTOCOL_RUNS,
                                   rho=PROTOCOL_RHO, seed=seed, oracle_budget=PROTOCOL_BUDGET))
        if ours != ref:
            return False, f"seed {seed}: replay CSV differs\n{ours}---\n{ref}"
    return True, f"CSV identical at seeds {list(seeds)}, m {m_values.start}..{m_values.stop - 1}"


def counted_pass(name, seed):
    workload = WORKLOADS[name]
    rec, tally = Recorder(False), Tally()
    state = workload.setup(seed, rec, tally)
    timed_pass(workload, state, rec, tally, count=COUNT_INSTANCES[name])
    return tally


def counts_and_coverage(seed=3):
    ok, lines = True, []
    for name in WORKLOADS:
        first, second = counted_pass(name, seed), counted_pass(name, seed)
        same = first.counts() == second.counts()
        missing = sorted(EXPECTED_CHECKS[name] - {k for k, v in first.checks.items() if v[0]})
        failing = {k for k, v in first.checks.items() if v[1]}
        unexpected = sorted(failing - KNOWN_FAILURES.get(name, set()))
        ok = ok and same and not missing and not unexpected
        summary = {k: v for k, v in first.counts().items() if v}
        lines.append(f"  {name}: counts identical={same}, missing checks={missing}, "
                     f"unexpected failures={unexpected}, failed {first.failed}/"
                     f"{first.attempted}, counts {summary}")
    return ok, "\n".join(lines)


def tail_failures():
    """Every (n, m, rho) of `sample-deep` whose tail inversion fails the check."""
    bad = []
    for n in SAMPLE_N:
        for m in SAMPLE_M:
            for rho in SAMPLE_RHOS:
                alpha = tail_s_inverse(n, rho / m)
                err = abs(reference_tail(n, alpha) / (rho / m) - 1.0)
                if err > TAIL_REL_ERR_LIMIT:
                    bad.append((n, m, rho, err))
    ok = all(rho == 1e-9 for _, _, rho, _ in bad)
    worst = max((e for *_, e in bad), default=0.0)
    return ok, (f"{len(bad)} of {len(SAMPLE_N) * len(SAMPLE_M) * len(SAMPLE_RHOS)} "
                f"(n, m, rho) fail, all at rho=1e-9: {ok}; worst |S/beta - 1| = {worst:.3g}")


def corruption():
    inst = _tiny(BALL)
    rr = solve_cr_ball(inst)
    ar = approx_ball(inst, 0.5, _rng(1))
    orc = solve_global(inst, budget=1000, rng=_rng(1))
    alpha = tail_s_inverse(inst.dim, 0.01)
    cases = {
        "relax.zeta_recomputed": lambda t, op: t.relaxation(
            op, inst, dataclasses.replace(rr, zeta_star=rr.zeta_star * (1 + 1e-6))),
        "relax.feasible": lambda t, op: t.relaxation(
            op, inst, dataclasses.replace(rr, x_star=rr.x_star * 0.0 + 2.0)),
        "approx.f_value_recomputed": lambda t, op: t.sampler(
            op, "ball", inst, dataclasses.replace(ar, f_value=ar.f_value * (1 - 1e-9)), rr.zeta_star),
        "approx.ball_guarantee": lambda t, op: t.sampler(
            op, "ball", inst, dataclasses.replace(ar, bound_r=2.0), rr.zeta_star),
        "approx.feasible": lambda t, op: t.sampler(
            op, "ball", inst, dataclasses.replace(ar, x_tilde=ar.x_tilde * 3.0), rr.zeta_star),
        "oracle.value_recomputed": lambda t, op: t.oracle_result(
            op, inst, dataclasses.replace(orc, value=orc.value + 1e-3), rr.zeta_star),
        "tail.inverse_rel_err": lambda t, op: t.tail_inverse(op, inst.dim, 0.01, alpha * 0.9),
    }
    missed = []
    for label, corrupt in cases.items():
        tally, op = Tally(), Op("corrupted")
        corrupt(tally, op)
        if label not in op.failed:
            missed.append(label)
    return not missed, f"{len(cases) - len(missed)} of {len(cases)} corruptions caught {missed or ''}"


def main():
    failed = False
    for name, test in (("replay", replay), ("counts+coverage", counts_and_coverage),
                       ("tail-failures", tail_failures), ("corruption", corruption)):
        ok, detail = test()
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
