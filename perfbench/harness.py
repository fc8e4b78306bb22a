"""Measurement core: layer calls, spans, result checks and the metrics built on them.

Every call the benchmark makes into a public maxdisp function goes through
`Recorder.call`, which counts it as one operation and, when tracing is on,
records a span (name, start, end, parent span, instance id).  After an
instance's pipeline has finished, and outside its timed interval, the
workload hands every result to a `Tally`, which runs the correctness checks
and accumulates the counts the per-layer metrics are made of.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from maxdisp import Geometry, NotApplicableError, SampleBudgetExceeded, evaluate, tail_s_inverse
from scipy import special

# span name -> per-layer metric prefix
LAYER_OF_SPAN = {
    "relax.solve_cr_ball": "relax.ball",
    "relax.solve_cr_box": "relax.box",
    "relax.lift_ball": "relax.lift",
    "relax.lift_box": "relax.lift",
    "oracle.solve_global": "oracle",
    "exact.solve_exact": "exact",
    "exact.find_sign_direction": "exact.direction",
    "approx.approx_ball": "approx.ball",
    "approx.approx_general_fixed": "approx.general",
    "approx.approx_box_simplified": "approx.box",
    "tail.tail_s_inverse": "tail.inverse",
}
SAMPLER_KINDS = ("ball", "general", "box")
TAIL_REL_ERR_LIMIT = 1e-3
FEAS_TOL = 1e-9


@dataclass
class Op:
    """One public layer call made by the benchmark."""

    layer: str
    result: object = None
    failed: set = field(default_factory=set)


class Recorder:
    """Makes layer calls, counts them as operations and, if traced, records spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.ops: list[Op] = []
        self.spans: list[tuple] = []  # (id, name, start, end, parent, instance)
        self._stack: list[int] = []
        self.instance = "setup"

    def _span(self, name, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.instance)

    def call(self, layer: str, fn, *args, **kwargs) -> Op:
        op = Op(layer)
        self.ops.append(op)
        if self.traced:
            op.result = self._span(layer, fn, args, kwargs)
        else:
            op.result = fn(*args, **kwargs)
        return op

    def wrap(self, name: str, fn):
        """fn with a span around each call, for calls made inside a layer."""

        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return traced

    def instance_span(self, instance_id, pipeline):
        """Run pipeline() as the root span of one instance."""
        self.instance = instance_id
        try:
            if self.traced:
                return self._span("bench.instance", pipeline, (), {})
            return pipeline()
        finally:
            self.instance = "setup"


def relaxation_value(inst, x) -> float:
    """F(x) = min_i w_i (mu - 2 p_i.x + ||p_i||^2), recomputed from scratch."""
    mu = 1.0 if inst.geometry is Geometry.BALL else float(inst.dim)
    x = np.asarray(x, dtype=float)
    vals = [w * (mu - 2.0 * float(p @ x) + float(p @ p)) for p, w in zip(inst.points, inst.weights)]
    return min(vals)


def reference_tail(n: int, alpha: float) -> float:
    """S(n, alpha) from the complementary incomplete beta, accurate deep in the tail."""
    if alpha * alpha >= n:
        return 0.0
    if n == 2:
        return math.acos(alpha / math.sqrt(2.0)) / math.pi
    return 0.5 * float(special.betaincc(0.5, 0.5 * (n - 1), alpha * alpha / n))


class Tally:
    """Checks results and accumulates the counts of one pass over instances."""

    def __init__(self):
        self.checks = defaultdict(lambda: [0, 0])  # label -> [evaluated, failed]
        self.attempted = 0
        self.failed = 0
        self.relax = {g: defaultdict(float) for g in ("ball", "box")}
        self.oracle = defaultdict(int)
        self.oracle_ratio: list[float] = []
        self.exact_calls = 0
        self.exact_not_applicable = 0
        self.approx = {k: defaultdict(float, slack_min=math.inf) for k in SAMPLER_KINDS}
        # running aggregates and a flat array keep memory flat over a long run
        self.sampler_ratio = array("d")
        self.tail_rel_err_max = 0.0

    # -- bookkeeping ---------------------------------------------------------

    def check(self, op: Op, label: str, ok: bool) -> bool:
        entry = self.checks[label]
        entry[0] += 1
        if not ok:
            entry[1] += 1
            op.failed.add(label)
        return ok

    def close_instance(self, ops, error: BaseException | None):
        """Count an instance's operations; a raised error fails the op in flight."""
        if error is not None:
            self.check(ops[-1], "raised." + type(error).__name__, False)
            if isinstance(error, SampleBudgetExceeded):
                kind = LAYER_OF_SPAN[ops[-1].layer].split(".")[1]
                self.approx[kind]["budget_exceeded"] += 1
            if isinstance(error, NotApplicableError):
                self.exact_calls += 1
                self.exact_not_applicable += 1
        self.attempted += len(ops)
        self.failed += sum(1 for op in ops if op.failed)

    # -- per-layer result accounting and checks ------------------------------

    def relaxation(self, op, inst, res):
        geom = inst.geometry.value
        acc = self.relax[geom]
        acc["solves"] += 1
        acc["iterations"] += res.iterations
        acc["unconverged"] += 0 if res.converged else 1
        gap_rel = res.gap / max(abs(res.zeta_star), 1e-300)
        acc["gap_rel_max"] = max(acc["gap_rel_max"], gap_rel)
        self.check(op, "relax.feasible", inst.contains(res.x_star, FEAS_TOL))
        z = relaxation_value(inst, res.x_star)
        self.check(op, "relax.zeta_recomputed", abs(z - res.zeta_star) <= 1e-9 * max(1.0, abs(z)))

    def oracle_result(self, op, inst, res, upper):
        for key in ("samples", "stationary_candidates", "candidates_refined",
                    "refine_steps", "polish_steps"):
            self.oracle[key] += int(res.method_trace[key])
        self.oracle_ratio.append(res.value / upper)
        self.check(op, "oracle.feasible", inst.contains(res.x_best, FEAS_TOL))
        v = evaluate(inst, res.x_best).value
        self.check(op, "oracle.value_recomputed", abs(v - res.value) <= 1e-9 * max(1.0, abs(v)))

    def exact_result(self, op, inst, res):
        self.exact_calls += 1
        self.relaxation(op, inst, res.relaxation)
        self.check(op, "exact.feasible", inst.contains(res.x_opt, FEAS_TOL))
        self.check(op, "exact.value_recomputed", res.value == evaluate(inst, res.x_opt).value)

    def sampler(self, op, kind, inst, res, zeta):
        acc = self.approx[kind]
        acc["calls"] += 1
        acc["draws"] += res.raw_samples
        acc["accepted_at_sum"] += res.accepted_at
        acc["slack_min"] = min(acc["slack_min"], res.f_value - res.bound_r * zeta)
        self.sampler_ratio.append(res.f_value / zeta)
        self.check(op, "approx.feasible", inst.contains(res.x_tilde, FEAS_TOL))
        self.check(op, "approx.f_value_recomputed", res.f_value == evaluate(inst, res.x_tilde).value)
        if kind == "ball":
            self.check(op, "approx.ball_guarantee", res.f_value >= res.bound_r * zeta - 1e-9)

    def tail_inverse(self, op, n, beta, alpha):
        err = abs(reference_tail(n, alpha) / beta - 1.0)
        self.tail_rel_err_max = max(self.tail_rel_err_max, err)
        self.check(op, "tail.inverse_rel_err", err <= TAIL_REL_ERR_LIMIT)

    # -- summaries -----------------------------------------------------------

    def counts(self) -> dict:
        """Exact counts that repeat at a fixed seed and instance list."""
        out = {}
        for g in ("ball", "box"):
            out[f"relax.{g}.iterations"] = int(self.relax[g]["iterations"])
        for key, val in sorted(self.oracle.items()):
            out[f"oracle.{key}"] = val
        for k in SAMPLER_KINDS:
            for key in ("calls", "draws", "accepted_at_sum"):
                out[f"approx.{k}.{key}"] = int(self.approx[k][key])
        return out


def percentile_tail(times):
    """(value, percentile, count): the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no such percentile exists and the maximum
    (percentile 100) is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _median(values, empty=0.0):
    return float(statistics.median(values)) if values else empty


def layer_metrics(spans, tally: Tally, traced_rate: float, untraced_rate: float) -> dict:
    """The per-layer metrics of a traced pass, as name -> (value, unit)."""
    durations = defaultdict(list)
    for _, name, start, end, _, _ in spans:
        if name in LAYER_OF_SPAN:
            durations[LAYER_OF_SPAN[name]].append(end - start)
    out = {}

    def timing(prefix, with_p50=True):
        d = durations.get(prefix, [])
        out[f"{prefix}.calls"] = (len(d), "count")
        out[f"{prefix}.busy_s"] = (float(sum(d)), "s")
        if with_p50:
            out[f"{prefix}.call_s_p50"] = (_median(d), "s")

    for g in ("ball", "box"):
        timing(f"relax.{g}")
        out[f"relax.{g}.iterations"] = (int(tally.relax[g]["iterations"]), "count")
        out[f"relax.{g}.gap_rel_max"] = (tally.relax[g]["gap_rel_max"], "ratio")
    out["relax.lift.busy_s"] = (float(sum(durations.get("relax.lift", []))), "s")

    timing("oracle")
    steps = tally.oracle["refine_steps"] + tally.oracle["polish_steps"]
    busy = out["oracle.busy_s"][0]
    out["oracle.steps_per_s"] = (steps / busy if busy > 0 else 0.0, "1/s")
    for key in ("samples", "stationary_candidates", "candidates_refined",
                "refine_steps", "polish_steps"):
        out[f"oracle.{key}"] = (int(tally.oracle[key]), "count")

    timing("exact", with_p50=False)
    out["exact.direction.busy_s"] = (float(sum(durations.get("exact.direction", []))), "s")
    calls = tally.exact_calls
    share = (calls - tally.exact_not_applicable) / calls if calls else 0.0
    out["exact.applicable_share"] = (share, "ratio")

    for k in SAMPLER_KINDS:
        prefix = f"approx.{k}"
        timing(prefix)
        acc = tally.approx[k]
        calls, draws = acc["calls"], int(acc["draws"])
        out[f"{prefix}.draws"] = (draws, "count")
        out[f"{prefix}.accepted_at_mean"] = (acc["accepted_at_sum"] / calls if calls else 0.0, "draws")
        out[f"{prefix}.useful_draw_share"] = (calls / draws if draws else 0.0, "ratio")
        out[f"{prefix}.budget_exceeded"] = (int(acc["budget_exceeded"]), "count")
        out[f"{prefix}.guarantee_slack_min"] = (acc["slack_min"] if calls else 0.0, "value")

    timing("tail.inverse")
    out["tail.inverse.rel_err_max"] = (tally.tail_rel_err_max, "ratio")

    # instance time not covered by any direct child span of the instance
    covered = defaultdict(float)
    roots = {}
    for sid, name, start, end, parent, _ in spans:
        if name == "bench.instance":
            roots[sid] = end - start
    for sid, name, start, end, parent, _ in spans:
        if parent in roots:
            covered[parent] += end - start
    out["bench.self_s"] = (float(sum(roots[s] - covered[s] for s in roots)), "s")
    overhead = 1.0 - traced_rate / untraced_rate if untraced_rate > 0 else 0.0
    out["trace.overhead_share"] = (overhead, "ratio")
    return out


def write_spans(path: Path, workload: str, machine: dict, spans) -> None:
    """Write the spans of a traced run as JSON lines, after a machine header."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"machine": machine}) + "\n")
        for sid, name, start, end, parent, instance in spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "workload": workload,
                                 "instance": instance}) + "\n")


def _blas_threads():
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(root: Path, workload: str, seed: int) -> dict:
    """Machine, library versions, BLAS setup and code identity for one result."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "maxdisp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def warm_tail():
    """Touch scipy.special's lazily loaded incomplete beta once."""
    tail_s_inverse(5, 0.01)
    reference_tail(5, 1.0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

