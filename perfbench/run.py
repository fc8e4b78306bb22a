"""maxdisp benchmark: seeded workloads timed end to end, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload one after another in one process.
With `--trace 0` the last stdout line holds the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced pass over the same instances
an untraced pass completed.  Earlier lines record the machine and a full
report per workload.  The library is imported from ./src; nothing is
installed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# untimed instances run before the timer starts: on a 2-vCPU Xeon VM
# (2.1 GHz), throughput climbed by up to 50 % over the first 4-8 s of
# sustained load after an idle spell
WARMUP_SECONDS = 5.0
OUT_DIR = HERE / "out"


def _import_library():
    """Put ./src first on the path and refuse any maxdisp from elsewhere."""
    if not (ROOT / "src" / "maxdisp" / "__init__.py").is_file():
        sys.exit(f"error: no maxdisp sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import maxdisp

    if Path(maxdisp.__file__).resolve().parent != ROOT / "src" / "maxdisp":
        sys.exit(f"error: imported maxdisp from {maxdisp.__file__}, not from ./src")


_import_library()

import maxdisp.exact  # noqa: E402

from harness import (  # noqa: E402
    Recorder,
    Tally,
    layer_metrics,
    machine_record,
    peak_rss_mb,
    percentile_tail,
    write_spans,
)
from workloads import WORKLOADS  # noqa: E402


def timed_pass(workload, state, rec, tally, seconds=None, count=None, whole_cycles=False):
    """Closed loop over the schedule: one instance after another.

    Stops after `count` instances, or once the timed pipelines add up to
    `seconds`; with `whole_cycles`, only at the end of a pass over the whole
    schedule, so every run times the same instances the same number of
    times.  Checks run outside the timed interval.  Returns the per-instance
    pipeline times.
    """
    times, total = [], 0.0
    for visit in itertools.count():
        if count is not None and visit >= count:
            break
        if (seconds is not None and total >= seconds
                and not (whole_cycles and visit % len(state.schedule))):
            break
        spec = state.schedule[visit % len(state.schedule)]
        rec.ops = []
        error = out = None
        start = time.perf_counter()
        try:
            out = rec.instance_span(visit, lambda: workload.pipeline(state, spec, visit, rec))
        except Exception as exc:  # a failing layer call is counted, the run goes on
            error = exc
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        total += elapsed
        if error is None:
            workload.check(state, spec, out, tally)
        tally.close_instance(rec.ops, error)
    return times


@contextlib.contextmanager
def nested_spans(rec):
    """Span the direction search and relaxation solve_exact makes internally."""
    saved = {name: getattr(maxdisp.exact, name) for name in ("find_sign_direction", "solve_cr_ball")}
    maxdisp.exact.find_sign_direction = rec.wrap("exact.find_sign_direction",
                                                 saved["find_sign_direction"])
    maxdisp.exact.solve_cr_ball = rec.wrap("relax.solve_cr_ball", saved["solve_cr_ball"])
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(maxdisp.exact, name, fn)


def setup_times(name, seed):
    """Wall time of SETUP_REPEATS fresh processes that only set the workload up."""
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120,
        )
        out.append(time.perf_counter() - start)
    return out


def _shares(tally):
    solves = sum(tally.relax[g]["solves"] for g in ("ball", "box"))
    unconverged = sum(tally.relax[g]["unconverged"] for g in ("ball", "box"))
    return {
        "failed_share": (tally.failed / tally.attempted if tally.attempted else 0.0, "ratio"),
        "unconverged_share": (unconverged / solves if solves else 0.0, "ratio"),
    }


def run_untraced(workload, seed, seconds):
    """End-to-end metrics of one workload, all from untraced passes."""
    setups = setup_times(workload.name, seed)
    rec, tally = Recorder(False), Tally()
    state = workload.setup(seed, rec, tally)
    timed_pass(workload, state, Recorder(False), Tally(), seconds=WARMUP_SECONDS)
    times = timed_pass(workload, state, rec, tally, seconds=seconds,
                       whole_cycles=workload.whole_cycles)
    tail, pct, count = percentile_tail(times)
    main = {
        "instances_per_s": (len(times) / sum(times), "1/s"),
        "instance_s_p50": (statistics.median(times), "s"),
        "instance_s_tail": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = _shares(tally)
    if tally.oracle_ratio:
        extra["oracle_ratio"] = (statistics.median(tally.oracle_ratio), "ratio")
    if tally.sampler_ratio:
        extra["sampler_ratio"] = (statistics.median(tally.sampler_ratio), "ratio")
    notes = {
        "instances": len(times),
        "timed_s": sum(times),
        "instance_s_tail_percentile": pct,
        "setup_s_samples": setups,
    }
    return main, extra, notes, tally


def run_traced(workload, seed, seconds, machine):
    """Per-layer metrics: an untraced pass, then a traced one over the same instances."""
    rec, tally = Recorder(True), Tally()
    state = workload.setup(seed, rec, tally)  # spans set-up work, e.g. sample's solves
    plain_tally = Tally()
    timed_pass(workload, state, Recorder(False), Tally(), seconds=WARMUP_SECONDS)
    plain = timed_pass(workload, state, Recorder(False), plain_tally, seconds=seconds / 2,
                       whole_cycles=workload.whole_cycles)
    with nested_spans(rec):
        traced = timed_pass(workload, state, rec, tally, count=len(plain))
    metrics = layer_metrics(rec.spans, tally, len(traced) / sum(traced), len(plain) / sum(plain))
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
    write_spans(path, workload.name, machine, rec.spans)
    notes = {"instances": len(traced), "spans": len(rec.spans), "span_file": str(path.relative_to(ROOT))}
    # both passes count towards attempted / failed
    tally.attempted += plain_tally.attempted
    tally.failed += plain_tally.failed
    for label, (seen, bad) in plain_tally.checks.items():
        tally.checks[label][0] += seen
        tally.checks[label][1] += bad
    return metrics, _shares(tally), notes, tally


def _as_json(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up and exit (used to time set-up)")
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.setup_only:
        for name in names:
            WORKLOADS[name].setup(args.seed, Recorder(False), Tally())
        return 0

    combined, attempted, failed = {}, 0, 0
    for name in names:
        workload = WORKLOADS[name]
        machine = machine_record(ROOT, name, args.seed)
        print(json.dumps({"machine": machine}), flush=True)
        if args.trace:
            main_metrics, extra, notes, tally = run_traced(workload, args.seed, args.seconds, machine)
        else:
            main_metrics, extra, notes, tally = run_untraced(workload, args.seed, args.seconds)
        report = {
            "workload": name,
            "seed": args.seed,
            "trace": args.trace,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": _as_json({**main_metrics, **extra}),
            "notes": notes,
            "checks": {k: {"evaluated": e, "failed": f} for k, (e, f) in sorted(tally.checks.items())},
        }
        print(json.dumps({"report": report}), flush=True)
        prefix = f"{name}." if args.workload == "all" else ""
        combined.update({prefix + k: v for k, v in _as_json(main_metrics).items()})
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
