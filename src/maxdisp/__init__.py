"""Weighted maximin dispersion toolkit.

Find a point of the unit ball or the unit box that maximizes the smallest
weighted squared distance to a given set of anchor points.  The package
provides certified convex relaxations with matrix lifts, an exact method for
the polynomially solvable case, randomized samplers with multiplicative
guarantees, a hardness-reduction instance generator, a sampling oracle, and
a benchmark harness.  `maxdisp` on the command line exposes the same layers.
"""

from .approx import (
    ApproxResult,
    SampleBudgetExceeded,
    approx_ball,
    approx_box_simplified,
    approx_general_fixed,
    bound_refined,
)
from .bench import CSV_HEADER, BenchRecord, run_benchmark, to_csv, to_markdown
from .exact import ExactResult, NotApplicableError, find_sign_direction, solve_exact
from .hardness import (
    HardnessArtifact,
    ReductionReport,
    bqp_enumerate,
    build_hardness,
    g_of_t,
    partition_min_imbalance,
    qcqp_grid_value,
    qcqp_value,
    solve_bqp_relaxcheck,
    verify_reduction,
)
from .instance import (
    DispersionInstance,
    Evaluation,
    Geometry,
    InstanceError,
    evaluate,
    evaluate_batch,
    generate_random,
    read_instance,
    write_instance,
)
from .oracle import OracleResult, solve_global
from .relax import (
    NonPositiveValueError,
    RelaxationResult,
    gamma1,
    lift_ball,
    lift_box,
    solve_cr_ball,
    solve_cr_box,
)
from .tail import (
    TailBoundReport,
    sample_sphere,
    tail_bound_check,
    tail_s,
    tail_s_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult",
    "BenchRecord",
    "CSV_HEADER",
    "DispersionInstance",
    "Evaluation",
    "ExactResult",
    "Geometry",
    "HardnessArtifact",
    "InstanceError",
    "NonPositiveValueError",
    "NotApplicableError",
    "OracleResult",
    "ReductionReport",
    "RelaxationResult",
    "SampleBudgetExceeded",
    "TailBoundReport",
    "approx_ball",
    "approx_box_simplified",
    "approx_general_fixed",
    "bound_refined",
    "bqp_enumerate",
    "build_hardness",
    "evaluate",
    "evaluate_batch",
    "find_sign_direction",
    "g_of_t",
    "gamma1",
    "generate_random",
    "lift_ball",
    "lift_box",
    "partition_min_imbalance",
    "qcqp_grid_value",
    "qcqp_value",
    "read_instance",
    "run_benchmark",
    "sample_sphere",
    "solve_cr_ball",
    "solve_cr_box",
    "solve_exact",
    "solve_bqp_relaxcheck",
    "solve_global",
    "tail_bound_check",
    "tail_s",
    "tail_s_inverse",
    "to_csv",
    "to_markdown",
    "verify_reduction",
    "write_instance",
]
