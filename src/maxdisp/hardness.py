"""Hardness instance generator: embeds number partitioning into ball dispersion.

Given a nonzero integer vector a, the construction produces a ball instance
with 2n unit-norm anchors +-L_i whose optimal dispersion value is a strictly
monotone function of the exact sign-vector quadratic maximum

    v(BQP) = max { x^T Q x : x in {-1, 1}^n },   Q = (Lambda - a a^T) / 4,

namely 2 - 1/sqrt(v) when v >= 1 (and 1 otherwise).  Deciding whether the
partition sum a^T x can vanish is therefore reducible to solving the
dispersion problem, which is what makes the general problem hard.

The scalars are pinned down by a one-dimensional root find: with

    beta(t)  = (1 - sqrt(1 - t)) / (t sqrt(1 - t)),
    gamma(t) = 2 beta(t) + t beta(t)^2,
    g(t)     = t - sum_i 2 a_i^2 / (1 + sqrt(1 + 4 a_i^2 gamma(t))),

g increases through a unique root t* in (0, 1).  Setting
Lambda_ii = (1 + sqrt(1 + 4 a_i^2 gamma(t*))) / 2 and
L = Lambda^{-1/2} (I + beta(t*) Lambda^{-1/2} a a^T Lambda^{-1/2}) gives rows
of exactly unit norm with L L^T = (Lambda - a a^T)^{-1} and
a^T Lambda^{-1} a = t*.  All identities hold up to roundoff, which
build_hardness records as residuals instead of carrying exact rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .instance import DispersionInstance, Geometry
from .oracle import solve_global

__all__ = [
    "HardnessArtifact",
    "ReductionReport",
    "g_of_t",
    "build_hardness",
    "bqp_enumerate",
    "solve_bqp_relaxcheck",
    "partition_min_imbalance",
    "qcqp_value",
    "qcqp_grid_value",
    "verify_reduction",
]

_BRACKET_LO = 1e-10
_BRACKET_HI = 1.0 - 1e-10
_BQP_MAX_N = 22


def _beta_of_t(t: float) -> float:
    s = math.sqrt(1.0 - t)
    return (1.0 - s) / (t * s)


def _gamma_of_t(t: float) -> float:
    b = _beta_of_t(t)
    return 2.0 * b + t * b * b


def _check_a(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a must be a non-empty vector")
    if not np.all(arr == np.round(arr)):
        raise ValueError("a must have integer entries")
    if np.any(arr == 0):
        raise ValueError("all entries of a must be nonzero")
    return arr.astype(float)


def g_of_t(a, t: float) -> float:
    """Root function of the construction; increasing with a unique zero in (0, 1)."""
    arr = _check_a(a)
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie strictly between 0 and 1, got {t}")
    gamma = _gamma_of_t(t)
    return float(t - np.sum(2.0 * arr**2 / (1.0 + np.sqrt(1.0 + 4.0 * arr**2 * gamma))))


@dataclass(frozen=True)
class HardnessArtifact:
    """All data of one instantiated reduction."""

    a: np.ndarray
    t_star: float
    beta_val: float
    gamma_val: float
    lambda_diag: np.ndarray
    L: np.ndarray
    instance: DispersionInstance
    g_residual: float


def build_hardness(a) -> HardnessArtifact:
    """Instantiate the reduction for an integer vector a with nonzero entries.

    Finds the root t* of g by Brent's method on [1e-10, 1 - 1e-10], to full
    double precision, and records the residual g(t*) in the artifact.  The
    emitted instance has 2n unit-weight anchors +-L_i on the unit sphere and
    ball geometry.
    """
    arr = _check_a(a)
    # xtol only keeps brentq's absolute floor out of the way: rtol rules
    t_star = brentq(lambda t: g_of_t(arr, t), _BRACKET_LO, _BRACKET_HI, xtol=1e-300)
    beta = _beta_of_t(t_star)
    gamma = _gamma_of_t(t_star)
    lam = 0.5 + 0.5 * np.sqrt(1.0 + 4.0 * arr**2 * gamma)
    w = arr / np.sqrt(lam)
    L = (np.eye(arr.size) + beta * np.outer(w, w)) / np.sqrt(lam)[:, None]
    points = np.vstack([L, -L])
    inst = DispersionInstance(arr.size, points, np.ones(2 * arr.size), Geometry.BALL)
    return HardnessArtifact(
        a=arr.astype(int),
        t_star=float(t_star),
        beta_val=float(beta),
        gamma_val=float(gamma),
        lambda_diag=lam,
        L=L,
        instance=inst,
        g_residual=g_of_t(arr, t_star),
    )


def bqp_enumerate(Q: np.ndarray, with_argmax: bool = False):
    """Exact max of x^T Q x over sign vectors x in {-1, 1}^n, n <= 22.

    Splits coordinates in two halves and evaluates the bilinear cross term
    as one matrix product over all 2^n1 x 2^n2 combinations (the objective
    is symmetric under x -> -x, so this wastes only a factor two).
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    n = Q.shape[0]
    if n > _BQP_MAX_N:
        raise ValueError(f"sign enumeration supports n <= {_BQP_MAX_N}, got {n}")
    Q = 0.5 * (Q + Q.T)
    n1 = n // 2
    n2 = n - n1

    def signs(k):
        return ((np.arange(2**k)[:, None] >> np.arange(k)[None, :]) & 1) * 2.0 - 1.0

    U = signs(n1)
    V = signs(n2)
    quad_u = np.einsum("ki,ij,kj->k", U, Q[:n1, :n1], U)
    quad_v = np.einsum("ki,ij,kj->k", V, Q[n1:, n1:], V)
    cross = U @ (2.0 * Q[:n1, n1:]) @ V.T
    total = quad_u[:, None] + cross + quad_v[None, :]
    flat = int(np.argmax(total))
    iu, iv = divmod(flat, total.shape[1])
    value = float(total[iu, iv])
    if not with_argmax:
        return value
    x = np.concatenate([U[iu], V[iv]])
    return value, x


def solve_bqp_relaxcheck(Q: np.ndarray, grid_points: int = 21) -> float:
    """Exact max of x^T Q x over {-1, 1}^n, spot-checked against a box grid.

    The grid check covers [-1, 1]^n with grid_points per axis for n <= 4 and
    a fixed pseudorandom cloud otherwise; since Q is convex the box maximum
    is attained at a sign vector, so any grid point beating the enumeration
    (beyond the grid modulus) indicates a bug and raises RuntimeError.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    value = bqp_enumerate(Q)
    if n <= 4:
        axes = [np.linspace(-1.0, 1.0, grid_points)] * n
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    else:
        mesh = np.random.default_rng(12345).uniform(-1.0, 1.0, size=(200_000, n))
    grid_vals = np.einsum("ki,ij,kj->k", mesh, Q, mesh)
    # crude modulus: gradient bound 2 ||Q|| sqrt(n) times the grid half-step
    half_step = 1.0 / (grid_points - 1) if n <= 4 else 0.0
    modulus = 2.0 * np.linalg.norm(Q, 2) * math.sqrt(n) * half_step * math.sqrt(n)
    if float(grid_vals.max()) > value + modulus + 1e-9:
        raise RuntimeError(
            "box grid beat the sign enumeration: "
            f"{grid_vals.max():.12g} > {value:.12g} + modulus"
        )
    return value


def partition_min_imbalance(a) -> int:
    """min |a^T x| over sign vectors, via subset-sum reachability (independent
    of bqp_enumerate); 0 exactly when the partition problem is feasible."""
    arr = np.abs(np.asarray(a, dtype=int))
    total = int(arr.sum())
    reachable = 1  # bitset over subset sums
    for v in arr:
        reachable |= reachable << int(v)
    best = total
    for s in range(total + 1):
        if (reachable >> s) & 1:
            best = min(best, abs(total - 2 * s))
    return best


def _bqp_value_checked(Q: np.ndarray) -> float:
    Q = np.asarray(Q, dtype=float)
    try:
        np.linalg.cholesky(0.5 * (Q + Q.T) + 1e-12 * np.eye(Q.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise ValueError("Q must be positive definite") from exc
    return bqp_enumerate(Q)


def qcqp_value(Q: np.ndarray) -> float:
    """Closed-form value of the shifted-box trust problem for positive definite Q.

    max s + min over the box [s-1, 1-s]^n intersected with {x^T Q x <= 1}
    collapses to 2 - 1/sqrt(v) when v = max sign-vector quadratic >= 1, and
    to 1 otherwise.
    """
    v = _bqp_value_checked(Q)
    if v >= 1.0:
        return 2.0 - 1.0 / math.sqrt(v)
    return 1.0


def qcqp_grid_value(Q: np.ndarray, s_lo: float = -3.0, fine_step: float = 1e-7) -> float:
    """Independent oracle for qcqp_value: dense search over the shift parameter.

    Evaluates h(s) = min((1-s)^2 v, 1) + s on a coarse grid over [s_lo, 1]
    and refines around the best point down to fine_step.  The lower cut at
    -3 is safe because h grows linearly left of its kink.
    """
    v = _bqp_value_checked(Q)

    def h(s):
        return np.minimum((1.0 - s) ** 2 * v, 1.0) + s

    grid = np.linspace(s_lo, 1.0, 40_001)
    vals = h(grid)
    s0 = float(grid[int(np.argmax(vals))])
    width = grid[1] - grid[0]
    fine = np.arange(max(s_lo, s0 - 2 * width), min(1.0, s0 + 2 * width), fine_step)
    if fine.size == 0:
        return float(vals.max())
    return float(max(vals.max(), h(fine).max()))


@dataclass(frozen=True)
class ReductionReport:
    """Numbers of one end-to-end reduction check."""

    oracle_value: float
    predicted_value: float
    abs_difference: float
    trace_lambda: float
    bqp_value: float
    partition_feasible: bool


def _bqp_q(artifact: HardnessArtifact) -> np.ndarray:
    """The reduction's Q = (Lambda - a a^T) / 4."""
    a = artifact.a.astype(float)
    return 0.25 * (np.diag(artifact.lambda_diag) - np.outer(a, a))


def verify_reduction(artifact: HardnessArtifact) -> ReductionReport:
    """Compare the enumeration oracle on the emitted instance with the closed form.

    The predicted value is 2 - 1/sqrt(v(BQP)) with
    Q = (Lambda - a a^T) / 4; when the partition is feasible this equals
    2 - 2/sqrt(trace(Lambda)).
    """
    Q = _bqp_q(artifact)
    bqp = bqp_enumerate(Q)
    predicted = qcqp_value(Q)
    result = solve_global(artifact.instance)
    return ReductionReport(
        oracle_value=result.value,
        predicted_value=predicted,
        abs_difference=abs(result.value - predicted),
        trace_lambda=float(artifact.lambda_diag.sum()),
        bqp_value=bqp,
        partition_feasible=partition_min_imbalance(artifact.a) == 0,
    )
