"""Randomized approximation algorithms with provable quality bounds.

The three samplers share one rejection loop: draw batches of candidates z
and accept the first with stretch * (z . d_i) < alpha * ||d_i|| for every
nonzero test direction d_i (a zero row could never pass the strict test, so
it is exempt).  alpha is chosen so that, by a union bound over the anchors,
a draw is accepted with probability at least 1 - rho.

* approx_ball draws uniform unit vectors, tests sqrt(n) z against the
  anchors with alpha = tail_s_inverse(n, rho/m), and needs no relaxation.
  Every accepted point is guaranteed a fraction (1 - alpha/sqrt(n))/2 of
  the ball relaxation value.
* approx_general_fixed draws sign vectors, tests them against the anchors
  scaled by the square root of a lifted relaxation diagonal (ball or box)
  with alpha = sqrt(2 ln(m/rho)), and rescales the accepted vector.
* approx_box_simplified is that sign sampler at unit scale: on the box the
  lift's diagonal is constant and cancels, so no relaxation is solved.

Every sampler consumes an explicit numpy Generator in fixed-size batches, so
an equally seeded generator reproduces the draws exactly, and a second call
with the same generator continues where an exhausted budget stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import DispersionInstance, Geometry, evaluate
from .relax import (
    RelaxationResult,
    gamma1,
    lift_ball,
    lift_box,
    solve_cr_ball,
    solve_cr_box,
)
from .tail import sample_sphere, tail_s_inverse

__all__ = [
    "ApproxResult",
    "SampleBudgetExceeded",
    "approx_ball",
    "approx_general_fixed",
    "approx_box_simplified",
    "bound_refined",
]

_BATCH = 128
_DEFAULT_BUDGET = 1_000_000


class SampleBudgetExceeded(RuntimeError):
    """No draw was accepted within the sample budget.

    The generator has consumed `draws` candidates; calling the sampler again
    with the same generator resumes the stream.
    """

    def __init__(self, draws: int):
        super().__init__(f"no sample accepted within the budget ({draws} draws)")
        self.draws = draws


@dataclass(frozen=True)
class ApproxResult:
    """One accepted sample and its guarantees.

    f_value is the objective at x_tilde; bound_r is the multiplicative
    factor of the relaxation value guaranteed by the sampler (for the ball
    sampler, (1 - alpha/sqrt(n))/2, always positive); refined_bound is the
    anchor-distance-aware improvement where one exists, else None.
    raw_samples counts every draw consumed from the generator and
    accepted_at is the 1-based index of the accepted draw.
    """

    x_tilde: np.ndarray
    f_value: float
    raw_samples: int
    accepted_at: int
    alpha_used: float
    bound_r: float
    refined_bound: float | None


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    return rho


def _rejection(draw, directions, alpha, budget, stretch=1.0):
    """First row z of the batches draw(k) with stretch * (z . d_i) < alpha * ||d_i||
    for every nonzero row d_i of `directions` -> (z, raw draws, accepted index).

    Zero rows are exempt: they could never satisfy the strict inequality.
    The accepted index is 1-based; raw draws counts whole batches.
    """
    norms = np.linalg.norm(directions, axis=1)
    active = norms > 0.0
    D = directions[active].T
    thresholds = alpha * norms[active]
    seen = 0
    while seen < budget:
        take = min(_BATCH, budget - seen)
        batch = draw(take)
        proj = batch @ D
        if stretch != 1.0:
            proj *= stretch
        hits = np.flatnonzero(np.all(proj < thresholds, axis=1))
        if hits.size:
            k = int(hits[0])
            return batch[k].copy(), seen + take, seen + k + 1
        seen += take
    raise SampleBudgetExceeded(seen)


def _sign_rejection(inst, rho, rng, budget, directions):
    """Sign-vector draws tested against `directions` with alpha = sqrt(2 ln(m/rho))
    -> (alpha, accepted sign vector, raw draws, accepted index)."""
    n = inst.dim
    alpha = math.sqrt(2.0 * math.log(inst.m / rho))

    def signs(k):
        return rng.integers(0, 2, size=(k, n)).astype(float) * 2.0 - 1.0

    return (alpha, *_rejection(signs, directions, alpha, budget))


def _result(inst, x, raw, at, alpha, bound_r, refined_bound=None):
    return ApproxResult(
        x_tilde=x,
        f_value=evaluate(inst, x).value,
        raw_samples=raw,
        accepted_at=at,
        alpha_used=alpha,
        bound_r=bound_r,
        refined_bound=refined_bound,
    )


def approx_ball(
    inst: DispersionInstance,
    rho: float,
    rng: np.random.Generator,
    budget: int = _DEFAULT_BUDGET,
) -> ApproxResult:
    """Sphere rejection sampler for ball instances (n >= 2).

    Accepts a unit vector z once sqrt(n) * p_i . z < alpha * ||p_i|| holds
    for every nonzero anchor, with alpha = tail_s_inverse(n, rho/m).  When
    rho/m >= 0.5 that threshold is outside the tail function's range; the
    sampler then requires plain negative correlation (alpha = 0), which is
    outside the advertised bound regime but still terminates whenever some
    direction opposes all anchors.
    """
    if inst.geometry is not Geometry.BALL:
        raise ValueError("approx_ball requires a ball-geometry instance")
    n = inst.dim
    if n < 2:
        raise ValueError("approx_ball requires dimension n >= 2")
    rho = _check_rho(rho)
    ratio = rho / inst.m
    alpha = tail_s_inverse(n, ratio) if ratio < 0.5 else 0.0
    root_n = math.sqrt(n)
    x, raw, at = _rejection(
        lambda k: sample_sphere(n, rng, k), inst.points, alpha, budget, stretch=root_n
    )
    return _result(
        inst, x, raw, at, alpha, 0.5 * (1.0 - alpha / root_n), bound_refined(inst, rho)
    )


def approx_general_fixed(
    inst: DispersionInstance,
    rho: float,
    rng: np.random.Generator,
    budget: int = _DEFAULT_BUDGET,
    lift: np.ndarray | None = None,
    relaxation: RelaxationResult | None = None,
) -> ApproxResult:
    """Sign-vector sampler driven by a lifted relaxation diagonal (ball or box).

    Precomputed `relaxation` and `lift` results may be passed to amortize the
    solve across repeated runs; they must belong to this instance.  bound_r
    is (1 - alpha sqrt(g1))/2 where g1 is the lift's diagonal concentration,
    which can be negative, in which case the guarantee is vacuous.
    """
    rho = _check_rho(rho)
    n = inst.dim
    ball = inst.geometry is Geometry.BALL
    if lift is None:
        if relaxation is None:
            relaxation = solve_cr_ball(inst) if ball else solve_cr_box(inst)
        lift = lift_ball(relaxation, inst) if ball else lift_box(relaxation, inst)
    scale = np.sqrt(np.maximum(np.diag(lift)[:n], 0.0))
    # the sign draws are tested against the weighted anchor images
    alpha, xi, raw, at = _sign_rejection(
        inst, rho, rng, budget, inst.points * scale[None, :]
    )
    x = scale * xi / math.sqrt(float(lift[n, n]))
    return _result(inst, x, raw, at, alpha, 0.5 * (1.0 - alpha * math.sqrt(gamma1(lift))))


def approx_box_simplified(
    inst: DispersionInstance,
    rho: float,
    rng: np.random.Generator,
    budget: int = _DEFAULT_BUDGET,
) -> ApproxResult:
    """Relaxation-free sign-vector sampler for box instances.

    Tests plain sign vectors directly: accept xi once p_i . xi < alpha ||p_i||
    for every nonzero anchor, alpha = sqrt(2 ln(m/rho)), and output xi itself.
    Distributionally identical to approx_general_fixed on box instances.
    """
    if inst.geometry is not Geometry.BOX:
        raise ValueError("approx_box_simplified requires a box-geometry instance")
    rho = _check_rho(rho)
    alpha, xi, raw, at = _sign_rejection(inst, rho, rng, budget, inst.points)
    return _result(inst, xi, raw, at, alpha, 0.5 * (1.0 - alpha / math.sqrt(inst.dim)))


def bound_refined(inst: DispersionInstance, rho: float) -> float:
    """Distance-aware guarantee factor for the sphere sampler.

    With d = min_i ||p_i|| and nu = d + 1/d when d > 1 (else 2), the factor

        nu/(2 + nu) - (2/(2 + nu)) sqrt((20/(9n)) ln(m/rho))

    multiplies the ball relaxation value.  At d <= 1 it reduces to the plain
    (1 - sqrt((20/(9n)) ln(m/rho)))/2 estimate, and it only improves as the
    anchors move farther from the feasible ball.
    """
    rho = _check_rho(rho)
    n, m = inst.dim, inst.m
    d = float(np.linalg.norm(inst.points, axis=1).min())
    nu = d + 1.0 / d if d > 1.0 else 2.0
    spread = math.sqrt((20.0 / (9.0 * n)) * math.log(m / rho))
    return nu / (2.0 + nu) - (2.0 / (2.0 + nu)) * spread
