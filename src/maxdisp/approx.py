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

Each sampler's prepared test is kept between calls by instance._kept.

Every sampler consumes an explicit numpy Generator in fixed-size batches, so
an equally seeded generator reproduces the draws exactly, and a second call
with the same generator continues where an exhausted budget stopped.  Each
batch is drawn whole but tested slice by slice, its first 8 rows and then
the rest only if none of those passes, and only the rows tested are turned
into candidates: normalized to the unit sphere by the normalizer that
tail.sample_sphere uses too, or converted from bits to signs +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import DispersionInstance, Geometry, _kept, _value
from .relax import (
    RelaxationResult,
    gamma1,
    lift_ball,
    lift_box,
    solve_cr_ball,
    solve_cr_box,
)
from .tail import _unit_rows, tail_s_inverse

__all__ = [
    "ApproxResult",
    "SampleBudgetExceeded",
    "approx_ball",
    "approx_general_fixed",
    "approx_box_simplified",
    "bound_refined",
]

_BATCH = 128
# rows of each batch tested before the rest: most calls accept among them
_FIRST_ROWS = 8
_DEFAULT_BUDGET = 1_000_000
_SIGNS = np.array([-1.0, 1.0])  # bit -> sign, by lookup


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


def _check_budget(budget) -> int:
    if not (budget >= 0 and float(budget).is_integer()):
        raise ValueError(f"budget must be a nonnegative integer, got {budget!r}")
    return int(budget)


def _prepare(directions, norms=None):
    """(D, norms of D's columns) for the rejection test, where D holds the
    nonzero rows of `directions`, transposed: a zero row could never satisfy
    the strict inequality, so it is exempt.  `norms` are the row norms, when
    the caller has them."""
    if norms is None:
        norms = np.linalg.norm(directions, axis=1)
    active = norms > 0.0
    return directions[active].T, norms[active]


def _ball_test(inst, rho):
    """(alpha, bound_r, refined bound, D, norms) of approx_ball at rho; the
    anchor norms are computed once for the test and the refined bound."""
    n, m = inst.dim, inst.m
    ratio = rho / m
    alpha = tail_s_inverse(n, ratio) if ratio < 0.5 else 0.0
    norms = np.linalg.norm(inst.points, axis=1)
    refined = _refined(n, m, rho, float(norms.min()))
    return (alpha, 0.5 * (1.0 - alpha / math.sqrt(n)), refined) + _prepare(inst.points, norms)


def _lift_test(inst, lift):
    """(scale, D, norms, sqrt(lift[n, n]), sqrt(gamma1(lift))) for the sign
    sampler driven by `lift`, where D and norms test the anchor images
    p_i * scale; a malformed lift, input from outside, is refused first."""
    n = inst.dim
    if lift.shape != (n + 1, n + 1):
        raise ValueError(f"lift has shape {lift.shape}, expected ({n + 1}, {n + 1}) at n = {n}")
    if not np.isfinite(lift).all():
        raise ValueError("lift has an entry that is not finite")
    if not lift[n, n] > 0.0:
        raise ValueError(f"lift[{n}, {n}] must be positive, got {lift[n, n]}")
    root_g1 = math.sqrt(gamma1(lift))
    scale = np.sqrt(np.maximum(np.diag(lift)[:n], 0.0))
    D, norms = _prepare(inst.points * scale[None, :])
    return scale, D, norms, math.sqrt(float(lift[n, n])), root_g1


def _rejection(draw, rows, D, norms, alpha, budget, stretch=1.0):
    """First candidate z of the batches with stretch * (z . d_j) < alpha * norms_j
    for every column d_j of D -> (z, raw draws, accepted index).

    D and norms come from _prepare.  Each batch is drawn whole, draw(k), and
    tested slice by slice: rows(part) turns a slice of it into candidates,
    rows [0, _FIRST_ROWS) first and the rest only if none of those passes.  A
    batch of at most _FIRST_ROWS + 1 is one slice, so no slice of a longer
    batch has a single row: a one-row product rounds differently from the
    batch's.  The accepted index is 1-based; raw draws counts whole batches.
    """
    thresholds = alpha * norms
    seen = 0
    while seen < budget:
        take = min(_BATCH, budget - seen)
        batch = draw(take)
        cuts = (0, _FIRST_ROWS, take) if take > _FIRST_ROWS + 1 else (0, take)
        for lo, hi in zip(cuts, cuts[1:]):
            z = rows(batch[lo:hi])
            proj = z @ D
            if stretch != 1.0:
                proj *= stretch
            ok = np.logical_and.reduce(proj < thresholds, axis=1)
            k = int(ok.argmax())
            if ok[k]:
                return z[k].copy(), seen + take, seen + lo + k + 1
        seen += take
    raise SampleBudgetExceeded(seen)


def _sign_rejection(inst, rho, rng, budget, D, norms):
    """Sign-vector draws tested against D and norms with alpha = sqrt(2 ln(m/rho))
    -> (alpha, accepted sign vector, raw draws, accepted index)."""
    n = inst.dim
    alpha = math.sqrt(2.0 * math.log(inst.m / rho))
    return (alpha, *_rejection(
        lambda k: rng.integers(0, 2, size=(k, n)),
        _SIGNS.take,
        D, norms, alpha, budget,
    ))


def _result(inst, x, raw, at, alpha, bound_r, refined_bound=None):
    return ApproxResult(x, _value(inst, x), raw, at, alpha, bound_r, refined_bound)


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
    rho, budget = _check_rho(rho), _check_budget(budget)
    alpha, bound_r, refined, D, norms = _kept("approx_ball", inst, rho, _ball_test, inst, rho)
    x, raw, at = _rejection(
        lambda k: rng.standard_normal((k, n)), _unit_rows, D, norms, alpha, budget,
        stretch=math.sqrt(n),
    )
    return _result(inst, x, raw, at, alpha, bound_r, refined)


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
    solve across repeated runs; they must belong to this instance, and a
    malformed lift raises ValueError.  bound_r is (1 - alpha sqrt(g1))/2 for
    the lift's diagonal concentration g1; if negative, it guarantees nothing.
    """
    rho, budget = _check_rho(rho), _check_budget(budget)
    ball = inst.geometry is Geometry.BALL
    if lift is None:
        if relaxation is None:
            relaxation = solve_cr_ball(inst) if ball else solve_cr_box(inst)
        lift = lift_ball(relaxation, inst) if ball else lift_box(relaxation, inst)
    try:
        lift = np.asarray(lift, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"lift is not an array of numbers: {exc}") from None
    scale, D, norms, root_t, root_g1 = _kept(
        "approx_general", inst, (lift.shape, lift.tobytes()), _lift_test, inst, lift)
    alpha, xi, raw, at = _sign_rejection(inst, rho, rng, budget, D, norms)
    return _result(inst, scale * xi / root_t, raw, at, alpha, 0.5 * (1.0 - alpha * root_g1))


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
    rho, budget = _check_rho(rho), _check_budget(budget)
    D, norms = _kept("approx_box", inst, None, _prepare, inst.points)
    alpha, xi, raw, at = _sign_rejection(inst, rho, rng, budget, D, norms)
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
    return _refined(inst.dim, inst.m, rho, float(np.linalg.norm(inst.points, axis=1).min()))


def _refined(n, m, rho, d):
    """bound_refined's factor at the smallest anchor norm d."""
    nu = d + 1.0 / d if d > 1.0 else 2.0
    spread = math.sqrt((20.0 / (9.0 * n)) * math.log(m / rho))
    return nu / (2.0 + nu) - (2.0 / (2.0 + nu)) * spread
