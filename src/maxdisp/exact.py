"""Polynomial-time exact solver for a tight family of ball instances.

If some nonzero direction d satisfies p_i . d <= 0 for every anchor p_i, the
ball relaxation is tight: starting from a relaxation optimum x*, moving along
d until the unit sphere is reached never decreases any term of the objective,
and the boundary point attains the relaxation value.  The step length

    alpha = (-x*.d + sqrt(||d||^2 (1 - ||x*||^2) + (x*.d)^2)) / ||d||^2

is the nonnegative root of ||x* + alpha d||^2 = 1.

Finding such a direction is itself polynomial.  With m <= n anchors one
always exists: take d orthogonal to the first m - 1 anchors and flip it
against the last one.  In general, one linear program minimizes
(sum_i p_i) . x over the cone {p_i . x <= 0 for all i} intersected with
||x||_inf <= 1.  Its optimum is negative unless the cone equals null(P), the
null space of the anchor matrix, which is then searched directly; if both
come up empty the cone is trivial and this solver does not apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from .instance import DispersionInstance, Geometry, _sphere_step, evaluate
from .relax import RelaxationResult, solve_cr_ball

__all__ = [
    "NotApplicableError",
    "ExactResult",
    "find_sign_direction",
    "solve_exact",
]

# LP solutions this small count as zero (sign system considered infeasible)
_ZERO_THRESHOLD = 1e-9
# required slack for the returned unit direction: p_i . d <= _SLACK_TOL
_SLACK_TOL = 1e-10


class NotApplicableError(RuntimeError):
    """The tightness condition fails: the sign system p_i . x <= 0 for all
    anchors admits only the zero solution, so the exact boundary-lifting
    method does not apply to this instance."""


@dataclass(frozen=True)
class ExactResult:
    """Optimal point on the unit sphere together with its tightness data.

    value = f(x_opt) matches the relaxation value zeta_star up to roundoff;
    certificate is the unit sign-direction used for the lift and alpha the
    step length along it.
    """

    x_opt: np.ndarray
    value: float
    certificate: np.ndarray
    alpha: float
    relaxation: RelaxationResult


def _repair_direction(points, d, rounds=200):
    """Nudge d into the cone {p_i . d <= 0} by cyclic halfspace projections."""
    for _ in range(rounds):
        s = points @ d
        worst = int(np.argmax(s))
        if s[worst] <= 0.0:
            return d
        p = points[worst]
        p_sq = float(p @ p)
        if p_sq == 0.0:
            return d
        d = d - (s[worst] / p_sq) * p
    return d


def _finalize_direction(points, d):
    """Normalize d and check p_i . d <= slack tolerance; None if unusable."""
    nrm = float(np.linalg.norm(d))
    if nrm < 1e-12:
        return None
    d = d / nrm
    if float(np.max(points @ d)) > 0.0:
        d = _repair_direction(points, d)
        nrm = float(np.linalg.norm(d))
        if nrm < 1e-9:
            return None
        d = d / nrm
    if float(np.max(points @ d)) > _SLACK_TOL:
        return None
    return d


def _direction_small_m(points):
    """m <= n case: build the direction from the orthogonal complement."""
    m, n = points.shape
    if m == 1:
        p = points[0]
        nrm = float(np.linalg.norm(p))
        if nrm == 0.0:
            d = np.zeros(n)
            d[0] = 1.0
            return d
        return -p / nrm
    basis = null_space(points[:-1])
    if basis.shape[1] == 0:  # cannot happen for m <= n, kept as a guard
        return None
    cand = basis[:, 0]
    proj = float(points[-1] @ cand)
    d = -math.copysign(1.0, proj) * cand if abs(proj) > 0.0 else cand
    return _finalize_direction(points, d)


def _direction_linear_program(points):
    """General case: one LP over the box-truncated sign cone, else null(P).

    On the cone every p_i . x <= 0, so (sum_i p_i) . x <= 0 with equality
    only where P x = 0.  Minimizing it therefore finds a nonzero cone point
    unless the whole cone lies in null(P), which the fallback covers.
    """
    m, n = points.shape
    res = linprog(
        points.sum(axis=0),
        A_ub=points,
        b_ub=np.zeros(m),
        bounds=[(-1.0, 1.0)] * n,
        method="highs",
    )
    if res.success and float(np.max(np.abs(res.x))) > _ZERO_THRESHOLD:
        d = _finalize_direction(points, np.asarray(res.x, dtype=float))
        if d is not None:
            return d
    basis = null_space(points)
    if basis.shape[1] == 0:
        return None
    return _finalize_direction(points, basis[:, 0])


def find_sign_direction(inst: DispersionInstance) -> np.ndarray | None:
    """A unit vector d with p_i . d <= 0 for every anchor, or None.

    Uses the orthogonal-complement construction when m <= n (always
    succeeds there) and otherwise one linear program over the cone with a
    null-space fallback.  The returned direction satisfies every inequality
    with slack at most 1e-10; None means neither route found a usable
    nonzero direction, i.e. the cone is numerically trivial.
    """
    points = inst.points
    if inst.m <= inst.dim:
        d = _direction_small_m(points)
        if d is not None:
            return d
    return _direction_linear_program(points)


def solve_exact(inst: DispersionInstance, tol: float | None = None) -> ExactResult:
    """Exact maximizer of the dispersion objective when the sign cone is nontrivial.

    Solves the ball relaxation, then slides its optimum along a sign
    direction to the unit sphere; no objective term decreases along the way,
    so the boundary point attains the relaxation value and is therefore a
    global maximizer.  Raises NotApplicableError when no nonzero sign
    direction exists.
    """
    if inst.geometry is not Geometry.BALL:
        raise ValueError("solve_exact requires a ball-geometry instance")
    d = find_sign_direction(inst)
    if d is None:
        raise NotApplicableError(
            "exact method not applicable: the sign system p_i . x <= 0 "
            "(one inequality per anchor) admits only the zero solution for "
            "this instance"
        )
    relaxation = solve_cr_ball(inst, tol=tol)
    alpha = _sphere_step(relaxation.x_star, d)
    x_opt = relaxation.x_star + alpha * d
    ev = evaluate(inst, x_opt)
    return ExactResult(
        x_opt=x_opt,
        value=ev.value,
        certificate=d,
        alpha=alpha,
        relaxation=relaxation,
    )
