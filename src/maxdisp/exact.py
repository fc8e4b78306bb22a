"""Polynomial-time exact solver for a tight family of ball instances.

If some nonzero direction d satisfies p_i . d <= 0 for every anchor p_i, the
ball relaxation is tight: starting from a relaxation optimum x*, moving along
d until the unit sphere is reached never decreases any term of the objective,
and the boundary point attains the relaxation value.  The step length

    alpha = (-x*.d + sqrt(||d||^2 (1 - ||x*||^2) + (x*.d)^2)) / ||d||^2

is the nonnegative root of ||x* + alpha d||^2 = 1.

Finding such a direction is itself polynomial.  Two candidates are tried,
cheapest first, and each must pass one check: normalized to unit length, it
satisfies every inequality within 1e-10.  The first is a vector orthogonal to
the first m - 1 anchors, flipped against the last one; it exists whenever
those anchors do not span R^n, so always when m <= n.  The second is the
solution of one linear program that minimizes (sum_i p_i) . x over the cone
{p_i . x <= 0 for all i} intersected with ||x||_inf <= 1; its optimum is
negative unless the cone lies in null(P), which the first candidate covers.
If neither passes, the cone is trivial and this solver does not apply.
"""

from __future__ import annotations

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

# candidates this small count as zero (no direction found)
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


def _candidates(points):
    """Sign-direction candidates, cheapest first, as the module docstring says:
    a null(P[:-1]) vector turned away from the last anchor, then the LP's."""
    basis = null_space(points[:-1])
    if basis.shape[1]:
        d = basis[:, 0]
        yield -d if float(points[-1] @ d) > 0.0 else d
    res = linprog(points.sum(axis=0), A_ub=points, b_ub=np.zeros(len(points)),
                  bounds=[(-1.0, 1.0)] * points.shape[1], method="highs")
    if res.success:
        yield res.x


def find_sign_direction(inst: DispersionInstance) -> np.ndarray | None:
    """A unit vector d with p_i . d <= 0 for every anchor, or None.

    Returns the first candidate whose norm exceeds 1e-9 and which, normalized
    to unit length, satisfies every inequality with slack at most 1e-10.  None
    means neither candidate passes: the cone is numerically trivial.
    """
    points = inst.points
    for d in _candidates(points):
        nrm = float(np.linalg.norm(d))
        if nrm > _ZERO_THRESHOLD:
            d = d / nrm
            if float(np.max(points @ d)) <= _SLACK_TOL:
                return d
    return None


def solve_exact(inst: DispersionInstance) -> ExactResult:
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
    relaxation = solve_cr_ball(inst)
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
