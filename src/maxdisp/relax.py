"""Certified solvers for the ball and box convex relaxations.

Replacing ||x||^2 by its maximum over the feasible region (1 on the ball, n on
the box) turns the dispersion problem into the concave piecewise-linear
program

    maximize   F(x) = min_i (a_i - b_i . x)
    subject to x in ball / box,      a_i = w_i (mu + ||p_i||^2), b_i = 2 w_i p_i,

whose value sandwiches the original one from above.  Its epigraph form,
max t s.t. B x + t <= a, is one HiGHS linear program on the box and a
single-cone program on the ball, solved by a log-barrier Newton method.  For
any simplex vector lam (lam >= 0, sum(lam) = 1) the closed form

    U(lam) = lam . a + N(B^T lam),

with N the Euclidean norm on the ball and the l1 norm on the box, bounds the
value from above, and any feasible x bounds it from below by F(x), so the
returned gap is a certificate independent of how the solver got there.  On
the box the LP's own duals are that simplex vector; on the ball an active-set
polish takes both sides to rounding level.

The optimum also induces a feasible matrix for the semidefinite relaxation of
the same problem (`lift_ball`, `lift_box`), realizing the equivalence between
the two relaxations constructively instead of calling a conic solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, nnls

from .instance import DispersionInstance, Geometry, _project, _unit

__all__ = [
    "RelaxationResult",
    "NonPositiveValueError",
    "solve_cr_ball",
    "solve_cr_box",
    "lift_ball",
    "lift_box",
    "gamma1",
]

_ACTIVE_CAP_PAD = 6
_TAU_GROWTH = 8.0


class NonPositiveValueError(RuntimeError):
    """The relaxation value is not strictly positive, so no lift exists."""


@dataclass(frozen=True)
class RelaxationResult:
    """Certified output of solve_cr_ball / solve_cr_box.

    zeta_star is F(x_star) computed exactly from x_star, and the true
    relaxation value lies in [zeta_star, zeta_star + gap], where the bound
    zeta_star + gap is U of a simplex vector.  converged means gap <= tol; it
    is False when the iteration budget ran out first.  iterations counts
    HiGHS simplex iterations on the box and Newton steps on the ball; it is 0
    when the starting certificate is already closed.
    """

    x_star: np.ndarray
    zeta_star: float
    gap: float
    iterations: int
    converged: bool


class _Certificate:
    """Best feasible point (scored by F) and best simplex bound (scored by U).

    Nothing else a solver returns reaches the result, so its tolerances never
    do.  It starts at the origin and the singleton on its smallest piece.
    """

    def __init__(self, a, B, ball):
        self.a, self.B, self.ball = a, B, ball
        self.x, self.f, self.upper = np.zeros(B.shape[1]), float(np.min(a)), math.inf
        self.offer_bound(np.eye(1, a.size, int(np.argmin(a)))[0])

    def offer_point(self, x):
        x = _project(x, self.ball)
        f = float(np.min(self.a - self.B @ x))
        if f > self.f:
            self.x, self.f = x, f

    def offer_bound(self, lam):
        c = self.B.T @ lam
        norm = np.linalg.norm(c) if self.ball else np.abs(c).sum()
        self.upper = min(self.upper, float(lam @ self.a + norm))


def _multipliers(B, x, act):
    """Simplex multipliers supported on act, by nonnegative least squares.

    At the ball's optimum B^T lam is -nu x (nu >= 0) on the sphere and 0 at
    an interior point.  One solve offers the radial direction as an extra
    column and one does not: in the interior that column admits exact but
    loose solutions.
    """
    m, n = B.shape
    nx = float(np.linalg.norm(x))
    extra = x[:, None] / nx if nx > 1e-9 else np.zeros((n, 0))
    out = []
    for mat in (np.hstack([B[act].T, extra]), B[act].T)[: 2 if extra.size else 1]:
        scale = max(1.0, float(np.abs(mat).max()))
        penalty = np.r_[np.full(act.size, scale), np.zeros(mat.shape[1] - act.size)]
        try:
            sol = nnls(np.vstack([mat, penalty]), np.r_[np.zeros(n), scale])[0]
        except RuntimeError:
            continue
        sol = sol[: act.size]
        if sol.sum() > 1e-12:
            out.append(np.zeros(m))
            out[-1][act] = sol / sol.sum()
    return out


def _tie_set(a, B, act):
    """The affine set on which every piece in act takes the same value.

    The ties (b_i - b_0).x = a_i - a_0 are solved by one SVD.  Returns their
    minimum-norm point c, an orthonormal basis of the set's directions (rows,
    all orthogonal to c) and the room 1 - ||c||^2 left inside the ball.
    """
    u, sv, vt = np.linalg.svd(B[act[1:]] - B[act[0]])
    rank = int(np.sum(sv > 1e-12 * sv[0])) if sv.size else 0
    c = vt[:rank].T @ ((u[:, :rank].T @ (a[act[1:]] - a[act[0]])) / sv[:rank])
    return c, vt[rank:], 1.0 - float(c @ c)


def _face_point(a, B, act):
    """Best point of the ball at which every piece in act takes the same value:
    the tie set's minimum-norm point, stepped to the sphere along the set's part
    of -b_0 (n + 1 independent ties leave just the point)."""
    b0 = B[act[0]]
    x, dirs, room = _tie_set(a, B, act)
    g = dirs @ b0
    gn = float(np.linalg.norm(g))
    if room > 0.0 and gn > 1e-12 * max(1.0, float(np.linalg.norm(b0))):
        x = x - dirs.T @ g * (math.sqrt(room) / gn)
    return x


def _polish(cert, lam):
    """One pass of exact solves on two ball active sets: the top n + 1 entries
    of lam, and the pieces within 1e-3 relative of the minimum at cert.x (at
    most 3n + 6 of them).  Each set yields multipliers, and each multiplier
    the face point of its support.
    """
    a, B, n = cert.a, cert.B, cert.B.shape[1]
    order = np.argsort(r := a - B @ cert.x, kind="stable")
    k = np.searchsorted(r[order], cert.f + 1e-3 * max(1.0, abs(cert.f)), "right")
    sets = {tuple(np.sort(np.argsort(-lam, kind="stable")[: n + 1])),
            tuple(np.sort(order[: min(max(k, 1), 3 * n + _ACTIVE_CAP_PAD)]))}
    for act in sorted(sets):
        for mult in _multipliers(B, cert.x, np.array(act)):
            cert.offer_bound(mult)
            cert.offer_point(_face_point(a, B, np.flatnonzero(mult)))


def _solve_box(cert, tol, fine, max_iter):
    """One HiGHS LP: max t s.t. B x + t <= a, |x_j| <= 1, whose duals are the
    certificate's simplex vector; returns its iterations."""
    m, n = cert.B.shape
    A_ub, bounds = np.hstack([cert.B, np.ones((m, 1))]), [(-1, 1)] * n + [(None, None)]
    res = linprog(np.r_[np.zeros(n), -1.0], A_ub, cert.a, bounds=bounds, method="highs",
                  options={"maxiter": max_iter})
    if res.success:
        cert.offer_point(res.x[:n])
        duals = np.maximum(-np.asarray(res.ineqlin.marginals), 0.0)
        if duals.sum() > 1e-12:
            cert.offer_bound(duals / duals.sum())
    return int(res.nit)


def _solve_ball(cert, tol, fine, max_iter):
    """Log-barrier Newton method for max t s.t. B x + t <= a, ||x|| <= 1.

    Damped Newton steps center phi = -tau t - sum log s_i - log(1 - ||x||^2),
    s = a - B x - t, then tau grows.  At a center the d_i = 1/s_i sum to tau,
    so d / tau is a simplex vector whose bound is about (m + 1) / tau above
    the value; it seeds the polish.  Stops when the polish closes the gap,
    after max_iter Newton steps (the count returned), or once (m + 1) / tau
    is far below tol, past which phi has no digits left to resolve.
    """
    a, B, (m, n) = cert.a, cert.B, cert.B.shape
    A = np.hstack([B, np.ones((m, 1))])
    size = max(1.0, float(np.min(a)))
    z, tau = np.r_[np.zeros(n), np.min(a) - size], (m + 1) / size
    steps = 0
    while True:
        x, s = z[:n], a - A @ z
        q, d = 1.0 - float(x @ x), 1.0 / s
        g = A.T @ d - np.r_[-2.0 / q * x, tau]
        H = (A.T * (d * d)) @ A
        H[:n, :n] += 2.0 / q * np.eye(n) + 4.0 / (q * q) * np.outer(x, x)
        try:
            dz = -np.linalg.solve(H, g)
        except np.linalg.LinAlgError:  # only far past the resolution of phi
            return steps
        slope, step = float(g @ dz), 1.0
        while -slope > 2e-6 and steps < max_iter and step > 1e-18:  # Armijo search
            z_new = z + step * dz
            s_new, q_new = a - A @ z_new, 1.0 - float(z_new[:n] @ z_new[:n])
            # the change of phi, summed without forming -tau t
            if s_new.min() > 0.0 and q_new > 0.0 and (
                -tau * step * dz[n] - np.log(s_new / s).sum() - math.log(q_new / q)
                <= 0.25 * step * slope
            ):
                z, steps = z_new, steps + 1
                break
            step *= 0.5
        else:  # centered, out of steps, or stalled
            cert.offer_point(x)
            cert.offer_bound(d / d.sum())
            _polish(cert, d / d.sum())
            closed = cert.upper - cert.f <= fine or (m + 1) / tau < 1e-3 * tol
            if closed or steps >= max_iter or -slope > 2e-6:
                return steps
            tau *= _TAU_GROWTH


def _solve_relaxation(inst: DispersionInstance, geometry: Geometry, tol, max_iter):
    if inst.geometry is not geometry:
        raise ValueError(
            f"instance geometry is {inst.geometry.value!r}, expected {geometry.value!r}"
        )
    if tol is not None and tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    n, m = inst.dim, inst.m
    ball = geometry is Geometry.BALL
    mu = 1.0 if ball else float(n)
    with np.errstate(over="ignore"):  # reported just below
        a = inst.weights * (mu + np.einsum("ij,ij->i", inst.points, inst.points))
        B = 2.0 * inst.weights[:, None] * inst.points
    if not (np.isfinite(a).all() and np.isfinite(B).all()):
        raise ValueError("a piece w_i (mu + ||p_i||^2 - 2 p_i . x) overflows; rescale the instance")

    if max_iter is None:
        max_iter = 200 * m * n

    if m == 1 and np.any(B):
        # one linear piece: its maximum is the region's point farthest along -p
        x = -_unit(inst.points[0]) if ball else -np.sign(inst.points[0])
        return RelaxationResult(x, float((a - B @ x)[0]), 0.0, 0, True)

    # repeated anchors would crowd the polish's active sets: keep one of each
    keep = np.sort(np.unique(np.column_stack([a, B]), axis=0, return_index=True)[1])
    cert = _Certificate(a[keep], B[keep], ball)
    if tol is None:
        tol = 1e-7 * max(1.0, cert.upper)
    # close to rounding level, not just to tol, so x_star is reproducible
    fine = min(tol, 1e-12 * max(1.0, cert.upper))
    solve = _solve_ball if ball else _solve_box
    # a closed start (e.g. every anchor at the origin) needs no solve
    iterations = 0 if cert.upper - cert.f <= fine else solve(cert, tol, fine, max_iter)
    gap = max(cert.upper - cert.f, 0.0)
    return RelaxationResult(cert.x, cert.f, gap, iterations, gap <= tol)


def solve_cr_ball(
    inst: DispersionInstance, tol: float | None = None, max_iter: int | None = None
) -> RelaxationResult:
    """Certified maximization of min_i w_i (1 - 2 p_i.x + ||p_i||^2) over the ball.

    The default tolerance is 1e-7 * max(1, U0), with U0 the bound of the piece
    that is smallest at the origin, and the default cap is 200 * m * n
    Newton steps.  On a single anchor the optimum is closed form (the
    antipode of the anchor direction).
    """
    return _solve_relaxation(inst, Geometry.BALL, tol, max_iter)


def solve_cr_box(
    inst: DispersionInstance, tol: float | None = None, max_iter: int | None = None
) -> RelaxationResult:
    """Certified maximization of min_i w_i (n - 2 p_i.x + ||p_i||^2) over the box.

    Defaults as for solve_cr_ball; max_iter caps HiGHS simplex iterations.
    """
    return _solve_relaxation(inst, Geometry.BOX, tol, max_iter)


# ---------------------------------------------------------------------------
# lifts to the semidefinite relaxation
# ---------------------------------------------------------------------------


def _lift(result: RelaxationResult, inst: DispersionInstance, geometry: Geometry,
          diagonal: np.ndarray) -> np.ndarray:
    """(1/zeta) * ([x; 1][x; 1]^T + Diag(diagonal, 0)), exactly symmetric, once
    zeta is known positive and inst has the lift's geometry."""
    if result.zeta_star <= 0.0:
        raise NonPositiveValueError(
            "relaxation value is not strictly positive "
            f"(zeta_star = {result.zeta_star:.6g}); the problem assumes a positive "
            "optimum and no feasible lifted matrix exists otherwise"
        )
    if inst.geometry is not geometry:
        raise ValueError(f"lift_{geometry.value} requires a {geometry.value}-geometry instance")
    v = np.append(result.x_star, 1.0)
    Z = np.outer(v, v)
    n = diagonal.shape[0]
    Z[np.arange(n), np.arange(n)] += diagonal
    return Z / result.zeta_star


def lift_ball(result: RelaxationResult, inst: DispersionInstance) -> np.ndarray:
    """Feasible (n+1) x (n+1) lifted matrix for the ball from a relaxation optimum.

    Z = (1/zeta) * ([x; 1][x; 1]^T + blockdiag(((1 - ||x||^2)/n) I, 0)),
    which satisfies sum_j Z_jj = Z_{n+1,n+1} = 1/zeta and every constraint
    product w_i <A_i, Z> >= 1.
    """
    x = np.asarray(result.x_star, dtype=float)
    slack = max(0.0, 1.0 - float(x @ x))
    return _lift(result, inst, Geometry.BALL, np.full(inst.dim, slack / inst.dim))


def lift_box(result: RelaxationResult, inst: DispersionInstance) -> np.ndarray:
    """Feasible (n+1) x (n+1) lifted matrix for the box from a relaxation optimum.

    Z = (1/zeta) * ([x; 1][x; 1]^T + Diag(1 - x_1^2, ..., 1 - x_n^2, 0)),
    which makes every diagonal entry equal to Z_{n+1,n+1} = 1/zeta.
    """
    x = np.asarray(result.x_star, dtype=float)
    return _lift(result, inst, Geometry.BOX, np.maximum(0.0, 1.0 - x * x))


def gamma1(Z: np.ndarray) -> float:
    """Largest diagonal entry of the top-left n x n block of the (n+1) x (n+1)
    lift Z over its trace.  Equals exactly 1/n for box lifts, whose diagonal is
    constant.
    """
    entries = np.asarray(Z, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] < 2:
        raise ValueError(f"expected a square matrix of size >= 2, got {entries.shape}")
    diag = np.diag(entries)[:-1]
    total = float(diag.sum())
    if total <= 0.0:
        raise ValueError("top-left block has nonpositive trace")
    return float(diag.max() / total)
