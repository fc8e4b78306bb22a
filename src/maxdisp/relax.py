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
polish takes both sides to rounding level.  A set of pieces has face points
where all of them tie: the tie set's minimum-norm point c and, where the set
meets the sphere, c - step (_sphere_points, whose c + step the oracle uses
too).  With m <= min(n, 8) pieces the face points of all sets of pieces come
first, then the polish's exact solves one at a time, stopping at the first
simplex vector that closes the gap; the barrier runs only if a gap is left.
The tie-set geometry is kept between calls by instance._kept.

The optimum also induces a feasible matrix for the semidefinite relaxation of
the same problem (`lift_ball`, `lift_box`), realizing the equivalence between
the two relaxations constructively instead of calling a conic solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.optimize import linprog, nnls

from .instance import DispersionInstance, Geometry, _kept, _project, _unit

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
# largest m (<= n) starting from all 2^m - 1 face points; ms per solve, n = 10, 2 vCPUs,
# start vs barrier: m = 7 1.3 vs 2.0, 8 1.6 vs 2.3, 9 3.9 vs 2.9, 10 8.6 vs 3.0
_START_MAX = 8
# tables kept by _padded_sets (`tight` asks for m <= 10) and oracle._combos
_TABLES = 16


class NonPositiveValueError(RuntimeError):
    """The relaxation value is not strictly positive, so no lift exists."""


@dataclass(frozen=True)
class RelaxationResult:
    """Certified output of solve_cr_ball / solve_cr_box.

    zeta_star is F(x_star) computed exactly from x_star, and the true
    relaxation value lies in [zeta_star, zeta_star + gap], where the bound
    zeta_star + gap is U of a simplex vector.  converged means gap <= tol; it
    is False when the iteration budget ran out first.  iterations counts
    HiGHS simplex iterations on the box and Newton steps on the ball; 0 when
    the start (on a ball with m <= min(n, 8), the face points) closes the gap.
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
        i = int(a.argmin())
        self.x, self.f, self.upper = np.zeros(B.shape[1]), float(a[i]), math.inf
        lam = np.zeros(a.size)
        lam[i] = 1.0
        self.offer_bound(lam)

    def offer_point(self, x):
        x = _project(x, self.ball)
        f = float(np.min(self.a - self.B @ x))
        if f > self.f:
            self.x, self.f = x, f

    def offer_bound(self, lam):
        c = self.B.T @ lam
        norm = np.linalg.norm(c) if self.ball else np.abs(c).sum()
        self.upper = min(self.upper, float(lam @ self.a + norm))

    def offer_faces(self, acts):
        """Offer the best ball face point of the rows of acts, scored by F at once:
        each tie set's minimum-norm point c, then c - step where it has sphere
        points, so a tie in F keeps c."""
        c, step, on_sphere = _sphere_points(self.a, self.B, acts)
        X = np.concatenate([c, (c - step)[on_sphere]])
        # np.linalg.norm(X, axis=1), without its dispatch
        X /= np.maximum(1.0, np.sqrt(np.add.reduce(X * X, axis=1)))[:, None]
        self.offer_point(X[(self.a - X @ self.B.T).min(axis=1).argmax()])


def _multipliers(B, x, act):
    """Simplex multipliers supported on act, by nonnegative least squares,
    yielded one solve at a time.

    At the ball's optimum B^T lam is -nu x (nu >= 0) on the sphere and 0 at
    an interior point.  One solve offers the radial direction as an extra
    column and one does not: in the interior that column admits exact but
    loose solutions.
    """
    m, n = B.shape
    k, cols = act.size, B[act].T
    nx = float(np.linalg.norm(x))
    for mat in ((np.column_stack([cols, x / nx]), cols) if nx > 1e-9 else (cols,)):
        scale = max(1.0, float(np.abs(mat).max()))
        # a last row asks sum(lam) = 1, weighted like the columns
        system, rhs = np.zeros((n + 1, mat.shape[1])), np.zeros(n + 1)
        system[:n], system[n, :k], rhs[n] = mat, scale, scale
        try:
            sol = nnls(system, rhs)[0][:k]
        except RuntimeError:
            continue
        total = sol.sum()
        if total > 1e-12:
            lam = np.zeros(m)
            lam[act] = sol / total
            yield lam


def _sphere_points(a, B, acts):
    """_sphere_points_uncached kept by instance._kept under the shapes, dtypes and
    bytes of a, B and acts: the oracle repeats the face-point start's call right after it."""
    key = (a.shape, B.shape, acts.shape, a.dtype, B.dtype, acts.dtype,
           a.tobytes(), B.tobytes(), acts.tobytes())
    return _kept("sphere_points", None, key, _sphere_points_uncached, a, B, acts)


def _sphere_points_uncached(a, B, acts):
    """The tie-set geometry of each row of acts: where its pieces take one value.

    acts is a stack of index rows; a row may repeat its first index, which
    adds the exact zero tie 0.x = 0.  Each row's ties (b_i - b_0).x = a_i - a_0
    cut out an affine set, solved by one stacked SVD with lstsq's cutoff
    1e-12 s_0.  Returns, per row, the set's minimum-norm point c, a step such
    that c +- step lie on the sphere, and whether they do (the set meets the
    ball and is more than a point).  On the sphere the common value is
    stationary along the set's part of -b_0, or along any direction of the
    set where b_0.x is constant on it (antiparallel or repeated anchors).
    """
    n = B.shape[1]
    Bs, As = B[acts], a[acts]
    b0 = Bs[:, 0]
    u, sv, vt = np.linalg.svd(Bs[:, 1:] - Bs[:, :1])
    keep, r = sv > 1e-12 * sv[:, :1], sv.shape[1]
    # row-vector products: a stack of one rounds as one matrix-vector product,
    # and a norm as np.linalg.norm of one vector
    proj = ((As[:, 1:] - As[:, :1])[:, None, :] @ u[:, :, :r])[:, 0]
    c = ((proj / np.where(keep, sv, np.inf))[:, None, :] @ vt[:, :r])[:, 0]
    rank, room = keep.sum(axis=1), 1.0 - (c[:, None, :] @ c[:, :, None])[:, 0, 0]
    g = (vt @ b0[:, :, None])[:, :, 0]
    g[np.arange(n) < rank[:, None]] = 0.0
    gn = np.sqrt((g[:, None, :] @ g[:, :, None])[:, 0, 0])
    flat = gn <= 1e-12 * np.maximum(1.0, np.sqrt((b0[:, None, :] @ b0[:, :, None])[:, 0, 0]))
    along = (g[:, None, :] @ vt)[:, 0] / np.where(flat, 1.0, gn)[:, None]
    step = np.where(flat[:, None], vt[np.arange(len(acts)), np.minimum(rank, n - 1)], along)
    step *= np.sqrt(np.maximum(room, 0.0))[:, None]
    # a tie set that is one point lies on the tie line of a subset
    return c, step, (room >= 0.0) & (rank < n)


def _distinct_rows(rows):
    """The index of the first row of each distinct value, in lexicographic
    order of the values, as np.unique(rows, axis=0, return_index=True)[1]:
    one stable lexsort, then each row is compared with the one before it."""
    order = np.lexsort(rows.T[::-1])
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[order[1:]] != rows[order[:-1]], axis=1)
    return order[first]


def _pad(sets, k):
    """Index tuples as the rows of one array, padded to k entries by repeating
    their first index."""
    return np.array([A + A[:1] * (k - len(A)) for A in sets], dtype=np.intp)


@lru_cache(maxsize=_TABLES)
def _padded_sets(m, k):
    """Read-only arrays over every subset of at most k of m indices, by size,
    then in combinations order: the subsets padded to k entries (_pad), and
    their sizes."""
    sets = [A for size in range(1, k + 1) for A in combinations(range(m), size)]
    idx, size = _pad(sets, k), np.array([len(A) for A in sets], dtype=np.intp)
    idx.flags.writeable = size.flags.writeable = False
    return idx, size


def _polish(cert, lam):
    """One pass of exact solves on two ball active sets: the top n + 1 entries
    of lam, and the pieces within 1e-3 relative of the minimum at cert.x (at
    most 3n + 6 of them).  Offers the bound of each set's multipliers, one
    solve at a time, and yields its support after offering it: a caller may
    stop once the gap closes, or take every support and offer their face
    points, since a face point depends on its support alone.
    """
    a, B, n = cert.a, cert.B, cert.B.shape[1]
    order = np.argsort(r := a - B @ cert.x, kind="stable")
    k = np.searchsorted(r[order], cert.f + 1e-3 * max(1.0, abs(cert.f)), "right")
    sets = {tuple(np.sort(np.argsort(-lam, kind="stable")[: n + 1]).tolist()),
            tuple(np.sort(order[: min(max(k, 1), 3 * n + _ACTIVE_CAP_PAD)]).tolist())}
    for act in sorted(sets):
        for mult in _multipliers(B, cert.x, np.array(act)):
            cert.offer_bound(mult)
            yield tuple(np.flatnonzero(mult).tolist())


def _solve_box(cert, tol, fine, max_iter):
    """One HiGHS LP: max t s.t. B x + t <= a, |x_j| <= 1, whose duals are the
    certificate's simplex vector; returns its iterations."""
    m, n = cert.B.shape
    A_ub, bounds = np.hstack([cert.B, np.ones((m, 1))]), [(-1, 1)] * n + [(None, None)]
    res = linprog(np.append(np.zeros(n), -1.0), A_ub, cert.a, bounds=bounds, method="highs",
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
    is far below tol, past which phi has no digits left to resolve.  The
    face-point start (m <= min(n, _START_MAX)) offers every face point, then
    the polish's bounds until one closes the gap, and returns 0 if one does.
    """
    a, B, (m, n) = cert.a, cert.B, cert.B.shape
    start, offered = m <= min(n, _START_MAX), set()  # supports whose face points are offered
    if start:
        cert.offer_faces(_padded_sets(m, m)[0])
        # with m <= n one of the polish's sets is every piece; its supports
        # are dropped, so the start stops at its first closing bound
        for _ in _polish(cert, np.ones(m)):
            if cert.upper - cert.f <= fine:
                break
        if cert.upper - cert.f <= fine:
            return 0
    A = np.hstack([B, np.ones((m, 1))])
    size = max(1.0, float(np.min(a)))
    z, tau = np.append(np.zeros(n), np.min(a) - size), (m + 1) / size
    steps = 0
    while True:
        x, s = z[:n], a - A @ z
        q, d = 1.0 - float(x @ x), 1.0 / s
        g = A.T @ d - np.append(-2.0 / q * x, tau)
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
            supports = dict.fromkeys(_polish(cert, d / d.sum()))
            # the start offers the face point of every support
            new = [] if start else [sup for sup in supports if sup not in offered]
            if new:
                offered.update(new)
                cert.offer_faces(_pad(new, max(map(len, new))))
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

    max_iter = 200 * m * n if max_iter is None else max_iter
    if m == 1 and np.any(B):
        # one linear piece: its maximum is the region's point farthest along -p
        x = -_unit(inst.points[0]) if ball else -np.sign(inst.points[0])
        return RelaxationResult(x, float((a - B @ x)[0]), 0.0, 0, True)

    # repeated anchors would crowd the polish's active sets: keep the first of
    # each distinct [a, B] row, compared as floats like np.unique(axis=0)
    keep = np.sort(_distinct_rows(np.column_stack([a, B])))
    cert = _Certificate(a[keep], B[keep], ball)
    tol = 1e-7 * max(1.0, cert.upper) if tol is None else tol
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
    antipode of the anchor direction); with m <= min(n, 8) distinct anchors
    the face-point start closes the gap with 0 Newton steps.
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
