"""Tail probabilities for uniform sampling on a radius-sqrt(n) sphere.

For a fixed nonzero vector b in R^n (n >= 2) and eta drawn uniformly from the
sphere of radius sqrt(n), the tail function

    tail_s(n, a) = Pr(b . eta >= a * ||b||)

depends only on n and a.  For 0 <= a <= sqrt(n) it equals the normalized
spherical-cap integral

    S(n, a) = int_{a/sqrt(n)}^1 (1 - t^2)^((n-3)/2) dt
              / (2 int_0^1 (1 - t^2)^((n-3)/2) dt)

and it vanishes beyond a = sqrt(n).  Substituting u = t^2 turns the integral
into half the complement of a regularized incomplete beta function,
S(n, a) = (1 - I_{a^2/n}(1/2, (n-1)/2)) / 2.  It is computed with scipy's
complement `betaincc`, which keeps full relative accuracy deep in the tail,
for every n >= 2 (at n = 2 it is the arcsine law arccos(a / sqrt(2)) / pi).
The inverse reads the same formula backwards through `betainccinv`.

Two classical estimates are exposed through checks and used by the sampling
algorithms: S(n, a) < exp(-0.45 a^2) for every n >= 2 and a > 0, and the
derived inverse estimate S^{-1}(n, beta) < sqrt((20/9) ln(1/beta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "TailBoundReport",
    "tail_s",
    "tail_s_inverse",
    "sample_sphere",
    "tail_bound_check",
]


def _check_n(n) -> int:
    if int(n) != n or int(n) < 2:
        raise ValueError(f"sphere dimension must be an integer >= 2, got {n!r}")
    return int(n)


def tail_s(n: int, alpha: float) -> float:
    """Probability that a radius-sqrt(n) sphere point has b-projection >= alpha * ||b||.

    Parameters
    ----------
    n : int
        Ambient dimension, n >= 2.
    alpha : float
        Nonnegative threshold.  Values above sqrt(n) give probability 0.

    Returns
    -------
    float in [0, 1/2], decreasing in alpha, with tail_s(n, 0) = 1/2.
    """
    n = _check_n(n)
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    if alpha * alpha >= n:
        return 0.0
    # u = t^2 maps the cap integral onto a regularized incomplete beta tail
    return float(0.5 * special.betaincc(0.5, 0.5 * (n - 1), alpha * alpha / n))


def tail_s_inverse(n: int, beta: float) -> float:
    """Solve tail_s(n, alpha) = beta for alpha, beta in the open interval (0, 1/2).

    Closed form alpha = sqrt(n * u) with u the inverse of the incomplete-beta
    complement at 2 beta, for every n >= 2 (at n = 2 it agrees with the
    arcsine law).  The result lies strictly inside (0, sqrt(n)): where u
    rounds to 1 deep in the tail it is capped one ulp below sqrt(n), so that
    the sampler bound 1/2 (1 - alpha/sqrt(n)) stays positive.
    """
    n = _check_n(n)
    beta = float(beta)
    if not (0.0 < beta < 0.5):
        raise ValueError(f"beta must lie strictly between 0 and 0.5, got {beta!r}")
    alpha = math.sqrt(n * special.betainccinv(0.5, 0.5 * (n - 1), 2.0 * beta))
    return min(alpha, math.nextafter(math.sqrt(n), 0.0))


def sample_sphere(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """count points uniform on the unit sphere in R^n, as a (count, n) array.

    Each row is a normalized standard normal draw; a row whose draw has zero
    norm (probability zero) is left at zero rather than divided by zero.
    """
    if int(n) != n or int(n) < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {n!r}")
    return _unit_rows(rng.standard_normal((count, int(n))))


def _unit_rows(raw: np.ndarray) -> np.ndarray:
    """The rows of raw scaled to unit norm; a zero row stays zero.  The sphere
    sampler calls it on the slices of a standard normal batch it tests."""
    nrm = np.sqrt(np.add.reduce(raw * raw, axis=1))
    nrm[nrm == 0.0] = 1.0
    return raw / nrm[:, None]


@dataclass(frozen=True)
class TailBoundReport:
    """Result of sweeping the sub-Gaussian estimate exp(-0.45 a^2) over a grid."""

    checked: int
    min_margin: float
    argmin_n: int
    argmin_alpha: float
    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations and self.min_margin > 0.0


def tail_bound_check(n_range, alpha_grid=None) -> TailBoundReport:
    """Verify tail_s(n, a) < exp(-0.45 a^2) over the given grid.

    Returns the minimal margin exp(-0.45 a^2) - tail_s(n, a) found, where it
    occurred, and any outright violations (margin <= 0).  The default alpha
    grid is 0.0 to 7.9 in steps of 0.1, which reaches far enough into the
    flat region of the tail that the margin there is the bound itself.
    """
    ns = [int(v) for v in n_range]
    if alpha_grid is None:
        alpha_grid = np.arange(0.0, 8.0, 0.1)
    alphas = [float(v) for v in alpha_grid]
    if not ns or not alphas:
        raise ValueError("n_range and alpha_grid must be non-empty")
    best = math.inf
    arg = (ns[0], alphas[0])
    violations = []
    for n in ns:
        for a in alphas:
            margin = math.exp(-0.45 * a * a) - tail_s(n, a)
            if margin < best:
                best = margin
                arg = (n, a)
            if margin <= 0.0:
                violations.append((n, a, margin))
    return TailBoundReport(
        checked=len(ns) * len(alphas),
        min_margin=best,
        argmin_n=arg[0],
        argmin_alpha=arg[1],
        violations=tuple(violations),
    )
