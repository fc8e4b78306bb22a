"""Spherical-cap tail function against an independent quadrature oracle."""

import math

import numpy as np
import pytest
from scipy import integrate

from maxdisp import (
    sample_sphere,
    tail_bound_check,
    tail_s,
    tail_s_inverse,
)


def _tail_quad(n: int, alpha: float) -> float:
    """Cap fraction via direct quadrature of the marginal density.

    For u uniform on the unit sphere in R^n the first coordinate has density
    proportional to (1 - t^2)^((n-3)/2) on [-1, 1], and the tail probability
    at threshold alpha/sqrt(n) is the normalized upper integral. This shares
    no code with the implementation under test.
    """
    c = alpha / math.sqrt(n)
    if c >= 1.0:
        return 0.0
    if n == 2:
        # integrand has endpoint singularities; the arcsine law is exact
        return math.acos(c) / math.pi

    def dens(t: float) -> float:
        return (1.0 - t * t) ** ((n - 3) / 2.0)

    upper, _ = integrate.quad(dens, c, 1.0)
    total, _ = integrate.quad(dens, -1.0, 1.0)
    return upper / total


def test_anchor_quarter():
    assert abs(tail_s(2, 1.0) - 0.25) <= 1e-12


def test_half_at_zero_and_vanishes_at_radius():
    for n in range(2, 61):
        assert abs(tail_s(n, 0.0) - 0.5) <= 1e-12
        assert tail_s(n, math.sqrt(n) + 1e-9) == 0.0


def test_matches_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(120):
        n = int(rng.integers(2, 50))
        alpha = float(rng.uniform(0.0, math.sqrt(n)))
        ref = _tail_quad(n, alpha)
        assert abs(tail_s(n, alpha) - ref) < 1e-9, (n, alpha)
    # deep in the tail the absolute check says nothing; compare relatively
    for n, alpha in ((50, 6.0), (50, 6.5), (30, 5.0), (10, 3.0)):
        ref = _tail_quad(n, alpha)
        assert ref > 0.0
        assert abs(tail_s(n, alpha) / ref - 1.0) <= 1e-9, (n, alpha)


def test_monotone_in_alpha():
    for n in (2, 3, 7, 25):
        grid = np.linspace(0.0, math.sqrt(n), 200)
        vals = np.array([tail_s(n, a) for a in grid])
        assert np.all(np.diff(vals) <= 1e-15)


def test_inverse_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        beta = float(rng.uniform(1e-8, 0.5 - 1e-8))
        alpha = tail_s_inverse(n, beta)
        assert 0.0 < alpha < math.sqrt(n)
        assert abs(tail_s(n, alpha) - beta) < 1e-10


def _ulps(x: float, k: int, toward: float) -> float:
    for _ in range(k):
        x = math.nextafter(x, toward)
    return x


def test_inverse_relative_accuracy_deep_tail():
    # the sampler spends a per-anchor budget rho/m, so the inverse must hit
    # beta relatively (or, where S is too steep, bracket it within 4 ulps)
    rng = np.random.default_rng(5)
    cases = [(2, 1e-11), (50, 1e-12), (5, 1e-11), (60, 1e-30), (2, 0.4999)]
    for _ in range(3000):
        n = int(rng.integers(2, 61))
        beta = float(10.0 ** rng.uniform(-30.0, math.log10(0.5)))
        if beta < 0.5:
            cases.append((n, beta))
    for n, beta in cases:
        alpha = tail_s_inverse(n, beta)
        assert 0.0 < alpha < math.sqrt(n), (n, beta, alpha)
        if abs(tail_s(n, alpha) / beta - 1.0) <= 1e-9:
            continue
        below = tail_s(n, _ulps(alpha, 4, 0.0))
        above = tail_s(n, _ulps(alpha, 4, math.inf))
        assert below >= beta >= above, (n, beta, alpha)


def test_inverse_anchor_and_domain():
    assert abs(tail_s_inverse(2, 0.25) - 1.0) < 1e-10
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            tail_s_inverse(3, bad)


def test_inverse_below_sqrt_log_envelope():
    # the threshold the samplers use never exceeds sqrt((20/9) ln(1/beta))
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        beta = float(rng.uniform(1e-10, 0.4999))
        assert tail_s_inverse(n, beta) <= math.sqrt(20.0 / 9.0 * math.log(1.0 / beta)) + 1e-12


def test_gaussian_style_bound_default_grid():
    report = tail_bound_check(range(2, 41))
    assert len(report.violations) == 0
    assert report.min_margin > 0.0
    assert report.checked == 39 * 80


def test_sample_sphere_properties():
    rng = np.random.default_rng(9)
    pts = sample_sphere(6, rng, 200)
    assert pts.shape == (200, 6)
    norms = np.linalg.norm(pts, axis=1)
    assert np.allclose(norms, 1.0, rtol=0, atol=1e-12)
    # rows are the generator's normal draws, normalized, in stream order
    raw = np.random.default_rng(1).standard_normal((3, 4))
    a = sample_sphere(4, np.random.default_rng(1), 3)
    assert np.array_equal(a, raw / np.linalg.norm(raw, axis=1)[:, None])
    assert sample_sphere(4, np.random.default_rng(1), 0).shape == (0, 4)


def test_rejects_bad_dim():
    with pytest.raises(ValueError):
        tail_s(1, 0.5)
    with pytest.raises(ValueError):
        tail_s(2, -0.1)
