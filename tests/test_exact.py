"""Polynomial-time exact ball solver: applicability, tightness, certificates."""

import hashlib

import numpy as np
import pytest
import scipy.linalg

import maxdisp.exact
from maxdisp import relax
from maxdisp import (
    DispersionInstance,
    Geometry,
    NotApplicableError,
    evaluate,
    find_sign_direction,
    generate_random,
    solve_cr_ball,
    solve_exact,
    solve_global,
)


def _halfspace_instance(n, m, seed):
    """Random anchors folded into {p : p[0] <= 0}, so e_1 certifies a direction."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, n))
    pts[:, 0] = -np.abs(pts[:, 0])
    w = rng.uniform(0.3, 3.0, m)
    return DispersionInstance(dim=n, points=pts, weights=w, geometry=Geometry.BALL)


def test_certificate_structure():
    rng = np.random.default_rng(0)
    for k in range(40):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 3))
        inst = _halfspace_instance(n, m, 500 + k)
        res = solve_exact(inst)
        assert abs(np.linalg.norm(res.x_opt) - 1.0) < 1e-10
        assert abs(np.linalg.norm(res.certificate) - 1.0) < 1e-10
        assert float(np.max(inst.points @ res.certificate)) <= 1e-10
        assert res.alpha >= 0.0
        recon = res.relaxation.x_star + res.alpha * res.certificate
        assert np.allclose(res.x_opt, recon, rtol=0, atol=1e-12)
        assert abs(res.value - evaluate(inst, res.x_opt).value) < 1e-12 * max(
            1.0, res.value
        )


def test_value_matches_relaxation():
    # when applicable the method closes the relaxation sandwich exactly
    rng = np.random.default_rng(1)
    for k in range(40):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 3))
        inst = _halfspace_instance(n, m, 600 + k)
        res = solve_exact(inst)
        rel = res.relaxation
        assert res.value >= rel.zeta_star - 1e-6 * max(1.0, rel.zeta_star)
        assert res.value <= rel.zeta_star + rel.gap + 1e-9 * max(1.0, rel.zeta_star)


def test_oracle_cannot_beat_exact():
    rng = np.random.default_rng(2)
    for k in range(8):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        inst = _halfspace_instance(n, m, 700 + k)
        res = solve_exact(inst)
        orc = solve_global(inst, budget=20_000, rng=np.random.default_rng(k))
        assert orc.value <= res.value + 1e-8 * max(1.0, res.value)


def test_not_applicable_on_spanning_anchors():
    for n in (1, 2, 4):
        pts = np.vstack([np.eye(n), -np.eye(n)])
        inst = DispersionInstance(
            dim=n, points=pts, weights=np.ones(2 * n), geometry=Geometry.BALL
        )
        assert find_sign_direction(inst) is None
        with pytest.raises(NotApplicableError, match="sign system"):
            solve_exact(inst)


def test_single_anchor_always_applies():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        p = rng.normal(size=(1, n))
        inst = DispersionInstance(
            dim=n, points=p, weights=np.ones(1), geometry=Geometry.BALL
        )
        res = solve_exact(inst)
        expect = (1.0 + np.linalg.norm(p)) ** 2
        assert abs(res.value - expect) < 1e-9 * expect


def test_sign_direction_standalone():
    inst = _halfspace_instance(5, 4, seed=77)
    d = find_sign_direction(inst)
    assert d is not None
    assert abs(np.linalg.norm(d) - 1.0) < 1e-10
    assert float(np.max(inst.points @ d)) <= 1e-10


def test_rejects_box_geometry():
    box = generate_random(3, 3, seed=4, geometry=Geometry.BOX)
    with pytest.raises(ValueError):
        solve_exact(box)


def test_more_anchors_than_dim_can_still_apply():
    # m > n forces the LP route instead of the null-space route
    rng = np.random.default_rng(5)
    n = 3
    pts = rng.normal(size=(8, n))
    pts[:, 0] = -np.abs(pts[:, 0]) - 0.1
    inst = DispersionInstance(
        dim=n, points=pts, weights=np.ones(8), geometry=Geometry.BALL
    )
    res = solve_exact(inst)
    assert abs(np.linalg.norm(res.x_opt) - 1.0) < 1e-10
    rel = res.relaxation
    assert res.value >= rel.zeta_star - 1e-6 * max(1.0, rel.zeta_star)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("lp_raises", [False, True])
def test_line_cone_with_more_anchors_than_dim(n, lp_raises, monkeypatch):
    # P = [Q; -Q] pins the sign cone to the line null(Q), with m > n.  Every
    # point of the cone is then an LP optimum, the zero vector included (an
    # interior-point solver may return it), but all anchors except the last
    # leave the same line as null space, so that candidate finds it and no LP
    # is needed
    rng = np.random.default_rng(n)
    Q = rng.normal(size=(n - 1, n))
    pts = np.vstack([Q, -Q])
    inst = DispersionInstance(
        dim=n, points=pts, weights=rng.uniform(0.3, 3.0, 2 * n - 2), geometry=Geometry.BALL
    )
    if lp_raises:

        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called although the null space holds the cone")

        monkeypatch.setattr(maxdisp.exact, "linprog", no_lp)
    d = find_sign_direction(inst)
    assert d is not None
    assert float(np.max(pts @ d)) <= 1e-10
    res = solve_exact(inst)
    assert res.value >= res.relaxation.zeta_star - 1e-9 * max(1.0, res.relaxation.zeta_star)


def test_null_space_candidate_is_scipy_svd_bit_for_bit():
    # the first candidate keeps scipy.linalg.null_space's SVD and rank rule
    # and, where the last anchor's product with it is above the tie level,
    # its sign; where the last anchor lies in the span of the others the
    # product is rounding noise, and the sign must not depend on the layout
    # of the row (scipy's is Fortran order, numpy's C order)
    rng = np.random.default_rng(9)
    tie_tol = maxdisp.exact._TIE_TOL
    checked, ties, noisy = 0, 0, 0
    for t in range(2000):
        n = int(rng.integers(1, 11))
        pts = rng.uniform(-1.0, 1.0, (int(rng.integers(2, n + 4)), n))
        if t % 2:
            pts[-1] = pts[:-1].T @ rng.uniform(-1.0, 1.0, len(pts) - 1)
        head = pts[:-1]
        _, s, vt = scipy.linalg.svd(head, check_finite=False)
        rank = int(np.sum(s > np.finfo(float).eps * max(head.shape) * np.amax(s, initial=0.0)))
        if rank == len(vt):
            continue
        got = next(maxdisp.exact._candidates(pts))
        row, c_row = vt[rank], np.ascontiguousarray(vt)[rank]
        product = float(pts[-1] @ row)
        if abs(product) > tie_tol * np.abs(pts[-1]).sum():
            want = -row if product > 0.0 else row
            assert got.tobytes() == want.tobytes(), t
            checked += 1
        else:
            noisy += (product > 0.0) != (float(pts[-1] @ c_row) > 0.0)
            by_layout = [maxdisp.exact._away_from(pts[-1], r)[0] for r in (row, c_row)]
            assert got.tobytes() == by_layout[0].tobytes() == by_layout[1].tobytes(), t
            assert got[np.abs(got).argmax()] < 0.0, t
            ties += 1
    assert checked > 400 and ties > 400
    # the plain sign test would have followed the layout on some of the ties
    assert noisy > 0


@pytest.mark.parametrize("last", [5e-10, -5e-10])
def test_tie_on_a_large_anchor_tries_both_orientations(monkeypatch, last):
    # at ||p||_1 = 1000 a product of 5e-10 is inside the tie band (1e-9) but
    # outside the 1e-10 slack: the null-space direction is still returned in
    # the orientation that passes, whichever the tie-break tries first
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1000.0, 0.0, last]])
    inst = DispersionInstance(dim=3, points=pts, weights=np.ones(3), geometry=Geometry.BALL)

    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called although the null space holds the cone")

    monkeypatch.setattr(maxdisp.exact, "linprog", no_lp)
    d = find_sign_direction(inst)
    assert d.tolist() == [0.0, 0.0, -np.sign(last)]
    assert float(pts[-1] @ d) == -abs(last)
    assert solve_exact(inst).certificate.tolist() == d.tolist()


@pytest.mark.parametrize("p", [(1e-200, 0.0), (1e-300, 1e-300, 0.0)])
def test_lone_tiny_anchor_gets_a_strict_direction(p):
    # a norm that underflows to 0 must not flip the direction toward the anchor
    p = np.array([p])
    inst = DispersionInstance(dim=p.shape[1], points=p, weights=np.ones(1), geometry=Geometry.BALL)
    d = find_sign_direction(inst)
    assert abs(np.linalg.norm(d) - 1.0) < 1e-12
    assert float(p[0] @ d) < 0.0


def _tight_cycle():
    """Criterion 04's first 40 ball shapes (m <= n <= 10), anchors drawn as
    perfbench's `tight` workload draws them."""
    shape = np.random.default_rng(40)
    for k in range(40):
        n = int(shape.integers(2, 11))
        m = int(shape.integers(1, n + 1))
        seq = np.random.SeedSequence([0, 4, k])
        pts = np.random.default_rng(seq).uniform(-1.0, 1.0, size=(m, n))
        yield DispersionInstance(n, pts, np.ones(m), Geometry.BALL)


def _start_fine(inst):
    """The relaxation's closing level at its default tol: 1e-12 max(1, U0),
    with U0 the bound of the piece smallest at the origin."""
    a = inst.weights * (1.0 + np.einsum("ij,ij->i", inst.points, inst.points))
    i = int(np.argmin(a))
    upper = float(a[i] + np.linalg.norm(2.0 * inst.weights[i] * inst.points[i]))
    return 1e-12 * max(1.0, upper)


# the sha256 of every solve_exact and solve_global field over _tight_cycle,
# captured before the face-point start stopped at its first closing bound;
# the gap of a ball the start closes (0 Newton steps) is left out
TIGHT_SHA256 = "b9611d3cb0182a8c4afe40d6f99bf574a7b0be3fb9bee874cc096cf10b999d59"


def test_tight_path_digest():
    h = hashlib.sha256()
    for inst in _tight_cycle():
        ex, orc = solve_exact(inst), solve_global(inst, budget=1000)
        rel = ex.relaxation
        if rel.iterations == 0:
            assert 0.0 <= rel.gap <= _start_fine(inst)
            gap = None
        else:
            gap = rel.gap
        for arr in (ex.x_opt, ex.certificate, rel.x_star, orc.x_best):
            h.update(arr.tobytes())
        trace = {k: v for k, v in orc.method_trace.items() if k != "seconds_stationary"}
        h.update(repr((ex.value, ex.alpha, rel.zeta_star, gap, rel.iterations, rel.converged,
                       orc.value, sorted(trace.items()), orc.certified_radius)).encode())
    assert h.hexdigest() == TIGHT_SHA256


def test_tight_ball_factors_its_tie_sets_once(monkeypatch):
    # the face-point start and the oracle's ball enumeration ask for the same
    # tie sets, so the second asks the first's memo; a revisit after another
    # instance factors again, since nothing is kept on the instance
    calls, uncached = [0], relax._sphere_points_uncached

    def counting(a, B, acts):
        calls[0] += 1
        return uncached(a, B, acts)

    monkeypatch.setattr(relax, "_sphere_points_uncached", counting)
    monkeypatch.setattr("maxdisp.instance._KEPT", {})

    def factorizations(inst):
        calls[0] = 0
        solve_exact(inst)
        solve_global(inst, budget=1000)
        return calls[0]

    started = []
    for inst in _tight_cycle():
        count = factorizations(inst)
        if 2 <= len(np.unique(inst.points, axis=0)) <= min(inst.dim, 8):
            assert count == 1, (inst.dim, inst.m)
            started.append(inst)
    assert len(started) >= 30
    first, other = started[0], started[1]
    assert factorizations(other) == 1
    assert factorizations(first) == 1
