"""Command line interface: exit codes, output shapes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxdisp import (
    DispersionInstance,
    Geometry,
    approx_general_fixed,
    build_hardness,
    generate_random,
    lift_ball,
    lift_box,
    oracle,
    solve_cr_ball,
    solve_cr_box,
    write_instance,
)
from maxdisp.cli import main


@pytest.fixture
def ball_path(tmp_path):
    inst = generate_random(4, 6, seed=3)
    path = tmp_path / "ball.json"
    write_instance(inst, path)
    return str(path)


@pytest.fixture
def spanning_path(tmp_path):
    # anchors at +-e_j leave the sign system with only the zero solution
    pts = np.vstack([np.eye(3), -np.eye(3)])
    inst = DispersionInstance(
        dim=3, points=pts, weights=np.ones(6), geometry=Geometry.BALL
    )
    path = tmp_path / "spanning.json"
    write_instance(inst, path)
    return str(path)


def test_tail_forward_prints_exact_quarter(capsys):
    assert main(["tail", "s", "--n", "2", "--alpha", "1.0"]) == 0
    assert capsys.readouterr().out.strip() == "0.25"


def test_tail_inverse_round_trip(capsys):
    assert main(["tail", "inv", "--n", "7", "--beta", "0.125"]) == 0
    alpha = float(capsys.readouterr().out.strip())
    assert main(["tail", "s", "--n", "7", "--alpha", repr(alpha)]) == 0
    assert abs(float(capsys.readouterr().out.strip()) - 0.125) < 1e-10


def test_tail_check_reports_clean_grid(capsys):
    assert main(["tail", "check", "--n-max", "12"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok:")
    assert "880 points checked" in out


def test_solve_oracle_json(ball_path, capsys):
    assert main(["solve", ball_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "oracle"
    assert len(doc["x"]) == 4
    assert doc["value"] > 0
    # the oracle samples nothing: it closes at the root, its value at the
    # relaxation's upper bound, or it enumerates
    trace = doc["method_trace"]
    assert set(trace) == {
        "samples", "stationary_candidates", "active_sets", "candidates_refined",
        "refine_steps", "polish_steps", "seconds_stationary",
    }
    assert trace["samples"] == 0
    upper = doc["upper"]
    if "closed at the root" in doc["note"]:
        assert upper - doc["value"] <= 1e-12 * max(1.0, upper)
    else:
        assert trace["active_sets"] > 0


def test_solve_above_size_limit_fails_before_enumerating(tmp_path, capsys, monkeypatch):
    # the hardness instance of 1..11 has 22 anchors in 11 dimensions, sum over
    # k <= 12 of C(22, k) active sets, above the oracle's limit, and its root
    # does not close: the enumeration must refuse before building any set
    def no_enumeration(inst):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(oracle, "_active_sets", no_enumeration)
    path = tmp_path / "big.json"
    write_instance(build_hardness(np.arange(1, 12)).instance, path)
    assert main(["solve", str(path)]) == 1
    count = sum(math.comb(22, k) for k in range(1, 13))
    assert f"{count:,}" in capsys.readouterr().err
    # 12 dimensions and 40 anchors count more sets still, but the root serves them
    write_instance(generate_random(12, 40, seed=0), path)
    assert main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["note"].startswith("closed at the root")


def test_solve_overflowing_piece_fails_cleanly(tmp_path, capsys):
    inst = DispersionInstance(3, 1e160 * generate_random(3, 2, seed=0).points, np.ones(2),
                              Geometry.BALL)
    path = tmp_path / "huge.json"
    write_instance(inst, path)
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflows" in err


def test_solve_exact_json(tmp_path, capsys):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(3, 4))
    pts[:, 0] = -np.abs(pts[:, 0])
    inst = DispersionInstance(dim=4, points=pts, weights=np.ones(3), geometry=Geometry.BALL)
    path = tmp_path / "half.json"
    write_instance(inst, path)
    assert main(["solve", str(path), "--exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "exact"
    assert "step_length" in doc
    assert abs(float(np.linalg.norm(doc["x"])) - 1.0) < 1e-9


def test_solve_exact_not_applicable_fails_cleanly(spanning_path, capsys):
    assert main(["solve", spanning_path, "--exact"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "sign system" in err


def test_relax_with_lift(ball_path, capsys):
    assert main(["relax", ball_path, "--lift", "--tol", "1e-9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert doc["gap"] <= 1e-8 * max(1.0, doc["zeta_star"])
    Z = np.asarray(doc["lift_entries"])
    assert Z.shape == (5, 5)
    assert 0.0 < doc["gamma1"] <= 1.0


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_relax_rejects_nonpositive_tol(ball_path, capsys, tol):
    # a zero tolerance is an error, not a request for the default
    assert main(["relax", ball_path, "--tol", tol]) == 1
    assert capsys.readouterr().err.startswith("error: tol must be positive")


def test_relax_overflowing_piece_fails_cleanly(tmp_path, capsys):
    inst = DispersionInstance(2, np.array([[1e200, 0.0], [0.0, 1.0]]), np.ones(2), Geometry.BALL)
    path = tmp_path / "huge.json"
    write_instance(inst, path)
    assert main(["relax", str(path)]) == 1
    assert "overflows" in capsys.readouterr().err


def test_approx_csv_shape_and_determinism(ball_path, capsys):
    argv = ["approx", ball_path, "--algo", "ball", "--rho", "0.9", "--runs", "3", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    lines = first.strip().splitlines()
    assert lines[0] == "run,value,accepted_at,raw_samples,bound_factor"
    assert len(lines) == 4
    for row in lines[1:]:
        fields = row.split(",")
        assert len(fields) == 5
        assert float(fields[1]) > 0
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("geometry", [Geometry.BALL, Geometry.BOX])
def test_approx_general_rows_are_the_library_sampler(geometry, tmp_path, capsys):
    # the CLI solves the relaxation and builds the lift once, then runs the
    # sampler with them on one seeded generator per run
    inst = generate_random(4, 6, seed=3, geometry=geometry)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    argv = ["approx", str(path), "--algo", "general", "--rho", "0.5", "--runs", "3",
            "--seed", "5"]
    assert main(argv) == 0
    ball = geometry is Geometry.BALL
    rel = (solve_cr_ball if ball else solve_cr_box)(inst)
    lift = (lift_ball if ball else lift_box)(rel, inst)
    rows = ["run,value,accepted_at,raw_samples,bound_factor"]
    for k in range(3):
        rng = np.random.default_rng(np.random.SeedSequence([5, k]))
        res = approx_general_fixed(inst, 0.5, rng, lift=lift, relaxation=rel)
        rows.append(f"{k},{res.f_value:.12g},{res.accepted_at},{res.raw_samples},"
                    f"{res.bound_r:.12g}")
    assert capsys.readouterr().out.splitlines() == rows


def test_approx_algo_geometry_mismatch(ball_path, capsys):
    assert main(["approx", ball_path, "--algo", "box"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bench_csv(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    argv = [
        "bench", "--n", "3", "--m", "6..8", "--runs", "2", "--rho", "0.9",
        "--seed", "1", "--out", str(out_file),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    text = out_file.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == (
        "m,v_oracle,v_cr,gen_vmax,gen_vmin,gen_vave,gen_lb,new_vmax,new_vmin,new_vave,new_lb"
    )
    assert len(lines) == 4
    ms = [int(row.split(",")[0]) for row in lines[1:]]
    assert ms == [6, 7, 8]
    for row in lines[1:]:
        vals = [float(tok) for tok in row.split(",")[1:]]
        v_oracle, v_cr = vals[0], vals[1]
        assert v_oracle <= v_cr + 1e-9


def test_bench_stdout_deterministic(capsys):
    argv = ["bench", "--n", "2", "--m", "6,7", "--runs", "2", "--rho", "0.9",
            "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_bench_markdown(capsys):
    argv = ["bench", "--n", "2", "--m", "6", "--runs", "1", "--rho", "0.9",
            "--seed", "0", "--format", "md"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.lstrip().startswith("|")
    assert "v_oracle" in out


def test_bench_zero_runs_is_an_error(capsys):
    argv = ["bench", "--n", "2", "--m", "6", "--runs", "0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: runs must be at least 1" in captured.err


@pytest.mark.parametrize("m", ["6..5", ",,"])
def test_bench_empty_anchor_counts_is_an_error(m, capsys):
    # the header alone used to be printed, with exit 0
    assert main(["bench", "--n", "2", "--m", m, "--runs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: m_values must hold at least one anchor count" in captured.err


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_approx_runs_below_one_is_an_error(ball_path, runs, capsys):
    assert main(["approx", ball_path, "--algo", "ball", "--runs", runs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: runs must be at least 1" in captured.err


def test_hardness_gen_writes_instance_and_report(tmp_path, capsys):
    target = tmp_path / "reduction.json"
    assert main(["hardness-gen", "--a", "1,1,2", "--out", str(target)]) == 0
    capsys.readouterr()
    assert target.exists()
    report = json.loads((tmp_path / "reduction.report.json").read_text())
    assert report["a"] == [1, 1, 2]
    assert 0.0 < report["t_star"] < 1.0
    assert abs(report["g_residual"]) <= 1e-13
    assert report["partition_feasible"] is True
    inst_doc = json.loads(target.read_text())
    assert len(inst_doc["points"]) == 6


def test_missing_instance_file(capsys):
    assert main(["solve", "/nonexistent/inst.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_python_dash_m_runs_from_a_checkout():
    # `python -m maxdisp` reaches the same parser as the installed script,
    # with only the source tree on the path
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "maxdisp", "bench", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: maxdisp bench")
