"""Command line front end: exit codes, artifacts, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splitdev import (
    ParamSchedule,
    StopRule,
    chain_fb,
    davis_yin,
    douglas_rachford,
    parse_policy,
    run_experiment,
    run_grid,
    scheme_from_json,
    scheme_to_json,
    solve,
    synthetic_instance,
)
from splitdev import cli, markowitz
from splitdev.cli import main
from splitdev.exceptions import DivergenceError, OracleFailureError


def write_json(tmp_path, doc, name):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_config(tmp_path, out, **overrides):
    cfg = {
        "problem": {"kind": "dr_quadratic"},
        "schedule": {"gamma": 0.45, "xi": 0.0},
        "policy": "zero",
        "stop": {"tol": 1e-8},
        "output_dir": str(out),
    }
    cfg.update(overrides)
    return write_json(tmp_path, cfg, "run.json")


def experiment_config(tmp_path, out, **overrides):
    cfg = {
        "data": {"synthetic": {"seed": 0, "days": 60, "assets": 4}},
        "grid": {"cases": [1], "schemes": ["chain_fb"],
                 "policies": ["zero", "momentum:beta=0.35,rho=0.05"]},
        "seeds": {"count": 2, "start": 0},
        "tol": 1e-8,
        "output_dir": str(out),
    }
    cfg.update(overrides)
    return write_json(tmp_path, cfg, "exp.json")


def test_validate_builtin_passes(tmp_path, capsys):
    path = write_json(tmp_path, {"builtin": "douglas_rachford", "gamma": 1.0},
                      "dr.json")
    assert main(["validate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["n"] == 2 and report["m"] == 0
    assert all(c["passed"] for c in report["checks"])


def test_validate_flags_bad_row_sum(tmp_path, capsys):
    doc = scheme_to_json(davis_yin(gamma=0.5))
    doc["C"] = [[0.0], [2.0]]  # forward weight must sum to 1 per column
    doc["L"] = [1.0]
    path = write_json(tmp_path, doc, "bad.json")
    assert main(["validate", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert any("sum" in name for name in failed)


@pytest.mark.parametrize("C,detail,witness", [
    ([[0.0], [2.0]], "column 1 of C sums to 2.0", [2.0]),
    ([[1e308], [1e308]], "column 1 of C sums to inf", None),  # overflows
], ids=["plain-float", "overflow"])
def test_validate_row_sum_detail(tmp_path, capsys, C, detail, witness):
    # a plain float, never numpy's repr, and no overflow warning
    doc = dict(scheme_to_json(davis_yin(gamma=0.5)), C=C, L=[1.0])
    assert main(["validate", write_json(tmp_path, doc, "bad.json")]) == 1
    report = json.loads(capsys.readouterr().out)
    [row_sums] = [c for c in report["checks"] if c["name"] == "row_sums"]
    assert row_sums == {"name": "row_sums", "passed": False,
                        "detail": detail, "witness": witness}


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/scheme.json"]) == 2


@pytest.mark.parametrize("doc", [
    {"M": [[1], [-1]], "S": [[2, -1], [-1, 2]], "C": [[0], [1]],
     "Q": [[1, 0]], "theta": 1.0, "L": [float("inf")]},
    {"M": [[1], [-1]], "theta": 1.0, "L": [1.0, 2.0]},
    {"builtin": "chain_fb", "n": 3, "m": 1, "L": [-1]},
])
def test_validate_bad_lipschitz_exit_code(tmp_path, capsys, doc):
    # a non-finite L or one of the wrong length is a malformed document
    assert main(["validate", write_json(tmp_path, doc, "bad_L.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid scheme document" in captured.err


@pytest.mark.parametrize("doc", [
    {"M": [[1], [-1]], "theta": 1, "L": None},
    {"builtin": "chain_fb", "n": 3, "m": 1, "L": None},
], ids=["explicit", "builtin"])
def test_validate_null_lipschitz_exit_code(tmp_path, capsys, doc):
    # a null L is refused alike in both kinds of document
    assert main(["validate", write_json(tmp_path, doc, "null_L.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("splitdev: invalid scheme document: L must be a "
                            "list of constants, not null\n")


@pytest.mark.parametrize("doc,message", [
    ({"M": [[1], [-1]], "theta": 1, "Theta": 5, "s": [[9, 0], [0, 9]]},
     "unexpected keyword argument 'Theta'"),
    ({"M": [[1], [-1]], "theta": 1, "s": [[9, 0], [0, 9]]},
     "unexpected keyword argument 's'"),
    ({"builtin": "chain_fb", "n": 3, "m": 1, "L": [1], "lipschitz": [50]},
     "constants L, not lipschitz"),
    ({"builtin": "chain_fb", "n": 3, "m": 1, "lipschitz": [50], "L": [1]},
     "constants L, not lipschitz"),
], ids=["Theta-and-s", "s", "L-then-lipschitz", "lipschitz-then-L"])
def test_validate_refuses_a_key_no_builder_reads(tmp_path, capsys, doc,
                                                 message):
    # a misspelt key is not run at the default, in either kind of document
    assert main(["validate", write_json(tmp_path, doc, "key.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("splitdev: invalid scheme document: ")
    assert message in captured.err


def test_validate_remainder_that_overflows_fails_its_check(tmp_path, capsys):
    # (1/2)(1 + 1/theta) K overflows and G + G^T mixes +inf and -inf; the
    # scheme builds, so its PSD check fails (exit 1) before any eigensolve
    doc = scheme_to_json(chain_fb(3, 2, [1, 1], theta=0.01))
    doc["L"] = [1e308, 1e308]
    assert main(["validate", write_json(tmp_path, doc, "big_L.json")]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed == [{"name": "psd", "passed": False, "witness": None,
                       "detail": "S - M M^T - K overflows"}]


def test_validate_remainder_near_the_float_maximum_passes(tmp_path, capsys):
    # G + G^T would overflow; halving first keeps G finite and exactly PSD
    doc = {"M": [[1], [-1]], "S": [[1.7e308, -1.7e308], [-1.7e308, 1.7e308]],
           "theta": 1}
    assert main(["validate", write_json(tmp_path, doc, "big_S.json")]) == 0
    report = _strict_json(capsys.readouterr().out)
    psd = next(c for c in report["checks"] if c["name"] == "psd")
    assert psd["passed"] is True and psd["witness"] == 0.0


def test_readme_validate_examples_pass(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("`validate` accepts", 1)[1]
    block = block.split("```json\n", 1)[1].split("```", 1)[0]
    docs = [json.loads(line) for line in block.splitlines() if line.strip()]
    assert len(docs) == 2 and {"builtin" in doc for doc in docs} == {True,
                                                                   False}
    for doc in docs:
        assert main(["validate", write_json(tmp_path, doc, "r.json")]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("doc,message", [
    ({"M": [[1], [-1]], "C": [1, 0], "Q": [1], "theta": 1},
     "C must be a nested list of rows, got shape (2,)"),
    ({"M": [[1], [-1]], "C": [[0], [1]], "Q": [1, 0], "theta": 1},
     "Q must be a nested list of rows, got shape (2,)"),
], ids=["C", "Q"])
def test_validate_flat_forward_matrix_exit_code(tmp_path, capsys, doc,
                                                message):
    assert main(["validate", write_json(tmp_path, doc, "flat.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"splitdev: invalid scheme document: {message}\n"


def test_validate_fractional_size_exit_code(tmp_path, capsys):
    doc = {"builtin": "chain_fb", "n": 3, "m": 1.5, "L": [1]}
    assert main(["validate", write_json(tmp_path, doc, "m.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m must be an integer, got 1.5" in captured.err


@pytest.mark.parametrize("theta,code", [("2", 0), ("abc", 2)])
def test_validate_reads_string_theta_alike_in_both_documents(
        tmp_path, capsys, theta, code):
    docs = [{"M": [[1], [-1]], "theta": theta},
            {"builtin": "chain_fb", "n": 3, "m": 1, "L": [1],
             "theta": theta}]
    for doc in docs:
        assert main(["validate", write_json(tmp_path, doc, "t.json")]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert json.loads(captured.out)["theta"] == 2.0
        else:
            assert captured.out == ""
            assert "theta must be a number, got 'abc'" in captured.err


def test_validate_degenerate_diagonal_report(tmp_path, capsys):
    # a zero S_ii builds no scheme: exit 2 under every command, no report
    doc = {"M": [[1], [-1]], "S": [[0, 0], [0, 1]], "theta": 1}
    message = "S[0,0] = 0.0 gives no positive stepsize\n"
    assert main(["validate", write_json(tmp_path, doc, "zero.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"splitdev: invalid scheme document: {message}"
    out = tmp_path / "out"
    assert main(["solve", run_config(tmp_path, out, scheme=doc)]) == 2
    assert capsys.readouterr().err == \
        f"splitdev: invalid run config: {message}"
    assert not out.exists()


@pytest.mark.parametrize("command,config,message", [
    ("validate", {"builtin": "davis_yin", "gamma": 2.0, "L": [2.0]},
     "invalid scheme document: gamma = 2.0 too large for L_1 = 2.0: no "
     "positive coupling"),
    ("experiment", None,
     "invalid experiment config: need at least 2 data rows, found 1"),
], ids=["gamma-too-large", "one-row-returns"])
def test_value_outside_its_range_exit_code(tmp_path, capsys, command, config,
                                           message):
    # one error class for a bad value, so one exit code
    if config is None:
        returns = tmp_path / "returns.csv"
        returns.write_text("0.1,0.2\n")
        path = experiment_config(tmp_path, tmp_path / "out", data=str(returns))
    else:
        path = write_json(tmp_path, config, "doc.json")
    assert main([command, path]) == 2
    assert capsys.readouterr().err == f"splitdev: {message}\n"
    assert not (tmp_path / "out").exists()


def test_validate_accepts_a_weakly_coupled_scheme(tmp_path, capsys):
    # S_ii = 1e-14 is small but gives the finite stepsize 2e14
    doc = {"M": [[1e-7], [-1e-7]], "theta": 1}
    assert main(["validate", write_json(tmp_path, doc, "weak.json")]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_solve_dr_quadratic(tmp_path):
    out = tmp_path / "out"
    cfg = run_config(tmp_path, out)
    assert main(["solve", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["final_residual"] <= 1e-8
    assert abs(summary["x"][0]) < 1e-7
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == ("k,residual,spread,l2,budget_used,"
                        "resolvent_calls,forward_calls,dist_to_ref")
    assert len(lines) == summary["iterations"] + 1


def test_solve_max_iter_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = run_config(tmp_path, out, stop={"tol": 1e-8, "max_iter": 1})
    assert main(["solve", cfg]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "max_iter"


def test_solve_at_tol_zero_runs_max_iter_steps(tmp_path):
    # the residual reaches exactly 0 here, which is not below tol 0
    out = tmp_path / "out"
    cfg = write_json(tmp_path, {"problem": {"kind": "dr_quadratic"},
                                "stop": {"tol": 0, "max_iter": 100},
                                "output_dir": str(out)}, "run.json")
    assert main(["solve", cfg]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "max_iter" and summary["iterations"] == 100
    assert summary["final_residual"] == 0.0


def test_solve_refuses_invalid_scheme(tmp_path):
    doc = scheme_to_json(douglas_rachford(gamma=1.0))
    doc["M"] = [[1.0], [1.0]]  # column sum 2 breaks the kernel condition
    out = tmp_path / "out"
    cfg = run_config(tmp_path, out, scheme=doc)
    assert main(["solve", cfg]) == 1
    assert not (out / "summary.json").exists()


def test_solve_bad_config_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = run_config(tmp_path, out, problem={"kind": "unheard_of"})
    assert main(["solve", cfg]) == 2
    cfg = run_config(tmp_path, out, policy="warp_drive")
    assert main(["solve", cfg]) == 2


def test_solve_divergence_writes_its_summary(tmp_path, monkeypatch, capsys):
    def diverging_solve(*args, **kwargs):
        raise DivergenceError("residual 1e13 above divergence_limit")

    monkeypatch.setattr(cli, "solve", diverging_solve)
    out = tmp_path / "out"
    assert main(["solve", run_config(tmp_path, out)]) == 4
    assert capsys.readouterr().err == \
        "splitdev: residual 1e13 above divergence_limit\n"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["error"] == "residual 1e13 above divergence_limit"
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("command,blocked,what", [
    ("solve", "trajectory.csv", "run config"),
    ("experiment", "experiment_summary.csv", "experiment config")])
def test_unwritable_output_file_exit_code(tmp_path, capsys, command,
                                          blocked, what):
    # an output path taken by a directory cannot be replaced by a file
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    if command == "solve":
        cfg = run_config(tmp_path, out)
    else:
        cfg = experiment_config(tmp_path, out, seeds=[0], tol=1e-4,
                                ref_tol=1e-8,
                                grid={"cases": [1], "policies": ["zero"]})
    assert main([command, cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"splitdev: invalid {what}: [Errno 21] Is a dir")
    assert blocked in err
    assert (out / blocked).is_dir()
    assert not [p for p in out.iterdir() if p.name.startswith(".splitdev-")]


def test_entry_point_exit_codes_without_traceback(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "splitdev.cli", *args], env=env,
            capture_output=True, text=True, timeout=120)

    doc = {"builtin": "douglas_rachford", "gamma": 1.0}
    passed = run("validate", write_json(tmp_path, doc, "dr.json"))
    assert passed.returncode == 0
    assert json.loads(passed.stdout)["passed"] is True
    out = tmp_path / "out"
    (out / "trajectory.csv").mkdir(parents=True)
    failed = run("solve", run_config(tmp_path, out))
    assert failed.returncode == 2
    assert "Is a directory" in failed.stderr
    assert "Traceback" not in failed.stderr


def test_validate_gamma_whose_inverse_overflows_exit_code(tmp_path, capsys):
    doc = {"builtin": "davis_yin", "gamma": 1e-320}
    assert main(["validate", write_json(tmp_path, doc, "tiny.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("splitdev: invalid scheme document: gamma = "
                            "1e-320 is so small that 2/gamma overflows\n")


def test_solve_markowitz_with_reference(tmp_path):
    out = tmp_path / "out"
    cfg = run_config(
        tmp_path, out,
        problem={"kind": "markowitz",
                 "data": {"synthetic": {"seed": 1, "days": 60, "assets": 4}},
                 "x0_seed": 3},
        schedule={"gamma": 0.9, "xi": 0.9},
        policy="momentum:beta=0.35,rho=0.05",
        stop={"tol": 1e-8, "reference": "auto"})
    assert main(["solve", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_dist_to_ref"] < 1e-8
    x = np.array(summary["x"])
    assert abs(x.sum() - 1.0) < 1e-9 and np.all(x > -1e-10)


def test_solve_deterministic_outputs(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = run_config(tmp_path, out, policy="randball:seed=5",
                         schedule={"gamma": 0.45, "xi": 0.5})
        assert main(["solve", cfg]) == 0
        outs.append((out / "trajectory.csv").read_bytes()
                    + (out / "summary.json").read_bytes())
    assert outs[0] == outs[1]


def test_experiment_grid(tmp_path):
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out)
    assert main(["experiment", cfg]) == 0
    lines = (out / "experiment_summary.csv").read_text().strip().split("\n")
    assert lines[0] == "case,scheme,policy,mean_iters,std_iters,n_seeds"
    assert len(lines) == 3  # two policies
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "1" and fields[1] == "chain_fb"
        assert fields[-1] == "2"
    assert (out / "cell_case1_chain_fb_zero.json").exists()
    assert (out / "traj_case1_chain_fb_zero_seed0.csv").exists()


def test_experiment_summary_quotes_the_policy_name(tmp_path):
    # a momentum name holds a comma; the csv module reads it back whole
    out = tmp_path / "out"
    assert main(["experiment",
                 experiment_config(tmp_path, out, seeds=[0])]) == 0
    with open(out / "experiment_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["policy"] for row in rows] == [
        parse_policy(spec).name
        for spec in ("zero", "momentum:beta=0.35,rho=0.05")]
    assert all(None not in row and row["n_seeds"] == "1" for row in rows)


@pytest.mark.parametrize("cases,policies,files", [
    ([1, 1.0], ["zero"], "case 1"),
    ([1], ["zero", "randball", "zero"], "policy 'zero'"),
    ([1], ["momentum:beta=0.1234567", "momentum:beta=0.1234568"],
     "policy 'momentum:beta=0.123457,rho=0.7'"),
], ids=["case", "policy", "printed-name"])
def test_experiment_refuses_cells_that_write_the_same_files(
        tmp_path, monkeypatch, capsys, cases, policies, files):
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out,
                            grid={"cases": cases, "policies": policies})
    assert main(["experiment", cfg]) == 2
    assert f"two grid cells would write the files of {files}" in \
        capsys.readouterr().err
    assert calls == []
    assert not out.exists()


# 15 days are too few for the case-2 window, which starts 20 days later
SHORT_DATA = {"synthetic": {"seed": 0, "days": 15, "assets": 4}}


def test_experiment_writes_a_failed_cell(tmp_path):
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out, data=SHORT_DATA, seeds=[0],
                            grid={"cases": [1, 2], "policies": ["zero"]})
    assert main(["experiment", cfg]) == 0
    cell = json.loads((out / "cell_case2_chain_fb_zero.json").read_text())
    assert cell["status"] == "failed"
    assert cell["error"].startswith("InvalidInputError: shift")
    rows = (out / "experiment_summary.csv").read_text().splitlines()
    assert rows[1].startswith("1,chain_fb,zero,")
    assert rows[2:] == ["2,chain_fb,zero,,,0"]


def test_experiment_every_cell_failed_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out, data=SHORT_DATA,
                            grid={"cases": [2], "policies": ["zero"]})
    assert main(["experiment", cfg]) == 5
    assert capsys.readouterr().err == \
        "splitdev: every experiment cell failed\n"
    assert (out / "experiment_summary.csv").read_text().splitlines() == [
        "case,scheme,policy,mean_iters,std_iters,n_seeds",
        "2,chain_fb,zero,,,0"]


def test_experiment_single_seed_zero_std(tmp_path):
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out, seeds=[7],
                            grid={"cases": [1], "schemes": ["chain_fb"],
                                  "policies": ["zero"]})
    assert main(["experiment", cfg]) == 0
    cell = json.loads((out / "cell_case1_chain_fb_zero.json").read_text())
    assert cell["seeds"] == [7]
    assert cell["std_iters"] == 0.0


def test_experiment_empty_seed_list_rejected(tmp_path):
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out, seeds={"count": 0})
    assert main(["experiment", cfg]) == 2


@pytest.mark.parametrize("seeds,start", [
    ("absent", 0), (None, 0), ({}, 0), ({"start": 3}, 3)],
    ids=["absent", "null", "empty", "start"])
def test_experiment_seeds_default_to_fifty(tmp_path, monkeypatch, seeds,
                                           start):
    # tolerances so loose that every reference and run stops after one step
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    cfg = json.loads(Path(experiment_config(
        tmp_path, out, grid={"cases": [1], "policies": ["zero"]},
        tol=1e3, ref_tol=1e3, max_iter=1)).read_text())
    if seeds == "absent":
        del cfg["seeds"]
    else:
        cfg["seeds"] = seeds
    assert main(["experiment", write_json(tmp_path, cfg, "seeds.json")]) == 0
    assert len(calls) == 100  # a reference and a run per seed
    cell = json.loads((out / "cell_case1_chain_fb_zero.json").read_text())
    assert cell["seeds"] == list(range(start, start + 50))


def test_experiment_deterministic(tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = experiment_config(tmp_path, out)
        assert main(["experiment", cfg]) == 0
        blob = (out / "experiment_summary.csv").read_bytes()
        for cell in sorted(p.name for p in out.iterdir() if p.name != "exp.json"):
            blob += (out / cell).read_bytes()
        blobs.append(blob)
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("overrides,axis,given", [
    ({"grid": {"cases": "12"}}, "case", "'12'"),
    ({"grid": {"policies": "zero"}}, "policy", "'zero'"),
    ({"seeds": "01"}, "seed", "'01'"),
], ids=["cases", "policies", "seeds"])
def test_experiment_refuses_a_string_axis(tmp_path, monkeypatch, capsys,
                                          overrides, axis, given):
    # a string is no list of values, not even of one-character ones
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out, **overrides)
    assert main(["experiment", cfg]) == 2
    assert capsys.readouterr().err == (
        f"splitdev: invalid experiment config: the {axis} axis must be a "
        f"list of values, got {given}\n")
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("spec", ["bogus", 5])
def test_experiment_bad_policy_exit_code(tmp_path, spec):
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out,
                            grid={"cases": [1], "schemes": ["chain_fb"],
                                  "policies": ["zero", spec]})
    assert main(["experiment", cfg]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_solve_out_of_range_schedule_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_config(tmp_path, out, schedule={"gamma": 1.5, "xi": 0.0})
    assert main(["solve", cfg]) == 2
    assert "gamma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("schedule,scheme", [
    ({"gamma": 0.45, "xi": 0.0}, {"M": [[1], [-1]], "theta": 2.0}),
    ({"gamma": 0.45, "xi": 0.0},
     {"builtin": "douglas_rachford", "gamma": 1.0, "theta": 2.0}),
    ({"gamma": 0.45, "xi": 0.0, "theta": 2.0},
     {"M": [[1], [-1]], "theta": 1.0}),
])
def test_solve_runs_at_the_scheme_theta(tmp_path, schedule, scheme):
    # a scheme document's own theta wins over schedule.theta
    out = tmp_path / "out"
    cfg = run_config(tmp_path, out, schedule=schedule, scheme=scheme)
    assert main(["solve", cfg]) == 0
    assert json.loads((out / "summary.json").read_text())["converged"]
    lib = solve(cli._dr_quadratic_problem(), scheme_from_json(scheme),
                schedule=ParamSchedule(gamma=0.45, xi=0.0),
                stop=StopRule(tol=1e-8))
    assert (out / "trajectory.csv").read_text() == \
        lib.trajectory.to_csv_text()


@pytest.mark.parametrize("builtin", [
    {"builtin": "douglas_rachford", "gamma": 1.0},
    {"builtin": "chain_fb", "n": 2, "m": 0},
])
def test_schedule_theta_reaches_builtin_documents(tmp_path, monkeypatch,
                                                   builtin):
    # a builtin document without theta is built at schedule.theta
    seen = []

    def recording_solve(problem, scheme, **kwargs):
        seen.append(scheme.theta)
        return solve(problem, scheme, **kwargs)

    monkeypatch.setattr(cli, "solve", recording_solve)
    out = tmp_path / "out"
    cfg = run_config(tmp_path, out, scheme=builtin,
                     schedule={"gamma": 0.45, "xi": 0.0, "theta": 0.5})
    assert main(["solve", cfg]) == 0
    assert seen == [0.5]


def test_solve_bad_schedule_theta_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_config(tmp_path, out, schedule={"gamma": 0.45, "theta": 0})
    assert main(["solve", cfg]) == 2
    assert "theta" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("schedule", [{"theta": 0}, {"gamma": 1.5},
                                      {"gamma": 0.85, "epsilon": 0.2}])
def test_experiment_out_of_range_schedule_exit_code(tmp_path, schedule):
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out, schedule=schedule)
    assert main(["experiment", cfg]) == 2
    assert not out.exists()


def test_solve_max_iter_zero_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_config(tmp_path, out, stop={"tol": 1e-8, "max_iter": 0})
    assert main(["solve", cfg]) == 2
    assert "max_iter" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_max_iter_zero_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out, max_iter=0)
    assert main(["experiment", cfg]) == 2
    assert "max_iter" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,doc", [
    ("solve", []),
    ("solve", {"problem": [1]}),
    ("experiment", {"data": {"synthetic": {"seed": 0, "days": 60,
                                           "assets": 4}},
                    "grid": [1]}),
])
def test_non_object_config_exit_code(tmp_path, capsys, command, doc):
    path = write_json(tmp_path, doc, "cfg.json")
    assert main([command, path]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def markowitz_run(tmp_path, out, case, stop, policy="zero", schedule=None,
                  **overrides):
    """A solve config on the 4-asset synthetic instance, x0 seed 1."""
    return run_config(
        tmp_path, out,
        problem={"kind": "markowitz",
                 "data": {"synthetic": {"seed": 0, "days": 60, "assets": 4}},
                 "case": case, "x0_seed": 1},
        schedule=schedule or {}, policy=policy, stop=stop, **overrides)


def dist_to_ref_column(out):
    """The dist_to_ref column of ``out``'s trajectory.csv, as floats."""
    with open(out / "trajectory.csv", newline="", encoding="ascii") as fh:
        return [float(row["dist_to_ref"]) for row in csv.DictReader(fh)]


def test_solve_case2_starts_where_experiment_does(tmp_path):
    # the case-2 presolve runs under the run's own schedule, as run_grid's
    out = tmp_path / "out"
    cfg = markowitz_run(tmp_path, out, case=2, schedule={"gamma": 0.8},
                        stop={"tol": 1e-8, "reference": "auto"})
    assert main(["solve", cfg]) == 0
    data = synthetic_instance(seed=0, days=60, assets=4)
    report = run_experiment(data, policy="zero", case=2, seeds=[1],
                            schedule=ParamSchedule(gamma=0.8))
    assert (out / "trajectory.csv").read_text() == \
        report.records[0].trajectory.to_csv_text()


@pytest.mark.parametrize("case,stop", [
    (2, {"tol": 1e-8, "max_iter": 5}),  # the presolve stalls
    (1, {"tol": 1e-8, "max_iter": 5, "reference": "auto"}),
])
def test_solve_stalled_reference_exit_code(tmp_path, capsys, case, stop):
    out = tmp_path / "out"
    assert main(["solve", markowitz_run(tmp_path, out, case, stop)]) == 3
    assert "stalled" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def count_solves(monkeypatch):
    """A list that gains one entry per solve the CLI or the grid runs."""
    calls = []
    for module in (cli, markowitz):
        def counting_solve(*args, _solve=module.solve, **kwargs):
            calls.append(1)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(module, "solve", counting_solve)
    return calls


def raised_m00():
    """The case-1 markowitz_run scheme as a document, M[0][0] raised by 1."""
    data = synthetic_instance(seed=0, days=60, assets=4)
    doc = scheme_to_json(markowitz._Builder(data).problem(1, 1)[1])
    doc["M"][0][0] += 1
    return doc


@pytest.mark.parametrize("case,stop,scheme,solves", [
    (1, {"tol": 1e-8}, None, 1),
    (2, {"tol": 1e-8, "reference": "auto"}, None, 3),  # presolve, ref, run
    (1, {"tol": 1e-8, "reference": "auto"}, None, 2),  # reference, run
    (None, {"tol": 1e-8, "reference": "auto"}, None, 1),  # dr_quadratic: 0
    # a scheme that fails its checks, or does not fit, costs no reference
    (1, {"tol": 1e-8, "reference": "auto"}, raised_m00, 0),
    (1, {"tol": 1e-8, "reference": "auto"},
     lambda: {"builtin": "douglas_rachford", "gamma": 1.0}, 0),
    # nor the case-2 presolve: the check needs n, m and L, not x0
    (2, {"tol": 1e-8, "reference": "auto"}, raised_m00, 0),
    (2, {"tol": 1e-8, "reference": "auto"},
     lambda: {"builtin": "douglas_rachford", "gamma": 1.0}, 0),
], ids=["1-stop0-1", "2-stop1-3", "1-stop2-2", "None-stop3-1", "raised-M00",
        "douglas-rachford-on-markowitz", "2-raised-M00",
        "2-douglas-rachford-on-markowitz"])
def test_solve_runs_only_the_solves_it_needs(tmp_path, monkeypatch, case,
                                             stop, scheme, solves):
    overrides = {} if scheme is None else {"scheme": scheme()}
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    cfg = (run_config(tmp_path, out, stop=stop, **overrides) if case is None
           else markowitz_run(tmp_path, out, case, stop, **overrides))
    assert main(["solve", cfg]) == (0 if scheme is None else 1)
    assert len(calls) == solves
    assert out.exists() == (scheme is None)


@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_solve_auto_reference_is_the_grid_reference(tmp_path, case, factor):
    # a scheme document changes the run, never the x* it is measured against
    scale = factor * markowitz.portfolio_chain_scale(4)
    out = tmp_path / "out"
    cfg = markowitz_run(tmp_path, out, case,
                        {"tol": 1e-8, "reference": "auto"},
                        scheme={"builtin": "chain_fb", "scale": scale})
    assert main(["solve", cfg]) == 0
    builder = markowitz._Builder(synthetic_instance(seed=0, days=60, assets=4))
    problem, _ = builder.problem(case, 1)
    run = solve(problem, chain_fb(problem.n, problem.m, problem.lipschitz,
                                  scale=scale),
                stop=StopRule(tol=1e-8, reference=builder.reference(case, 1)))
    assert dist_to_ref_column(out) == run.trajectory.dist_to_ref


def test_solve_auto_reference_of_dr_quadratic_is_zero(tmp_path):
    out = tmp_path / "out"
    cfg = run_config(tmp_path, out,
                     scheme={"builtin": "douglas_rachford", "gamma": 0.3},
                     stop={"tol": 1e-8, "reference": "auto"})
    assert main(["solve", cfg]) == 0
    run = solve(cli._dr_quadratic_problem(), douglas_rachford(0.3),
                schedule=ParamSchedule(gamma=0.45, xi=0.0),
                stop=StopRule(tol=1e-8, reference=[0.0]))
    column = dist_to_ref_column(out)
    assert column == run.trajectory.dist_to_ref
    summary = json.loads((out / "summary.json").read_text())
    assert column[-1] == summary["final_dist_to_ref"] == abs(summary["x"][0])


@pytest.mark.parametrize("command", ["solve", "experiment"])
@pytest.mark.parametrize("bad_dir,message", [
    ("not a string", "output_dir must be a string"),
    ("under a file", "Not a directory"),
])
def test_bad_output_dir_exit_code_before_any_solve(
        tmp_path, monkeypatch, capsys, command, bad_dir, message):
    calls = count_solves(monkeypatch)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = 5 if bad_dir == "not a string" else str(blocker / "out")
    make_config = run_config if command == "solve" else experiment_config
    cfg = make_config(tmp_path, "unused", output_dir=out)
    assert main([command, cfg]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_missing_returns_csv_exit_code(tmp_path, capsys, command):
    out = tmp_path / "out"
    missing = str(tmp_path / "missing.csv")
    if command == "solve":
        cfg = run_config(tmp_path, out,
                         problem={"kind": "markowitz", "data": missing})
    else:
        cfg = experiment_config(tmp_path, out, data=missing)
    assert main([command, cfg]) == 2
    assert "missing.csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stop", [
    {"tol": float("nan"), "max_iter": 500},
    {"tol": 1e-8, "ref_tol": float("nan"), "max_iter": 500},
])
def test_solve_nan_tolerance_exit_code(tmp_path, monkeypatch, capsys, stop):
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    assert main(["solve", run_config(tmp_path, out, stop=stop)]) == 2
    assert "tol must not be NaN" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("stop", [
    {"tol": float("inf")},
    {"tol": -float("inf")},
    {"tol": 1e-8, "ref_tol": float("inf"), "reference": "auto"},
])
def test_solve_infinite_tolerance_exit_code(tmp_path, monkeypatch, capsys,
                                            stop):
    # JSON has no infinity, so summary.json could not record such a tol
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    assert main(["solve", run_config(tmp_path, out, stop=stop)]) == 2
    assert "tol must not be NaN or infinite" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("reference", [[0.0], "yes please"],
                         ids=["list", "string"])
def test_solve_refuses_a_reference_other_than_auto(tmp_path, monkeypatch,
                                                   capsys, reference):
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    stop = {"tol": 1e-8, "reference": reference}
    assert main(["solve", run_config(tmp_path, out, stop=stop)]) == 2
    assert 'stop.reference must be "auto" or absent, got' in \
        capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_solve_null_reference_is_no_reference(tmp_path):
    summaries = []
    for name, stop in (("absent", {"tol": 1e-8}),
                       ("null", {"tol": 1e-8, "reference": None})):
        out = tmp_path / name
        assert main(["solve", run_config(tmp_path, out, stop=stop)]) == 0
        summaries.append((out / "summary.json").read_text())
    assert summaries[0] == summaries[1]
    assert "final_dist_to_ref" not in summaries[0]


FRACTIONAL_INTEGERS = [
    ("solve", ("stop", "max_iter"), 3.7),
    ("solve", ("problem", "case"), 1.5),
    ("solve", ("problem", "x0_seed"), 1.5),
    ("solve", ("problem", "data", "synthetic", "assets"), 5.9),
    ("experiment", ("max_iter",), 3.7),
    ("experiment", ("grid", "cases"), [1.5]),
    ("experiment", ("seeds", "start"), 0.5),
    ("experiment", ("seeds", "count"), 1.9),
    ("experiment", ("seeds",), [0, 1.5]),
    ("experiment", ("data", "synthetic", "seed"), 0.5),
    ("experiment", ("data", "synthetic", "days"), 60.5),
    ("experiment", ("data", "synthetic", "assets"), 5.9),
    ("experiment", ("data", "synthetic", "factors"), 2.5),
]


BOOLEAN_INTEGERS = [
    ("solve", ("stop", "max_iter"), True),
    ("solve", ("problem", "x0_seed"), False),
    ("experiment", ("seeds", "count"), True),
    ("experiment", ("seeds",), [0, True]),
    ("experiment", ("grid", "cases"), [True]),
]


def integer_key_ids(cases, suffix=""):
    return [f"{command}-{'.'.join(path)}{suffix}"
            for command, path, _ in cases]


@pytest.mark.parametrize(
    "command,path,value", FRACTIONAL_INTEGERS + BOOLEAN_INTEGERS,
    ids=integer_key_ids(FRACTIONAL_INTEGERS)
    + integer_key_ids(BOOLEAN_INTEGERS, "-bool"))
def test_fractional_integer_exit_code_before_any_solve(
        tmp_path, monkeypatch, capsys, command, path, value):
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    if command == "solve":  # case 2 would presolve before anything else
        cfg_path = markowitz_run(tmp_path, out, 2, {"tol": 1e-8})
    else:
        cfg_path = experiment_config(tmp_path, out)
    with open(cfg_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    *parents, key = path
    section = cfg
    for name in parents:
        section = section[name]
    section[key] = value
    assert main([command, write_json(tmp_path, cfg, "frac.json")]) == 2
    assert "must be an integer, got" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("schemes", [
    ["dr"], [{"builtin": "chain_fb"}], ["chain_fb", "chain_fb"]])
def test_experiment_refuses_schemes_other_than_chain_fb(
        tmp_path, monkeypatch, capsys, schemes):
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out,
                            grid={"cases": [1], "schemes": schemes,
                                  "policies": ["zero"]})
    assert main(["experiment", cfg]) == 2
    assert 'grid.schemes must be ["chain_fb"]' in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_experiment_without_schemes_writes_the_same_files(tmp_path):
    written = []
    for name, grid in (("given", {"cases": [1], "schemes": ["chain_fb"]}),
                       ("absent", {"cases": [1]})):
        out = tmp_path / name
        cfg = experiment_config(tmp_path, out, grid=grid,
                                seeds={"count": 1, "start": 0})
        assert main(["experiment", cfg]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]
    assert sorted(written[0]) == ["cell_case1_chain_fb_zero.json",
                                  "experiment_summary.csv",
                                  "traj_case1_chain_fb_zero_seed0.csv"]


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_validate_report_is_strict_json_when_the_psd_check_overflows(
        tmp_path, capsys):
    doc = scheme_to_json(davis_yin(gamma=0.5))
    doc["L"] = [1e308]  # the coupling term overflows: G is not finite
    assert main(["validate", write_json(tmp_path, doc, "big.json")]) == 1
    report = _strict_json(capsys.readouterr().out)
    psd = next(c for c in report["checks"] if c["name"] == "psd")
    assert psd == {"name": "psd", "passed": False,
                   "detail": "S - M M^T - K overflows", "witness": None}


@pytest.mark.parametrize("overrides", [
    {"tol": float("nan")},
    {"ref_tol": float("nan")},
    {"delta": -1},
    {"delta": 0},
    {"delta": float("nan")},
    {"tol": float("inf")},
    {"ref_tol": float("inf")},
    {"delta": "abc"},
])
def test_experiment_bad_tolerance_or_delta_exit_code(
        tmp_path, monkeypatch, capsys, overrides):
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out, max_iter=500, **overrides)
    assert main(["experiment", cfg]) == 2
    name = next(iter(overrides))
    assert f"{name} must" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_string_solve_keys_read_as_numbers(tmp_path):
    # each constructor converts its own keys, so "1e-8" means 1e-8
    written = []
    for name, (tol, ref_tol, delta) in (("numbers", (1e-8, 1e-12, 6)),
                                        ("strings", ("1e-8", "1e-12", "6"))):
        out = tmp_path / name / "experiment"
        cfg = experiment_config(tmp_path, out, seeds=[0], tol=tol,
                                ref_tol=ref_tol, delta=delta)
        assert main(["experiment", cfg]) == 0
        solve_out = tmp_path / name / "solve"
        cfg = run_config(
            tmp_path, solve_out,
            problem={"kind": "markowitz", "delta": delta,
                     "data": {"synthetic": {"seed": 0, "days": 60,
                                            "assets": 4}}},
            stop={"tol": tol, "ref_tol": ref_tol, "reference": "auto"})
        assert main(["solve", cfg]) == 0
        written.append({p.relative_to(tmp_path / name): p.read_bytes()
                        for p in (tmp_path / name).rglob("*")
                        if p.is_file()})
    assert written[0] == written[1]
    assert json.loads(written[1][Path("solve", "summary.json")])["tol"] == 1e-8


def test_experiment_without_solve_keys_runs_run_grid_defaults(tmp_path):
    # every solve default has one home, which the CLI and run_grid share
    out = tmp_path / "out"
    path = experiment_config(tmp_path, out)
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    del cfg["tol"]
    assert not {"delta", "tol", "ref_tol", "max_iter", "schedule"} & set(cfg)
    assert main(["experiment", write_json(tmp_path, cfg, "bare.json")]) == 0
    policies = cfg["grid"]["policies"]
    reports = run_grid(synthetic_instance(seed=0, days=60, assets=4), [1],
                       policies, [0, 1])
    for report in reports:
        base = f"case1_chain_fb_{cli._slug(report.policy)}"
        for rec in report.records:
            assert (out / f"traj_{base}_seed{rec.seed}.csv").read_text() == \
                rec.trajectory.to_csv_text()


def edited_config(tmp_path, out, command, path, value):
    """The test config of ``command`` with the key at ``path`` set."""
    make_config = run_config if command == "solve" else experiment_config
    with open(make_config(tmp_path, out), encoding="utf-8") as fh:
        cfg = json.load(fh)
    *parents, key = path
    section = cfg
    for name in parents:
        section = section[name]
    section[key] = value
    return write_json(tmp_path, cfg, "edited.json")


@pytest.mark.parametrize("command,path,value,message", [
    ("solve", ("schedule",), {"gama": 0.5},
     "unexpected keyword argument 'gama'"),
    ("experiment", ("data", "synthetic"), {"sed": 5},
     "unexpected keyword argument 'sed'"),
    ("solve", ("scheme",), {"builtin": "chain_fb", "n": 2, "m": 0,
                            "sclae": 5},
     "unexpected keyword argument 'sclae'"),
], ids=["schedule", "synthetic", "builtin"])
def test_misspelt_constructor_key_exit_code(tmp_path, monkeypatch, capsys,
                                            command, path, value, message):
    # these keys go to the constructor, which refuses one it does not take
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    cfg = edited_config(tmp_path, out, command, path, value)
    assert main([command, cfg]) == 2
    assert message in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_validate_misspelt_builtin_key_exit_code(tmp_path, capsys):
    doc = {"builtin": "chain_fb", "n": 3, "m": 1, "L": [1], "sclae": 5}
    assert main(["validate", write_json(tmp_path, doc, "typo.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unexpected keyword argument 'sclae'" in captured.err


@pytest.mark.parametrize("command,path,section", [
    ("solve", ("polcy",), "run config"),
    ("solve", ("problem", "x0_sed"), "problem"),
    ("solve", ("stop", "tl"), "stop"),
    ("experiment", ("polices",), "experiment config"),
    ("experiment", ("grid", "case"), "grid"),
    ("experiment", ("seeds", "cont"), "seeds"),
    ("experiment", ("data", "synthetc"), "data"),
], ids=["solve", "problem", "stop", "experiment", "grid", "seeds", "data"])
def test_unknown_key_exit_code_before_any_solve(tmp_path, monkeypatch, capsys,
                                                command, path, section):
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    cfg = edited_config(tmp_path, out, command, path, 1)
    assert main([command, cfg]) == 2
    assert f"unknown keys in {section}: ['{path[-1]}']" in \
        capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("data", 5), ("delta", -1), ("case", 7), ("x0_seed", 1.5)])
def test_dr_quadratic_refuses_markowitz_keys(tmp_path, monkeypatch, capsys,
                                             key, value):
    # each problem kind has its own keys; dr_quadratic reads none of these
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    cfg = edited_config(tmp_path, out, "solve", ("problem", key), value)
    assert main(["solve", cfg]) == 2
    assert f"unknown keys in problem: ['{key}']" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("spec", [5, ["a.csv"], {"csv": "a.csv"}, None])
def test_cli_refusals(spec):
    # data is a CSV path or {"synthetic": {...}}
    with pytest.raises(ValueError, match="data must be a CSV path"):
        cli._load_data(spec)


def test_experiment_refuses_a_repeated_seed(tmp_path, monkeypatch, capsys):
    # the second run of seed 0 would replace the first one's trajectory
    calls = count_solves(monkeypatch)
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out, seeds=[0, 0],
                            grid={"cases": [1], "policies": ["zero"]})
    assert main(["experiment", cfg]) == 2
    assert capsys.readouterr().err == (
        "splitdev: invalid experiment config: two grid cells would write "
        "the files of seed 0\n")
    assert calls == []
    assert not out.exists()


def raising_solve(monkeypatch, error):
    """Every solve the CLI or the grid runs raises ``error``."""
    def solve_that_raises(*args, **kwargs):
        raise error
    for module in (cli, markowitz):
        monkeypatch.setattr(module, "solve", solve_that_raises)


# Each command once a solve starts: the run's own solve, the reference
# solve, the case-2 presolve and the grid's solves.
SOLVING_COMMANDS = {
    "solve-case1": lambda tmp_path, out: markowitz_run(
        tmp_path, out, 1, {"tol": 1e-8}),
    "solve-case1-auto": lambda tmp_path, out: markowitz_run(
        tmp_path, out, 1, {"tol": 1e-8, "reference": "auto"}),
    "solve-case2-auto": lambda tmp_path, out: markowitz_run(
        tmp_path, out, 2, {"tol": 1e-8, "reference": "auto"}),
    "experiment": lambda tmp_path, out: experiment_config(tmp_path, out),
}


@pytest.mark.parametrize("error", [TypeError("unsupported operand"),
                                   ValueError("bad broadcast"),
                                   KeyError("oops")],
                         ids=["TypeError", "ValueError", "KeyError"])
@pytest.mark.parametrize("command", SOLVING_COMMANDS)
def test_a_bug_in_a_solve_escapes_main(tmp_path, monkeypatch, capsys,
                                       command, error):
    # once the config is read, only splitdev's own errors get an exit code;
    # anything else is a bug and a traceback, never "invalid run config"
    raising_solve(monkeypatch, error)
    cfg = SOLVING_COMMANDS[command](tmp_path, tmp_path / "out")
    with pytest.raises(type(error)) as raised:
        main([command.split("-")[0], cfg])
    assert raised.value is error
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error,code,message", [
    (DivergenceError("residual 1e13"), 4, "splitdev: residual 1e13\n"),
    (OracleFailureError("stalled"), 3, "splitdev: stalled\n"),
], ids=["DivergenceError", "OracleFailureError"])
@pytest.mark.parametrize("command", SOLVING_COMMANDS)
def test_a_solve_error_of_the_package_keeps_its_exit_code(
        tmp_path, monkeypatch, capsys, command, error, code, message):
    # a grid catches each cell's error, so every cell fails: exit 5
    raising_solve(monkeypatch, error)
    cfg = SOLVING_COMMANDS[command](tmp_path, tmp_path / "out")
    if command == "experiment":
        code, message = 5, "splitdev: every experiment cell failed\n"
    assert main([command.split("-")[0], cfg]) == code
    assert capsys.readouterr().err == message


# Every value a bad config may hold in place of a good one.
JSON_VALUES = [None, True, -1, 0, 0.5, 1e300, "abc", [], [0], {}, {"x": 1}]


def key_paths(value, path=()):
    """The path of every value nested in ``value``, list items included."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from key_paths(item, path + (key,))


def base_config(tmp_path, config):
    """The test config named ``config``, with a small max_iter."""
    out = tmp_path / "out"
    if config == "solve":
        path = run_config(tmp_path, out, stop={"tol": 1e-8, "max_iter": 20})
    elif config == "markowitz":
        path = markowitz_run(tmp_path, out, 2, {"tol": 1e-8, "max_iter": 20,
                                                "reference": "auto"})
    else:
        path = experiment_config(tmp_path, out, max_iter=20)
    return json.loads(Path(path).read_text())


@pytest.mark.parametrize("config", ["solve", "markowitz", "experiment"])
def test_a_bad_value_never_escapes_main(tmp_path, monkeypatch, capsys,
                                        config):
    # whatever a key holds, main answers with an exit code, never a trace
    monkeypatch.chdir(tmp_path)  # a string output_dir lands here
    command = "experiment" if config == "experiment" else "solve"
    for path in key_paths(base_config(tmp_path, config)):
        for value in JSON_VALUES:
            cfg = base_config(tmp_path, config)
            *parents, key = path
            section = cfg
            for name in parents:
                section = section[name]
            section[key] = value
            cfg_path = write_json(tmp_path, cfg, "edited.json")
            try:
                code = main([command, cfg_path])
            except Exception as exc:
                raise AssertionError(f"{path} = {value!r} escaped") from exc
            assert code in range(6), (path, value, code)
    capsys.readouterr()
