"""Command line front end: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from splitdev import davis_yin, douglas_rachford, scheme_to_json
from splitdev.cli import main


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


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/scheme.json"]) == 2


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


@pytest.mark.parametrize("schedule", [{"theta": 0}, {"gamma": 1.5}])
def test_experiment_out_of_range_schedule_exit_code(tmp_path, schedule):
    out = tmp_path / "out"
    cfg = experiment_config(tmp_path, out, schedule=schedule)
    assert main(["experiment", cfg]) == 2
    assert not out.exists()
