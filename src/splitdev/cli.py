"""Command line interface.

Subcommands:

* ``splitdev validate scheme.json``   structural checks, JSON report on stdout
* ``splitdev solve run.json``         one solve, trajectory CSV + summary JSON
* ``splitdev experiment exp.json``    a (case, scheme, policy) grid of runs

Exit codes: 0 success/converged, 1 scheme checks failed, 2 unreadable or
invalid configuration, 3 iteration cap hit, 4 divergence, 5 every experiment
cell failed.  All files are written atomically (temp file plus rename) and
repeated runs of the same configuration produce byte-identical outputs.
"""

import argparse
import json
import os
import sys
import tempfile

from .deviations import parse_policy
from .exceptions import (
    DegenerateStepsizeError,
    DivergenceError,
    SchemeValidationError,
    SplitdevError,
)
from .markowitz import (
    MarkowitzProblem,
    build_problem,
    estimate_moments,
    load_returns_csv,
    portfolio_chain_scale,
    run_grid,
    sample_simplex,
    shift_window,
    synthetic_instance,
)
from .operators import MonotoneOp, Problem
from .scheme import chain_fb, douglas_rachford, scheme_from_json, validate
from .solver import ParamSchedule, StopRule, solve

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_MAX_ITER = 3
EXIT_DIVERGED = 4
EXIT_ALL_CELLS_FAILED = 5


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".splitdev-")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _read_config(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _fail(msg, code):
    print(f"splitdev: {msg}", file=sys.stderr)
    return code


def cmd_validate(args):
    try:
        doc = _read_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read scheme document: {exc}", EXIT_BAD_CONFIG)
    try:
        scheme = scheme_from_json(doc)
    except SplitdevError as exc:
        # Degenerate stepsizes are a failed check, not a malformed document.
        if isinstance(exc, DegenerateStepsizeError):
            report = {"passed": False,
                      "checks": [{"name": "positive_diagonal",
                                  "passed": False, "detail": str(exc),
                                  "witness": None}]}
            print(_dump_json(report), end="")
            return EXIT_CHECKS_FAILED
        return _fail(f"invalid scheme document: {exc}", EXIT_BAD_CONFIG)
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"invalid scheme document: {exc}", EXIT_BAD_CONFIG)
    lipschitz = doc.get("L") if isinstance(doc, dict) else None
    report = validate(scheme, lipschitz)
    out = report.to_dict()
    out["n"] = scheme.n
    out["m"] = scheme.m
    out["theta"] = scheme.theta
    print(_dump_json(out), end="")
    return EXIT_OK if report.passed else EXIT_CHECKS_FAILED


def _dr_quadratic_problem():
    # The two-operator test pair: subdifferentials of (x-1)^2/2 and (x+1)^2/2.
    f1 = MonotoneOp(lambda d, y: (y + d) / (1.0 + d), label="(x-1)^2/2")
    f2 = MonotoneOp(lambda d, y: (y - d) / (1.0 + d), label="(x+1)^2/2")
    return Problem((f1, f2), (), dim=1)


def _load_data(spec):
    if isinstance(spec, str):
        return load_returns_csv(spec)
    if isinstance(spec, dict) and "synthetic" in spec:
        syn = dict(spec["synthetic"])
        return synthetic_instance(seed=int(syn.get("seed", 0)),
                                  days=int(syn.get("days", 200)),
                                  assets=int(syn.get("assets", 53)),
                                  factors=int(syn.get("factors", 3)))
    raise ValueError("data must be a CSV path or {'synthetic': {...}}")


def _markowitz_problem(cfg, theta):
    data = _load_data(cfg["data"])
    delta = float(cfg.get("delta", 6.0))
    seed = int(cfg.get("x0_seed", 0))
    case = int(cfg.get("case", 1))
    if case not in (1, 2):
        raise ValueError(f"case must be 1 or 2, got {case}")
    x0 = sample_simplex(data.assets, seed)
    Lam, r = estimate_moments(data)
    if case == 2:
        prob1 = build_problem(MarkowitzProblem(Lam, r, delta, x0))
        scheme1 = chain_fb(prob1.n, prob1.m, prob1.lipschitz, theta=theta,
                           scale=portfolio_chain_scale(prob1.dim))
        ref = solve(prob1, scheme1, schedule=ParamSchedule(theta=theta),
                    stop=StopRule(tol=1e-12))
        if not ref.converged:
            raise DivergenceError("case-2 presolve did not converge")
        x0 = ref.x
        Lam, r = estimate_moments(shift_window(data))
    return build_problem(MarkowitzProblem(Lam, r, delta, x0))


def _build_problem(cfg, theta):
    kind = cfg.get("kind")
    if kind == "dr_quadratic":
        return _dr_quadratic_problem()
    if kind == "markowitz":
        return _markowitz_problem(cfg, theta)
    raise ValueError(f"unknown problem kind {kind!r}")


def _build_scheme(doc, problem, theta, kind=None):
    # the portfolio problem needs a stiffer dual metric than unit scale
    scale = portfolio_chain_scale(problem.dim) if kind == "markowitz" else 1.0
    if doc is None:
        if problem.m == 0 and problem.n == 2:
            return douglas_rachford(1.0, theta=theta)
        return chain_fb(problem.n, problem.m, problem.lipschitz, theta=theta,
                        scale=scale)
    if isinstance(doc, dict) and doc.get("builtin") == "chain_fb":
        doc = dict(doc)
        doc.setdefault("n", problem.n)
        doc.setdefault("m", problem.m)
        doc.setdefault("L", problem.lipschitz.tolist())
        doc.setdefault("theta", theta)
        doc.setdefault("scale", scale)
    return scheme_from_json(doc, lipschitz=problem.lipschitz)


def _build_schedule(cfg):
    cfg = cfg or {}
    return ParamSchedule(gamma=float(cfg.get("gamma", 0.9)),
                         xi=float(cfg.get("xi", 0.9)),
                         theta=float(cfg.get("theta", 1.0)),
                         epsilon=float(cfg.get("epsilon", 1e-3)))


def cmd_solve(args):
    try:
        cfg = _read_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read run config: {exc}", EXIT_BAD_CONFIG)
    try:
        schedule = _build_schedule(cfg.get("schedule"))
        problem = _build_problem(cfg.get("problem", {}), schedule.theta)
        scheme = _build_scheme(cfg.get("scheme"), problem,
                               schedule.theta,
                               kind=cfg.get("problem", {}).get("kind"))
        policy = parse_policy(cfg.get("policy", "zero"))
        stop_cfg = cfg.get("stop", {})
        tol = float(stop_cfg.get("tol", 1e-8))
        max_iter = int(stop_cfg.get("max_iter", 10 ** 6))
        reference = None
        if stop_cfg.get("reference") == "auto":
            ref = solve(problem, scheme, schedule=schedule,
                        stop=StopRule(tol=float(stop_cfg.get("ref_tol",
                                                             1e-12)),
                                      max_iter=max_iter))
            if not ref.converged:
                return _fail("reference run did not converge", EXIT_MAX_ITER)
            reference = ref.x
        out_dir = cfg.get("output_dir", ".")
    except (SchemeValidationError,) as exc:
        return _fail(str(exc), EXIT_CHECKS_FAILED)
    except DivergenceError as exc:
        return _fail(str(exc), EXIT_DIVERGED)
    except (SplitdevError, KeyError, TypeError, ValueError) as exc:
        return _fail(f"invalid run config: {exc}", EXIT_BAD_CONFIG)

    summary = {
        "problem": cfg.get("problem", {}).get("kind"),
        "policy": policy.name,
        "tol": tol,
    }
    try:
        result = solve(problem, scheme, schedule=schedule, policy=policy,
                       stop=StopRule(tol=tol, max_iter=max_iter,
                                     reference=reference))
    except SchemeValidationError as exc:
        return _fail(str(exc), EXIT_CHECKS_FAILED)
    except DivergenceError as exc:
        summary.update(status="diverged", error=str(exc))
        _write_atomic(os.path.join(out_dir, "summary.json"),
                      _dump_json(summary))
        return _fail(str(exc), EXIT_DIVERGED)

    traj = result.trajectory
    summary.update(
        status="converged" if result.converged else "max_iter",
        converged=result.converged,
        iterations=result.iterations,
        final_residual=traj.residual[-1],
        final_spread=traj.spread[-1],
        x=result.x.tolist(),
    )
    if reference is not None:
        summary["final_dist_to_ref"] = traj.dist_to_ref[-1]
    _write_atomic(os.path.join(out_dir, "trajectory.csv"), traj.to_csv_text())
    _write_atomic(os.path.join(out_dir, "summary.json"), _dump_json(summary))
    return EXIT_OK if result.converged else EXIT_MAX_ITER


def _slug(text):
    return "".join(ch if ch.isalnum() or ch in "._-" else "-" for ch in text)


def cmd_experiment(args):
    try:
        cfg = _read_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read experiment config: {exc}", EXIT_BAD_CONFIG)
    try:
        data = _load_data(cfg["data"])
        delta = float(cfg.get("delta", 6.0))
        grid = cfg.get("grid", {})
        cases = [int(c) for c in grid.get("cases", [1])]
        schemes = list(grid.get("schemes", ["chain_fb"]))
        policies = list(grid.get("policies", ["zero"]))
        seeds_cfg = cfg.get("seeds", {"count": 50, "start": 0})
        if isinstance(seeds_cfg, dict):
            start = int(seeds_cfg.get("start", 0))
            seeds = list(range(start, start + int(seeds_cfg.get("count", 0))))
        else:
            seeds = [int(s) for s in seeds_cfg]
        if not seeds or not cases or not schemes or not policies:
            raise ValueError("experiment grid is empty")
        sched_cfg = cfg.get("schedule", {}) or {}
        gamma = float(sched_cfg.get("gamma", 0.9))
        xi = float(sched_cfg.get("xi", 0.9))
        theta = float(sched_cfg.get("theta", 1.0))
        # run_grid builds this schedule; building it here checks its values
        # before any solve or file write
        ParamSchedule(gamma=gamma, xi=xi, theta=theta)
        tol = float(cfg.get("tol", 1e-8))
        ref_tol = float(cfg.get("ref_tol", 1e-12))
        max_iter = int(cfg.get("max_iter", 10 ** 6))
        out_dir = cfg.get("output_dir", ".")
        policy_names = [parse_policy(policy).name for policy in policies]
    except (SplitdevError, KeyError, TypeError, ValueError) as exc:
        return _fail(f"invalid experiment config: {exc}", EXIT_BAD_CONFIG)

    outcomes = run_grid(data, cases, schemes, policies, seeds, delta=delta,
                        theta=theta, gamma=gamma, xi=xi, tol=tol,
                        ref_tol=ref_tol, max_iter=max_iter)
    cells = [(case, scheme, policy_name) for case in cases
             for scheme in schemes for policy_name in policy_names]
    lines = ["case,scheme,policy,mean_iters,std_iters,n_seeds"]
    n_failed = 0
    for (case, scheme_kind, policy_name), report in zip(cells, outcomes):
        base = f"case{case}_{_slug(str(scheme_kind))}_{_slug(policy_name)}"
        if isinstance(report, SplitdevError):
            n_failed += 1
            lines.append(f"{case},{scheme_kind},{policy_name},,,0")
            error = f"{type(report).__name__}: {report}"
            _write_atomic(os.path.join(out_dir, f"cell_{base}.json"),
                          _dump_json({"status": "failed", "error": error,
                                      "case": case, "scheme": str(scheme_kind),
                                      "policy": policy_name}))
            continue
        summary = report.summary_dict()
        summary["status"] = "ok"
        _write_atomic(os.path.join(out_dir, f"cell_{base}.json"),
                      _dump_json(summary))
        for rec in report.records:
            _write_atomic(
                os.path.join(out_dir, f"traj_{base}_seed{rec.seed}.csv"),
                rec.trajectory.to_csv_text())
        lines.append(",".join([
            str(case), str(report.scheme), report.policy,
            format(report.mean_iters, ".17g"),
            format(report.std_iters, ".17g"),
            str(len(report.records)),
        ]))
    _write_atomic(os.path.join(out_dir, "experiment_summary.csv"),
                  "\n".join(lines) + "\n")
    if n_failed == len(cells):
        return _fail("every experiment cell failed", EXIT_ALL_CELLS_FAILED)
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="splitdev",
        description="Frugal operator splitting with deviation steps.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_val = sub.add_parser("validate", help="check a scheme document")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)
    p_solve = sub.add_parser("solve", help="run a single solve")
    p_solve.add_argument("config")
    p_solve.set_defaults(func=cmd_solve)
    p_exp = sub.add_parser("experiment", help="run an experiment grid")
    p_exp.add_argument("config")
    p_exp.set_defaults(func=cmd_experiment)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
