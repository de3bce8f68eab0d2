"""Command line interface.

Subcommands:

* ``splitdev validate scheme.json``   structural checks, JSON report on stdout
* ``splitdev solve run.json``         one solve, trajectory CSV + summary JSON
* ``splitdev experiment exp.json``    a (case, policy) grid of runs

Exit codes, which ``main`` alone assigns, alike under every command: 0
success/converged, 1 a built scheme failed a check, 2 unreadable or invalid
configuration (a scheme that does not build included) or unwritable
output, 3 iteration cap hit, 4 divergence, 5 every experiment cell failed.
All files are written atomically (temp file plus rename) and repeated runs
of the same configuration produce byte-identical outputs.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

from .deviations import parse_policy
from .exceptions import (
    DivergenceError,
    InvalidInputError,
    OracleFailureError,
    SchemeValidationError,
    SplitdevError,
)
from .markowitz import _Builder, load_returns_csv, synthetic_instance
from .operators import MonotoneOp, Problem
from .scheme import (_integer, _real, douglas_rachford, scheme_from_json,
                     validate)
from .solver import ParamSchedule, solve

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_MAX_ITER = 3
EXIT_DIVERGED = 4
EXIT_ALL_CELLS_FAILED = 5


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
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
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _fail(msg, code):
    print(f"splitdev: {msg}", file=sys.stderr)
    return code


def cmd_validate(doc):
    scheme = scheme_from_json(doc)
    report = validate(scheme, doc.get("L"))
    out = dict(report.to_dict(), n=scheme.n, m=scheme.m, theta=scheme.theta)
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
        syn = _object(spec, "data", ("synthetic",))["synthetic"]
        return synthetic_instance(**{"seed": 0, **syn})
    raise ValueError("data must be a CSV path or {'synthetic': {...}}")


def _object(value, what, keys=None):
    """A config section that must be a JSON object; {} when absent.

    With ``keys``, the section may hold no other key.
    """
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object")
    extra = set(value) - set(value if keys is None else keys)
    if extra:
        raise ValueError(f"unknown keys in {what}: {sorted(extra)}")
    return value


def _output_dir(cfg):
    """The configured output directory, created; read after every other key."""
    out_dir = cfg.get("output_dir", ".")
    if not isinstance(out_dir, str):
        raise TypeError("output_dir must be a string")
    os.makedirs(out_dir or ".", exist_ok=True)
    return out_dir


def _given(section, keys):
    """The entries of ``section`` under ``keys``: those a config gives."""
    return {key: section[key] for key in keys if key in section}


def _solve_options(cfg, given):
    """``_Builder``'s keywords: the ``given`` solve keys, and the schedule
    section, whose theta is that of the schemes the CLI builds."""
    for key in ("tol", "ref_tol"):  # JSON could not write such a value back
        if key in given and not math.isfinite(_real(given[key], key)):
            raise InvalidInputError(f"{key} must not be NaN or infinite")
    schedule = dict(_object(cfg.get("schedule"), "schedule"))
    if "theta" in schedule:
        given = dict(given, theta=schedule.pop("theta"))
    return dict(given, schedule=ParamSchedule(**schedule))


def _build_scheme(doc, problem, theta, scale):
    # theta for a builtin without its own; chain_fb also takes n, m, L, scale
    if isinstance(doc, dict) and "builtin" in doc:
        doc = {"theta": theta, **doc}
        if doc["builtin"] == "chain_fb":
            doc.setdefault("n", problem.n)
            doc.setdefault("m", problem.m)
            doc.setdefault("L", problem.lipschitz.tolist())
            doc.setdefault("scale", scale)
    return scheme_from_json(doc, lipschitz=problem.lipschitz)


# The keys a ``problem`` section may hold, by its kind.
_PROBLEM_KEYS = {"markowitz": ("kind", "data", "delta", "case", "x0_seed"),
                 "dr_quadratic": ("kind",)}


def cmd_solve(cfg):
    cfg = _object(cfg, "run config", ("problem", "schedule", "policy", "stop",
                                      "scheme", "output_dir"))
    stop_cfg = _object(cfg.get("stop"), "stop",
                       ("tol", "max_iter", "ref_tol", "reference"))
    if stop_cfg.get("reference") not in (None, "auto"):
        raise ValueError('stop.reference must be "auto" or absent, got '
                         f'{stop_cfg["reference"]!r}')
    options = _solve_options(cfg, _given(stop_cfg,
                                         ("tol", "max_iter", "ref_tol")))
    policy = parse_policy(cfg.get("policy", "zero"))
    problem_cfg = _object(cfg.get("problem"), "problem")
    kind = problem_cfg.get("kind")
    if kind not in _PROBLEM_KEYS:
        raise ValueError(f"unknown problem kind {kind!r}")
    _object(problem_cfg, "problem", _PROBLEM_KEYS[kind])
    if kind == "markowitz":
        builder = _Builder(_load_data(problem_cfg["data"]), **options,
                           **_given(problem_cfg, ("delta",)))
        cell = problem_cfg.get("case", 1), problem_cfg.get("x0_seed", 0)
        problem, scheme = builder.problem(*cell)
        scale = builder.scale(problem.dim)
    else:
        builder, problem = _Builder(None, **options), _dr_quadratic_problem()
        scheme, scale = douglas_rachford(1.0, theta=builder.theta), 1.0
    if cfg.get("scheme") is not None:
        scheme = _build_scheme(cfg["scheme"], problem, builder.theta, scale)
    stop = builder.stop
    if stop_cfg.get("reference") == "auto":  # the problem's x*: 0 for the toy
        stop = replace(stop, reference=builder.reference(*cell)
                       if kind == "markowitz" else [0.0])
    out_dir = _output_dir(cfg)

    summary = {"problem": kind, "policy": policy.name, "tol": stop.tol}
    try:
        result = solve(problem, scheme, schedule=builder.schedule,
                       policy=policy, stop=stop)
    except DivergenceError as exc:
        summary.update(status="diverged", error=str(exc))
        _write_atomic(os.path.join(out_dir, "summary.json"),
                      _dump_json(summary))
        raise

    traj = result.trajectory
    summary.update(
        status="converged" if result.converged else "max_iter",
        converged=result.converged,
        iterations=result.iterations,
        final_residual=traj.residual[-1],
        final_spread=traj.spread[-1],
        x=result.x.tolist(),
    )
    if stop.reference is not None:
        summary["final_dist_to_ref"] = traj.dist_to_ref[-1]
    _write_atomic(os.path.join(out_dir, "trajectory.csv"), traj.to_csv_text())
    _write_atomic(os.path.join(out_dir, "summary.json"), _dump_json(summary))
    return EXIT_OK if result.converged else EXIT_MAX_ITER


def _slug(text):
    return "".join(ch if ch.isalnum() or ch in "._-" else "-" for ch in text)


def cmd_experiment(cfg):
    cfg = _object(cfg, "experiment config",
                  ("data", "delta", "grid", "seeds", "schedule", "tol",
                   "ref_tol", "max_iter", "output_dir"))
    builder = _Builder(_load_data(cfg["data"]), **_solve_options(
        cfg, _given(cfg, ("delta", "tol", "ref_tol", "max_iter"))))
    grid = _object(cfg.get("grid"), "grid", ("cases", "schemes", "policies"))
    scheme_name = builder.scheme_name
    if grid.get("schemes", [scheme_name]) != [scheme_name]:
        raise ValueError(f'grid.schemes must be ["{scheme_name}"] or absent')
    seeds = cfg.get("seeds")
    if seeds is None or isinstance(seeds, dict):
        seeds_cfg = _object(seeds, "seeds", ("start", "count"))
        start = _integer(seeds_cfg.get("start", builder.seeds.start),
                         "seeds.start")
        seeds = range(start, start + _integer(
            seeds_cfg.get("count", len(builder.seeds)), "seeds.count"))
    cases, policies, seeds = builder.axes(
        case=grid.get("cases", builder.cases),
        policy=grid.get("policies", builder.policies), seed=seeds)
    policy_names = [policy.name for policy in policies]
    for what, keys in (("case", cases), ("policy", policy_names)):
        dup = next((k for i, k in enumerate(keys) if k in keys[:i]), None)
        if dup is not None:
            raise ValueError(f"two grid cells would write the files of "
                             f"{what} {dup!r}")
    out_dir = _output_dir(cfg)

    outcomes = builder.run(cases, policies, seeds)
    cells = [(case, policy_name) for case in cases
             for policy_name in policy_names]
    table = io.StringIO()  # a momentum policy's name holds a comma
    rows = csv.writer(table, lineterminator="\n")
    rows.writerow(["case", "scheme", "policy", "mean_iters", "std_iters",
                   "n_seeds"])
    n_failed = 0
    for (case, policy_name), report in zip(cells, outcomes):
        base = f"case{case}_{scheme_name}_{_slug(policy_name)}"
        if isinstance(report, SplitdevError):
            n_failed += 1
            rows.writerow([case, scheme_name, policy_name, "", "", 0])
            error = f"{type(report).__name__}: {report}"
            _write_atomic(os.path.join(out_dir, f"cell_{base}.json"),
                          _dump_json({"status": "failed", "error": error,
                                      "case": case, "scheme": scheme_name,
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
        rows.writerow([case, report.scheme, report.policy,
                       format(report.mean_iters, ".17g"),
                       format(report.std_iters, ".17g"), len(report.records)])
    _write_atomic(os.path.join(out_dir, "experiment_summary.csv"),
                  table.getvalue())
    if n_failed == len(cells):
        return _fail("every experiment cell failed", EXIT_ALL_CELLS_FAILED)
    return EXIT_OK


# The exit code of each error that is not a bad configuration.
_EXIT_CODES = ((SchemeValidationError, EXIT_CHECKS_FAILED),
               (OracleFailureError, EXIT_MAX_ITER),
               (DivergenceError, EXIT_DIVERGED))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="splitdev",
        description="Frugal operator splitting with deviation steps.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_val = sub.add_parser("validate", help="check a scheme document")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate, what="scheme document")
    p_solve = sub.add_parser("solve", help="run a single solve")
    p_solve.add_argument("config")
    p_solve.set_defaults(func=cmd_solve, what="run config")
    p_exp = sub.add_parser("experiment", help="run an experiment grid")
    p_exp.add_argument("config")
    p_exp.set_defaults(func=cmd_experiment, what="experiment config")
    args = parser.parse_args(argv)
    phase = "cannot read"
    try:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        phase = "invalid"
        return args.func(doc)
    except (SplitdevError, KeyError, OSError, TypeError, ValueError) as exc:
        for kind, code in _EXIT_CODES:
            if isinstance(exc, kind):
                return _fail(exc, code)
        return _fail(f"{phase} {args.what}: {exc}", EXIT_BAD_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
