"""Per-solve correctness checks and the per-layer metrics of one unit of work.

Layers are named after the modules in ``src/splitdev``: operators,
deviations, solver, scheme, markowitz and cli.  Times are milliseconds per
unit of work, counts are per unit and repeat exactly.  ``.ms`` is the time
inside the named call, children included; ``.self_ms`` excludes the spans
of the calls it makes.
"""

import numpy as np

SIMPLEX_TOL = 1e-9

# Labels of the operators that ``markowitz.build_problem`` creates, as slugs.
MARKOWITZ_RESOLVENTS = ("l1_cost", "power32_cost", "simplex")
MARKOWITZ_FORWARDS = ("risk", "ridge")
POLICIES = ("zero", "momentum", "randball")

# Names whose values are exact counts and must repeat exactly between units
# and between runs of the same inputs.
EXACT = tuple(
    ["markowitz.reference.solves", "markowitz.reference.iters",
     "markowitz.presolve.solves", "markowitz.presolve.iters",
     "markowitz.reference_iter_share.base"]
    + [f"operators.resolvent.{s}.calls" for s in MARKOWITZ_RESOLVENTS]
    + [f"operators.forward.{s}.calls" for s in MARKOWITZ_FORWARDS]
    + ["operators.resolvent.affine.calls", "operators.forward.affine.calls",
       "operators.estimate_cocoercivity.calls"]
    + [f"deviations.produce.{p}.calls" for p in POLICIES]
    + ["deviations.enforce_budget.calls", "deviations.clip_rate.base",
       "solver.solve.calls", "solver.step.calls",
       "scheme.validate.calls", "scheme.chain_fb.calls",
       "cli.files_written", "cli.bytes_written"])


def check_solve(rec, simplex):
    """Reasons the solve failed its checks; empty when it passed."""
    bad = []
    if not rec.converged:
        bad.append("not converged")
    t = rec.trajectory
    if len(t) != rec.iterations:
        bad.append("trajectory length differs from the iteration count")
    if np.any(np.asarray(t.resolvent_calls) != rec.n) or \
            np.any(np.asarray(t.forward_calls) != rec.m):
        bad.append("a step broke frugality (calls per operator != 1)")
    granted = np.asarray(t.xi) * np.asarray(t.l2)
    spent = np.asarray(t.budget_used)
    if np.any(spent > granted + 1e-12 * (1.0 + granted)):
        bad.append("a step spent more than its budget xi_k * l_k^2")
    if rec.reference is not None and \
            not np.linalg.norm(rec.x - rec.reference) < rec.tol:
        bad.append("||x - x*|| >= tol against the run's reference")
    if simplex and (np.min(rec.x) < 0.0
                    or abs(float(np.sum(rec.x)) - 1.0) > SIMPLEX_TOL):
        bad.append("solution is off the simplex")
    return bad


def check_records(records, simplex):
    """(number failed, first few failure reasons) over a list of solves."""
    failed, notes = 0, []
    for rec in records:
        bad = check_solve(rec, simplex)
        if bad:
            failed += 1
            notes.append(f"{rec.kind}/{rec.policy}: {'; '.join(bad)}")
    return failed, notes[:5]


def layer_metrics(agg, records, clipped, affine_dim=0):
    """Per-layer metrics of one unit from span aggregates and solve records."""
    out = {}

    def span(name):
        return agg.get(name, {"calls": 0, "ns": 0.0, "self_ns": 0.0})

    def calls_ms(name):
        s = span(name)
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.ms"] = s["ns"] / 1e6

    iters = {"reference": 0, "presolve": 0, "policy": 0}
    solves = dict.fromkeys(iters, 0)
    for rec in records:
        iters[rec.kind] += rec.iterations
        solves[rec.kind] += 1
    total = sum(iters.values())
    for kind in ("reference", "presolve"):
        out[f"markowitz.{kind}.solves"] = solves[kind]
        out[f"markowitz.{kind}.iters"] = iters[kind]
    out["markowitz.reference_iter_share"] = (
        (iters["reference"] + iters["presolve"]) / total if total else 0.0)
    out["markowitz.reference_iter_share.base"] = total
    out["markowitz.build_problem.ms"] = span("markowitz.build_problem")["ns"] / 1e6
    out["markowitz.estimate_moments.ms"] = \
        span("markowitz.estimate_moments")["ns"] / 1e6

    for s in MARKOWITZ_RESOLVENTS + ("affine",):
        calls_ms(f"operators.resolvent.{s}")
    for s in MARKOWITZ_FORWARDS + ("affine",):
        calls_ms(f"operators.forward.{s}")
    # Computed, not counted: LU of (I + dA) plus the two triangular solves.
    flops = 2.0 / 3.0 * affine_dim ** 3 + 2.0 * affine_dim ** 2
    gflop = out["operators.resolvent.affine.calls"] * flops / 1e9
    out["operators.resolvent.affine.gflop"] = gflop
    ms = out["operators.resolvent.affine.ms"]
    out["operators.resolvent.affine.gflop_per_s"] = gflop / (ms / 1e3) if ms else 0.0
    calls_ms("operators.estimate_cocoercivity")

    for p in POLICIES:
        calls_ms(f"deviations.produce.{p}")
    step = span("solver.step")
    out["deviations.deviation_cost.calls_per_step"] = (
        span("deviations.deviation_cost")["calls"] / step["calls"]
        if step["calls"] else 0.0)
    calls_ms("deviations.enforce_budget")
    n_enforce = out["deviations.enforce_budget.calls"]
    out["deviations.clip_rate"] = clipped / n_enforce if n_enforce else 0.0
    out["deviations.clip_rate.base"] = n_enforce
    spent = granted = 0.0
    for rec in records:
        if rec.policy != "zero":
            t = rec.trajectory
            spent += float(np.sum(t.budget_used))
            granted += float(np.dot(t.xi, t.l2))
    out["deviations.budget_spent_share"] = spent / granted if granted else 0.0

    out["solver.solve.calls"] = span("solver.solve")["calls"]
    out["solver.step.calls"] = step["calls"]
    out["solver.step.self_ms"] = step["self_ns"] / 1e6
    # solve minus its children (step, validate): stop metrics, spread and
    # Trajectory.append.
    out["solver.loop_ms"] = span("solver.solve")["self_ns"] / 1e6
    calls_ms("scheme.validate")
    calls_ms("scheme.chain_fb")
    out["cli.csv_format_ms"] = span("cli.csv_format")["ns"] / 1e6
    return out
