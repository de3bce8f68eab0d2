"""Acceptance suite.

Ten numbered criteria, each printing a single PASS/FAIL line (run with -s to
see them).  Criteria 1, 3 and 4 route every solve through a tracked wrapper
that audits the per-iteration budget inequality and the operator-call
counters; criteria 5 and 6 assert over that audit trail, so they hold across
every run the suite performed.
"""

import functools
import itertools
import json
import time

import numpy as np
import pytest

from splitdev import (
    BudgetViolationError,
    MarkowitzProblem,
    MomentumPolicy,
    ParamSchedule,
    Problem,
    RandomBallPolicy,
    Scheme,
    StopRule,
    ZeroPolicy,
    affine_cocoercive,
    affine_monotone,
    build_problem,
    chain_fb,
    davis_yin,
    douglas_rachford,
    estimate_moments,
    portfolio_chain_scale,
    project_simplex,
    prox_shifted_l1,
    prox_shifted_power32,
    run_grid,
    sample_simplex,
    solve,
    synthetic_instance,
    validate,
)
from splitdev.cli import main as cli_main

from oracles import (WorstCasePolicy, markowitz_reference,
                     project_simplex_kkt, prox_1d)

AUDIT = {"runs": 0, "budget_rows": 0, "budget_violations": 0,
         "counter_rows": 0, "counter_mismatches": 0}


def _report(num, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {num}: {detail}",
          flush=True)
    assert passed, f"criterion {num}: {detail}"


def tracked_solve(problem, scheme, **kwargs):
    """solve() plus an audit of budgets and call counters on the trajectory."""
    res = solve(problem, scheme, **kwargs)
    tr = res.trajectory
    AUDIT["runs"] += 1
    for k in range(len(tr)):
        AUDIT["budget_rows"] += 1
        budget = tr.xi[k] * tr.l2[k]
        if tr.budget_used[k] > budget + 1e-12 * (1.0 + budget):
            AUDIT["budget_violations"] += 1
        AUDIT["counter_rows"] += 1
        if tr.resolvent_calls[k] != scheme.n or tr.forward_calls[k] != scheme.m:
            AUDIT["counter_mismatches"] += 1
    return res


# -- shared random instance family (criteria 3 and 4) -----------------------
#
# The termination checks need runs whose last hundred iterations sit in the
# asymptotic regime (a run shorter than the window can never have a flat
# tail), so each seed's operators are rescaled until the probe run converges
# slowly enough.  Rescaling A and b together keeps the solution fixed.

def _raw_parts(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(0, min(n - 1, 2) + 1))
    p = int(rng.integers(2, 11))
    FA, Fb, BA, Bb = [], [], [], []
    for _ in range(n):
        G = rng.normal(size=(p, p))
        FA.append(G @ G.T / p * 0.3 + 0.02 * np.eye(p))
        Fb.append(rng.normal(size=p))
    for _ in range(m):
        G = rng.normal(size=(p, p))
        BA.append(G @ G.T / p * 0.05 + 0.002 * np.eye(p))
        Bb.append(rng.normal(size=p))
    return n, m, FA, Fb, BA, Bb, p


def _build_instance(parts, s):
    n, m, FA, Fb, BA, Bb, p = parts
    F = [affine_monotone(s * A, s * b) for A, b in zip(FA, Fb)]
    B = [affine_cocoercive(s * A, s * b) for A, b in zip(BA, Bb)]
    prob = Problem(F, B, dim=p)
    return prob, chain_fb(n, m, prob.lipschitz)


def _tail(tr):
    return sum(tr.l2[max(0, len(tr) - 100):])


SCHEDULE = ParamSchedule(gamma=0.9, xi=0.9)


@functools.lru_cache(maxsize=1)
def instance_family():
    family = []
    for seed in range(50):
        parts = _raw_parts(seed)
        s = 1.0
        for _ in range(14):
            prob, sc = _build_instance(parts, s)
            probe = tracked_solve(prob, sc, schedule=SCHEDULE,
                                  stop=StopRule(tol=1e-8, max_iter=6000))
            if not probe.converged:
                s *= 2.0
                continue
            if probe.iterations >= 150 and _tail(probe.trajectory) < 1e-11:
                break
            s *= 0.45
        else:
            raise RuntimeError(f"no usable scale for seed {seed}")
        family.append(_build_instance(parts, s))
    return family


@functools.lru_cache(maxsize=1)
def dr_equivalence_workload():
    """200 tracked iterations of the two-resolvent scheme, gamma_k = 0.45."""
    f1 = affine_monotone(np.eye(1), -np.ones(1))
    f2 = affine_monotone(np.eye(1), np.ones(1))
    prob = Problem((f1, f2), dim=1)
    # tol -1 disables the residual stop so all 200 iterations run
    res = tracked_solve(prob, douglas_rachford(gamma=1.0),
                        schedule=ParamSchedule(gamma=0.45, xi=0.0),
                        stop=StopRule(tol=-1.0, max_iter=200),
                        record_states=True)
    z_ref = np.zeros(1)
    worst = 0.0
    for k in range(201):
        ours = np.sqrt(2.0) * res.trajectory.z_states[k][0]
        worst = max(worst, float(np.abs(ours - z_ref).max()))
        x1 = (z_ref + 1.0) / 2.0
        x2 = (2.0 * x1 - z_ref - 1.0) / 2.0
        z_ref = z_ref - 0.9 * (x1 - x2)
    return worst


@functools.lru_cache(maxsize=1)
def fejer_workload():
    """Worst violations over 50 instances x {momentum, randball}.

    Returns (Eq.-(11) form, Fejer form).  The Eq.-(11) form is
    V_{k+1} <= V_k + xi_{k-1} l_{k-1}^2 - l_k^2 with
    V_k = ||z^k - z*||^2 + l_{k-1}^2; the Fejer form, which the method
    satisfies for any budget-feasible pair, is
    ||z^{k+1} - z*||^2 + l_k^2 <= ||z^k - z*||^2 + spent_k, with spent_k
    the cost of the pair step k used (0 at k = 0).
    """
    worst = fejer = -np.inf
    for seed, (prob, sc) in enumerate(instance_family()):
        ref = tracked_solve(prob, sc, schedule=SCHEDULE,
                            stop=StopRule(tol=1e-11))
        assert ref.converged
        z_star = ref.state.z
        for policy in (MomentumPolicy(beta=0.7), RandomBallPolicy(seed=seed)):
            res = tracked_solve(prob, sc, schedule=SCHEDULE, policy=policy,
                                stop=StopRule(tol=1e-8, max_iter=20000),
                                record_states=True)
            assert res.converged
            run_worst, run_fejer = _fejer_violations(res.trajectory, z_star)
            worst, fejer = max(worst, run_worst), max(fejer, run_fejer)
    return worst, fejer


def _fejer_violations(tr, z_star):
    """(Eq.-(11) form, Fejer form) worst violations of one recorded run."""
    worst = fejer = -np.inf
    dists = [float(np.sum((z - z_star) ** 2)) for z in tr.z_states]
    for k in range(1, len(tr)):
        v_k = dists[k] + tr.l2[k - 1]
        v_next = dists[k + 1] + tr.l2[k]
        slack = tr.xi[k - 1] * tr.l2[k - 1] - tr.l2[k]
        worst = max(worst, v_next - v_k - slack)
    for k in range(len(tr)):
        spent = tr.budget_used[k - 1] if k else 0.0
        fejer = max(fejer, dists[k + 1] + tr.l2[k] - dists[k] - spent)
    return worst, fejer


@functools.lru_cache(maxsize=1)
def termination_workload():
    """Worst-case Thm-3.8 termination metrics over the 50 instances."""
    worst = {"l2": 0.0, "tail": 0.0, "spread": 0.0, "dz": 0.0}
    for prob, sc in instance_family():
        res = tracked_solve(prob, sc, schedule=SCHEDULE,
                            stop=StopRule(tol=1e-8), record_states=True)
        assert res.converged
        tr, zs = res.trajectory, res.trajectory.z_states
        worst["l2"] = max(worst["l2"], tr.l2[-1])
        worst["tail"] = max(worst["tail"], _tail(tr))
        worst["spread"] = max(worst["spread"], tr.spread[-1])
        worst["dz"] = max(worst["dz"],
                          float(np.linalg.norm(zs[-1] - zs[-2])))
    return worst


def test_criterion_1_textbook_equivalence():
    t0 = time.perf_counter()
    worst = dr_equivalence_workload()
    dt = time.perf_counter() - t0
    _report(1, worst <= 1e-10 and dt < 1.0,
            f"two-resolvent run tracks the textbook oracle over 200 "
            f"iterations, max deviation {worst:.2e} <= 1e-10 ({dt:.2f}s)")


def test_criterion_2_validator_suite():
    t0 = time.perf_counter()
    cases = [
        (douglas_rachford(gamma=1.0), None),
        (davis_yin(gamma=0.5), np.ones(1)),
        (chain_fb(3, 2, np.ones(2)), np.ones(2)),
    ]
    all_pass = all(validate(sc, L).passed for sc, L in cases)
    caught = total = 0
    for sc, L in cases:
        rng = np.random.default_rng(99)
        mats = {"M": sc.M, "S": sc.S, "C": sc.C, "Q": sc.Q}
        names = [k for k, v in mats.items() if v.size]
        for _ in range(20):
            total += 1
            name = names[rng.integers(len(names))]
            mutated = {k: v.copy() for k, v in mats.items()}
            flat = mutated[name].reshape(-1)
            flat[rng.integers(flat.size)] += 0.1
            try:
                bad = Scheme(M=mutated["M"], S=mutated["S"], C=mutated["C"],
                             Q=mutated["Q"], theta=sc.theta)
            except Exception:
                caught += 1
                continue
            if not validate(bad, L).passed:
                caught += 1
    dt = time.perf_counter() - t0
    _report(2, all_pass and caught == total and dt < 1.0,
            f"3 builtin schemes pass all checks; {caught}/{total} "
            f"single-entry mutations caught ({dt:.2f}s)")


def test_criterion_3_fejer_monotonicity():
    t0 = time.perf_counter()
    worst, fejer = fejer_workload()
    dt = time.perf_counter() - t0
    _report(3, worst <= 1e-9 and fejer <= 1e-9 and dt < 30.0,
            f"on 50 instances x 2 policies: V_k+1 <= V_k + xi*l2 - l2', "
            f"worst violation {worst:.2e} <= 1e-9; |z_k+1 - z*|^2 + l2' <= "
            f"|z_k - z*|^2 + spent, worst violation {fejer:.2e} <= 1e-9 "
            f"({dt:.1f}s)")


def test_fejer_inequalities_under_a_worst_case_policy():
    # the even seeds of criterion 3's family, each at rho 0, 0.5 and 1 and
    # with u along dw or along w^k - Q x*: the policy's raw pair is 1e6
    # times too large, so nearly every pair is clipped to exactly its
    # budget, and the Fejer inequalities must still hold; a pair that
    # round-off puts a few ulps over a fully spent budget must pass the
    # step's budget check
    worst = fejer = -np.inf
    spent = over = 0
    for seed, (prob, sc) in enumerate(instance_family()):
        if seed % 2:
            continue
        ref = solve(prob, sc, schedule=SCHEDULE, stop=StopRule(tol=1e-11))
        z_star = ref.state.z
        for rho, w_star in itertools.product(
                (0.0, 0.5, 1.0), (None, sc.Q @ ref.state.x)):
            res = tracked_solve(prob, sc, schedule=SCHEDULE,
                                policy=WorstCasePolicy(z_star, rho, w_star),
                                stop=StopRule(tol=1e-8, max_iter=20000),
                                record_states=True)
            assert res.converged, (seed, rho, w_star is None)
            tr = res.trajectory
            run_worst, run_fejer = _fejer_violations(tr, z_star)
            worst, fejer = max(worst, run_worst), max(fejer, run_fejer)
            budgets = np.asarray(tr.xi) * np.asarray(tr.l2)
            used = np.asarray(tr.budget_used)
            spent += int(np.count_nonzero(
                (budgets > 0.0) & (np.abs(used - budgets) <= 1e-12 * budgets)))
            over += int(np.count_nonzero(used > budgets))
    assert worst <= 1e-9 and fejer <= 1e-9, (worst, fejer)
    assert spent > 10000 and over > 0, (spent, over)


def test_criterion_4_termination_properties():
    t0 = time.perf_counter()
    worst = termination_workload()
    dt = time.perf_counter() - t0
    ok = (worst["l2"] < 1e-12 and worst["tail"] < 1e-10
          and worst["spread"] < 1e-7 and worst["dz"] < 1e-7)
    _report(4, ok and dt < 30.0,
            f"at tol 1e-8 on 50 instances: l2 {worst['l2']:.1e} < 1e-12, "
            f"last-100 sum {worst['tail']:.1e} < 1e-10, spread "
            f"{worst['spread']:.1e} < 1e-7, |dz| {worst['dz']:.1e} < 1e-7 "
            f"({dt:.1f}s)")


class _Overspender(ZeroPolicy):
    def produce(self, window, budget, gamma_next, theta, lipschitz):
        u, v = super().produce(window, budget, gamma_next, theta, lipschitz)
        return u, v + 1.0


def test_criterion_5_budget_feasibility():
    dr_equivalence_workload()
    fejer_workload()
    termination_workload()
    # the assert is live: an over-budget policy must be rejected outright
    f1 = affine_monotone(np.eye(1), -np.ones(1))
    f2 = affine_monotone(np.eye(1), np.ones(1))
    with pytest.raises(BudgetViolationError):
        solve(Problem((f1, f2), dim=1), douglas_rachford(gamma=1.0),
              schedule=ParamSchedule(gamma=0.5, xi=0.5),
              policy=_Overspender(), stop=StopRule(max_iter=5))
    ok = AUDIT["budget_violations"] == 0 and AUDIT["budget_rows"] > 10000
    _report(5, ok,
            f"0 budget violations across {AUDIT['budget_rows']} audited "
            f"iterations in {AUDIT['runs']} runs; over-budget policy "
            f"raises immediately")


def test_criterion_6_frugality():
    dr_equivalence_workload()
    fejer_workload()
    termination_workload()
    ok = AUDIT["counter_mismatches"] == 0 and AUDIT["counter_rows"] > 10000
    _report(6, ok,
            f"every one of {AUDIT['counter_rows']} audited iterations used "
            f"exactly n resolvent and m forward evaluations")


def test_criterion_7_prox_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        lam = float(rng.uniform(0.05, 10.0))
        c = float(rng.normal() * 3.0)
        s = float(rng.normal() * 3.0)
        got = prox_shifted_l1(lam, c, s)
        ref = prox_1d(lambda w: abs(w - c), lam, s)
        worst = max(worst, abs(float(got) - ref))
        got = prox_shifted_power32(lam, c, s)
        ref = prox_1d(lambda w: abs(w - c) ** 1.5, lam, s)
        worst = max(worst, abs(float(got) - ref))
        y = rng.normal(size=int(rng.integers(1, 21))) * 2.0
        diff = project_simplex(y) - project_simplex_kkt(y)
        worst = max(worst, float(np.abs(diff).max()))
    dt = time.perf_counter() - t0
    _report(7, worst <= 1e-6 and dt < 5.0,
            f"prox and projection match golden-section/KKT oracles on 1000 "
            f"inputs each, worst gap {worst:.2e} <= 1e-6 ({dt:.1f}s)")


def test_criterion_8_markowitz_oracle_agreement():
    t0 = time.perf_counter()
    plan = [(0, 5), (1, 5), (2, 5), (3, 5), (4, 20), (5, 20), (6, 20),
            (7, 53), (8, 53), (9, 53)]
    worst_feas = worst_err = 0.0
    for seed, p in plan:
        data = synthetic_instance(seed=seed, days=200, assets=p)
        Lam, r = estimate_moments(data)
        mp = MarkowitzProblem(Lam, r, 6.0, sample_simplex(p, seed=seed))
        prob = build_problem(mp)
        sc = chain_fb(3, 2, prob.lipschitz, scale=portfolio_chain_scale(p))
        res = tracked_solve(prob, sc, schedule=SCHEDULE,
                            stop=StopRule(tol=1e-8))
        assert res.converged
        x = res.x
        feas = max(float(np.maximum(-x, 0.0).max()),
                   abs(float(x.sum()) - 1.0))
        err = float(np.linalg.norm(
            x - markowitz_reference(mp.Lambda, mp.r, mp.delta, mp.x0)))
        worst_feas = max(worst_feas, feas)
        worst_err = max(worst_err, err)
    dt = time.perf_counter() - t0
    _report(8, worst_feas <= 1e-10 and worst_err <= 1e-6 and dt < 60.0,
            f"10 instances (p in 5/20/53): feasibility {worst_feas:.1e} "
            f"<= 1e-10, oracle distance {worst_err:.2e} <= 1e-6 ({dt:.1f}s)")


def test_criterion_9_deviation_benefit():
    t0 = time.perf_counter()
    data = synthetic_instance(seed=0, days=200, assets=53)

    def grid(policies, seeds):
        # one run_grid call shares each seed's reference between policies
        reports = run_grid(data, cases=[1], policies=policies, seeds=seeds)
        for rep in reports:
            if isinstance(rep, Exception):
                raise rep
        return reports

    betas = (0.2, 0.3, 0.4, 0.5)
    tuning = grid([f"momentum:beta={b},rho=0.05" for b in betas], [777])
    held_out = [rep.iterations[0] for rep in tuning]
    beta = betas[held_out.index(min(held_out))]
    zero, mom = grid(["zero", f"momentum:beta={beta},rho=0.05"], range(50))
    wins = sum(m < z for m, z in zip(mom.iterations, zero.iterations))
    dt = time.perf_counter() - t0
    _report(9, wins >= 30 and dt < 120.0,
            f"momentum (beta={beta} tuned on held-out seed) beats zero "
            f"policy on {wins}/50 seeds (need >= 30); mean "
            f"{zero.mean_iters:.1f} -> {mom.mean_iters:.1f} ({dt:.1f}s)")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    run_cfg = {
        "problem": {"kind": "markowitz",
                    "data": {"synthetic": {"seed": 2, "days": 60,
                                           "assets": 5}},
                    "x0_seed": 1},
        "schedule": {"gamma": 0.9, "xi": 0.9},
        "policy": "randball:seed=11",
        "stop": {"tol": 1e-8},
    }
    exp_cfg = {
        "data": {"synthetic": {"seed": 0, "days": 60, "assets": 5}},
        "grid": {"cases": [1], "schemes": ["chain_fb"],
                 "policies": ["zero", "momentum:beta=0.35,rho=0.05"]},
        "seeds": {"count": 2, "start": 0},
    }
    blobs = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        root.mkdir()
        for name, cfg in (("run", run_cfg), ("exp", exp_cfg)):
            cfg = dict(cfg)
            cfg["output_dir"] = str(root / name)
            path = root / f"{name}.json"
            path.write_text(json.dumps(cfg))
            code = cli_main([("solve" if name == "run" else "experiment"),
                             str(path)])
            assert code == 0
        blob = {}
        for sub in ("run", "exp"):
            for f in sorted((root / sub).iterdir()):
                blob[f"{sub}/{f.name}"] = f.read_bytes()
        blobs.append(blob)
    identical = blobs[0] == blobs[1]
    dt = time.perf_counter() - t0
    _report(10, identical,
            f"repeated solve and experiment runs produced byte-identical "
            f"artifacts ({len(blobs[0])} files compared, {dt:.1f}s)")
