"""Portfolio experiment: ingestion, moments, splitting, seeds, references."""

import json

import numpy as np
import pytest

from splitdev import (
    CsvParseError,
    InvalidInputError,
    MarketData,
    MarkowitzProblem,
    OracleFailureError,
    ParamSchedule,
    ShapeError,
    StopRule,
    build_problem,
    chain_fb,
    compute_stepsizes,
    davis_yin,
    estimate_cocoercivity,
    estimate_moments,
    load_returns_csv,
    objective,
    portfolio_chain_scale,
    prox_shifted_l1,
    prox_shifted_power32,
    run_experiment,
    run_grid,
    sample_simplex,
    shift_window,
    solve,
    synthetic_instance,
)
from splitdev import markowitz
from splitdev.solver import SolverState, step
from splitdev.deviations import (
    MomentumPolicy,
    RandomBallPolicy,
    ZeroPolicy,
    parse_policy,
)
from splitdev.scheme import _integer, _positive

from oracles import markowitz_reference


def write(tmp_path, text, name="returns.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_returns_csv_basic(tmp_path):
    path = write(tmp_path, "0.01,0.02\n0.00,-0.01\n0.02,0.01\n")
    data = load_returns_csv(path)
    assert data.days == 3 and data.assets == 2
    np.testing.assert_allclose(data.returns[1], [0.0, -0.01])


def test_load_returns_csv_skips_header_and_blanks(tmp_path):
    path = write(tmp_path, "alpha,beta\n\n0.1,0.2\n0.3,0.4\n")
    data = load_returns_csv(path)
    assert data.days == 2


@pytest.mark.parametrize("header", ["", "alpha,beta\n"],
                         ids=["no-header", "header"])
def test_load_returns_csv_reads_past_a_byte_order_mark(tmp_path, header):
    # a spreadsheet's UTF-8 export may begin with U+FEFF; no row is lost
    path = tmp_path / "returns.csv"
    text = "\ufeff" + header + "0.01,0.02\n0.00,-0.01\n0.02,0.01\n"
    path.write_bytes(text.encode("utf-8"))
    data = load_returns_csv(path)
    assert data.days == 3
    np.testing.assert_array_equal(data.returns[0], [0.01, 0.02])


def test_load_returns_csv_empty_file(tmp_path):
    with pytest.raises(InvalidInputError):
        load_returns_csv(write(tmp_path, ""))


def test_load_returns_csv_single_row(tmp_path):
    with pytest.raises(InvalidInputError):
        load_returns_csv(write(tmp_path, "0.1,0.2\n"))


def test_run_grid_refuses_returns_whose_moments_overflow():
    # tier-1 turns numpy's overflow warning into an error that no cell catches
    data = synthetic_instance(seed=0, days=60, assets=4)
    [outcome] = run_grid(MarketData(data.returns * 1e160), seeds=[0])
    assert isinstance(outcome, InvalidInputError)
    assert str(outcome) == "returns too large: their moments are not finite"


def test_load_returns_csv_ragged_row_reports_line(tmp_path):
    path = write(tmp_path, "0.1,0.2\n0.1,0.2,0.3\n0.1,0.2\n")
    with pytest.raises(CsvParseError) as exc:
        load_returns_csv(path)
    assert exc.value.line == 2


def test_load_returns_csv_non_numeric_cell(tmp_path):
    path = write(tmp_path, "0.1,0.2\n0.1,oops\n")
    with pytest.raises(CsvParseError) as exc:
        load_returns_csv(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_returns_csv_non_finite_cell(tmp_path, cell):
    path = write(tmp_path, f"a,b\n0.1,0.2\n0.1,{cell}\n")
    with pytest.raises(CsvParseError, match="non-finite") as exc:
        load_returns_csv(path)
    assert exc.value.line == 3


def test_market_data_rejects_non_finite():
    with pytest.raises(CsvParseError):
        MarketData(np.array([[0.1], [np.inf]]))


def test_estimate_moments_constant_returns():
    Lam, r = estimate_moments(MarketData(np.full((5, 3), 0.07)))
    np.testing.assert_allclose(Lam, np.zeros((3, 3)), atol=1e-18)
    np.testing.assert_allclose(r, np.full(3, 0.07))


def test_estimate_moments_anticorrelated_unit_variance():
    # 4-day series scaled so the 1/(T-1) variance is exactly 1
    a = np.sqrt(3.0) / 2.0 * np.array([1.0, -1.0, 1.0, -1.0])
    Lam, r = estimate_moments(MarketData(np.column_stack([a, -a])))
    np.testing.assert_allclose(r, [0.0, 0.0], atol=1e-16)
    np.testing.assert_allclose(Lam, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)


def test_estimate_moments_single_asset():
    Lam, r = estimate_moments(MarketData(np.array([[0.0], [2.0]])))
    assert r[0] == pytest.approx(1.0)
    assert Lam[0, 0] == pytest.approx(2.0)


def test_estimate_moments_symmetry_and_psd():
    data = synthetic_instance(seed=8, days=60, assets=12)
    Lam, _ = estimate_moments(data)
    assert np.abs(Lam - Lam.T).max() <= 1e-14
    assert np.linalg.eigvalsh(Lam)[0] >= -1e-10


def test_shift_window_reuses_tail():
    R = np.arange(10.0).reshape(5, 2)
    shifted = shift_window(MarketData(R), shift=2)
    assert shifted.days == 5
    np.testing.assert_array_equal(shifted.returns[:3], R[2:])
    np.testing.assert_array_equal(shifted.returns[3:], R[-2:])
    for bad in (0, 5, -1):
        with pytest.raises(InvalidInputError):
            shift_window(MarketData(R), shift=bad)


def test_sample_simplex():
    x = sample_simplex(7, seed=123)
    assert x.shape == (7,)
    assert np.all(x >= 0)
    assert x.sum() == pytest.approx(1.0)
    np.testing.assert_array_equal(x, sample_simplex(7, seed=123))
    assert not np.array_equal(x, sample_simplex(7, seed=124))
    for p in ("7", 7.0):  # read as an integer, as every count is
        np.testing.assert_array_equal(x, sample_simplex(p, seed=123))


def test_synthetic_instance_seed_defaults_to_zero():
    np.testing.assert_array_equal(synthetic_instance().returns,
                                  synthetic_instance(seed=0).returns)


def test_synthetic_instance_deterministic_and_sized():
    a = synthetic_instance(seed=3)
    b = synthetic_instance(seed=3)
    np.testing.assert_array_equal(a.returns, b.returns)
    assert a.days == 200 and a.assets == 53
    with pytest.raises(InvalidInputError):
        synthetic_instance(seed=0, days=1)


def test_markowitz_problem_validation():
    eye = np.eye(2)
    ok = MarkowitzProblem(eye, np.zeros(2), 6.0, np.zeros(2))
    assert ok.assets == 2
    with pytest.raises(InvalidInputError):
        MarkowitzProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2),
                         6.0, np.zeros(2))
    with pytest.raises(InvalidInputError):
        MarkowitzProblem(-eye, np.zeros(2), 6.0, np.zeros(2))
    with pytest.raises(InvalidInputError):
        MarkowitzProblem(eye, np.zeros(2), 0.0, np.zeros(2))
    with pytest.raises(ShapeError):
        MarkowitzProblem(eye, np.zeros(3), 6.0, np.zeros(2))
    # asymmetry within round-off is accepted, and the symmetric part kept
    Lam = np.array([[2.0, 1.0 + 2.0 ** -52], [1.0, 2.0]])
    kept = MarkowitzProblem(Lam, np.zeros(2), 6.0, np.zeros(2)).Lambda
    np.testing.assert_array_equal(kept, kept.T)
    np.testing.assert_array_equal(kept, 0.5 * (Lam + Lam.T))


def test_build_problem_wiring():
    mp = MarkowitzProblem(np.eye(2), np.zeros(2), 6.0, np.zeros(2))
    prob = build_problem(mp)
    assert prob.n == 3 and prob.m == 2 and prob.dim == 2
    x = np.array([0.3, -0.2])
    np.testing.assert_allclose(prob.B[0].eval(x), x)
    np.testing.assert_allclose(prob.B[1].eval(x), 6.0 * x)
    np.testing.assert_allclose(prob.lipschitz, [1.0, 6.0])
    # simplex resolvent ignores the stepsize
    np.testing.assert_allclose(prob.F[2].resolvent(0.37, np.ones(2)),
                               [0.5, 0.5])


def test_resolvents_check_their_input_and_keep_x0():
    x0 = np.array([0.25, 0.75])
    prob = build_problem(MarkowitzProblem(np.eye(2), np.zeros(2), 6.0, x0))
    x0[:] = np.nan  # the problem keeps its own copy, checked once
    for op, prox in zip(prob.F, (prox_shifted_l1, prox_shifted_power32)):
        y = np.array([0.4, 2.0])
        assert np.array_equal(op.resolvent(0.3, y),
                              prox(0.3, [0.25, 0.75], y))
    for op in prob.F:
        for d, y in ((0.3, [0.1, np.inf]), (0.0, [0.1, 0.2]),
                     (np.nan, [0.1, 0.2])):
            if op.label == "simplex" and d != 0.3:
                continue  # the projection ignores the stepsize
            with pytest.raises(InvalidInputError):
                op.resolvent(d, np.array(y))


def test_one_step_costs_three_resolvents_two_forwards():
    mp = MarkowitzProblem(np.eye(2), np.zeros(2), 6.0, np.zeros(2))
    prob = build_problem(mp)
    sc = chain_fb(3, 2, prob.lipschitz, scale=portfolio_chain_scale(2))
    st = SolverState(k=0, z=np.zeros((2, 2)), x=None, u=np.zeros((2, 2)),
                     v=np.zeros((2, 2)), l2=0.0, gamma=0.9, xi=0.9)
    nxt = step(prob, sc, st, ParamSchedule(), ZeroPolicy())
    assert nxt.resolvent_calls == 3
    assert nxt.forward_calls == 2


def test_portfolio_chain_scale_grows_with_dimension():
    assert portfolio_chain_scale(4) == pytest.approx(28.0)
    scales = [portfolio_chain_scale(p) for p in (5, 20, 53)]
    assert all(s > 0 for s in scales)
    assert scales == sorted(scales)


def solve_instance(seed=1, assets=5, policy=None, tol=1e-10):
    data = synthetic_instance(seed=seed, days=80, assets=assets)
    Lam, r = estimate_moments(data)
    mp = MarkowitzProblem(Lam, r, 6.0, sample_simplex(assets, seed=seed))
    prob = build_problem(mp)
    sc = chain_fb(3, 2, prob.lipschitz,
                  scale=portfolio_chain_scale(assets))
    res = solve(prob, sc, schedule=ParamSchedule(gamma=0.9, xi=0.9),
                policy=policy, stop=StopRule(tol=tol))
    return mp, res


def test_solution_feasible_and_matches_gradient_oracle():
    mp, res = solve_instance(seed=2)
    assert res.converged
    x = res.x
    assert np.all(x >= -1e-10)
    assert abs(x.sum() - 1.0) <= 1e-10
    x_star = markowitz_reference(mp.Lambda, mp.r, mp.delta, mp.x0)
    assert np.linalg.norm(x - x_star) <= 1e-6


def test_objective_never_worse_than_start():
    mp, res = solve_instance(seed=4)
    assert objective(mp, res.x) <= objective(mp, mp.x0) + 1e-9


def test_run_experiment_case1_small():
    data = synthetic_instance(seed=0, days=80, assets=5)
    rep = run_experiment(data, policy="zero", case=1, seeds=range(3))
    assert rep.case == 1
    assert rep.scheme == "chain_fb"
    assert rep.policy == "zero"
    assert rep.seeds == [0, 1, 2]
    assert all(rec.trajectory.dist_to_ref[-1] < 1e-8 for rec in rep.records)
    assert all(it > 0 for it in rep.iterations)
    assert rep.mean_iters == pytest.approx(np.mean(rep.iterations))
    summary = rep.summary_dict()
    assert summary["case"] == 1 and summary["tol"] == 1e-8


def test_run_experiment_case2_rebalances():
    data = synthetic_instance(seed=0, days=80, assets=5)
    rep = run_experiment(data, policy="zero", case=2, seeds=[1])
    assert rep.case == 2
    assert rep.records[0].trajectory.dist_to_ref[-1] < 1e-8


def test_run_experiment_momentum_converges():
    data = synthetic_instance(seed=0, days=80, assets=5)
    rep = run_experiment(data, policy="momentum:beta=0.35,rho=0.05",
                         case=1, seeds=[0, 1])
    assert all(rec.trajectory.dist_to_ref[-1] < 1e-8 for rec in rep.records)
    assert rep.policy.startswith("momentum")


def test_run_experiment_validates_arguments():
    data = synthetic_instance(seed=0, days=40, assets=4)
    with pytest.raises(InvalidInputError):
        run_experiment(data, case=3, seeds=[0])
    with pytest.raises(InvalidInputError):
        run_experiment(data, case=1, seeds=[])


GRID_POLICIES = ["zero", "momentum:beta=0.35,rho=0.05", "randball:seed=3"]


def test_run_grid_solves_each_reference_once(monkeypatch):
    data = synthetic_instance(seed=0, days=60, assets=4)
    kinds = []
    original = markowitz.solve

    def counting_solve(*args, stop=None, **kwargs):
        kinds.append("reference" if stop.reference is None else "policy")
        return original(*args, stop=stop, **kwargs)

    monkeypatch.setattr(markowitz, "solve", counting_solve)
    reports = run_grid(data, cases=[1, 2], policies=GRID_POLICIES,
                       seeds=[0, 1], ref_tol=1e-10)
    assert len(reports) == 6
    # one reference per (case, seed); case 2 presolves from the case-1 one
    assert kinds.count("reference") == 4
    assert kinds.count("policy") == 12


def _case2_iterations_from_scratch(data, policy, seed, ref_tol):
    """One case-2 run spelled out: presolve, reference, policy solve."""
    def chain_solve(moments, x0, tol, policy=None, reference=None):
        prob = build_problem(MarkowitzProblem(*moments, 6.0, x0))
        sc = chain_fb(3, 2, prob.lipschitz,
                      scale=portfolio_chain_scale(data.assets))
        return solve(prob, sc, schedule=ParamSchedule(gamma=0.9, xi=0.9),
                     policy=policy,
                     stop=StopRule(tol=tol, reference=reference))

    x0 = chain_solve(estimate_moments(data),
                     sample_simplex(data.assets, seed), ref_tol).x
    late = estimate_moments(shift_window(data))
    x_ref = chain_solve(late, x0, ref_tol).x
    return chain_solve(late, x0, 1e-8, parse_policy(policy), x_ref).iterations


def test_run_grid_matches_run_experiment_per_cell():
    data = synthetic_instance(seed=0, days=60, assets=4)
    reports = run_grid(data, cases=[1, 2], policies=GRID_POLICIES,
                       seeds=[0, 1], ref_tol=1e-10)
    cells = [(case, policy) for case in (1, 2) for policy in GRID_POLICIES]
    for (case, policy), rep in zip(cells, reports):
        alone = run_experiment(data, policy=policy, case=case, seeds=[0, 1],
                               ref_tol=1e-10)
        assert (rep.case, rep.scheme, rep.policy) == \
            (alone.case, alone.scheme, alone.policy)
        assert rep.iterations == alone.iterations
        for got, want in zip(rep.records, alone.records):
            assert got.trajectory.to_csv_text() == \
                want.trajectory.to_csv_text()
    momentum_case2 = reports[4]
    assert momentum_case2.iterations == [
        _case2_iterations_from_scratch(data, GRID_POLICIES[1], seed, 1e-10)
        for seed in (0, 1)]


@pytest.mark.parametrize("delta", [-1.0, 0.0, np.nan, np.inf])
def test_run_grid_rejects_bad_delta_before_any_cell(monkeypatch, delta):
    calls = []
    monkeypatch.setattr(markowitz, "solve",
                        lambda *a, **k: calls.append(1))
    data = synthetic_instance(seed=0, days=60, assets=4)
    with pytest.raises(InvalidInputError, match="delta"):
        run_grid(data, cases=[1, 2], policies=["zero"], seeds=[0],
                 delta=delta)
    assert calls == []


@pytest.mark.parametrize("theta", [-1.0, 0.0, np.nan, np.inf])
def test_run_grid_rejects_bad_theta_before_any_cell(monkeypatch, theta):
    calls = []
    monkeypatch.setattr(markowitz, "solve",
                        lambda *a, **k: calls.append(1))
    data = synthetic_instance(seed=0, days=60, assets=4)
    with pytest.raises(InvalidInputError, match="theta"):
        run_grid(data, cases=[1, 2], policies=["zero"], seeds=[0],
                 theta=theta)
    with pytest.raises(InvalidInputError, match="theta"):
        run_experiment(data, seeds=[0], theta=theta)
    assert calls == []


@pytest.mark.parametrize("option,message", [
    ({"tol": np.nan}, "^tol must not be NaN"),
    ({"ref_tol": np.nan}, "^ref_tol must not be NaN"),
    ({"max_iter": 0}, "^max_iter must be at least 1"),
    ({"max_iter": 2.5}, "^max_iter must be an integer"),
], ids=["tol", "ref_tol", "max_iter-0", "max_iter-fraction"])
def test_run_grid_rejects_bad_stop_before_any_cell(monkeypatch, option,
                                                   message):
    calls = []
    monkeypatch.setattr(markowitz, "solve",
                        lambda *a, **k: calls.append(1))
    data = synthetic_instance(seed=0, days=60, assets=4)
    with pytest.raises(InvalidInputError, match=message):
        run_grid(data, cases=[1, 2], policies=["zero"], seeds=[0], **option)
    with pytest.raises(InvalidInputError, match=message):
        run_experiment(data, seeds=[0], **option)
    assert calls == []


def test_run_grid_rejects_empty_seeds_before_any_cell(monkeypatch):
    calls = []
    monkeypatch.setattr(markowitz, "solve",
                        lambda *a, **k: calls.append(1))
    data = synthetic_instance(seed=0, days=60, assets=4)
    with pytest.raises(InvalidInputError,
                       match="^need at least one seed$"):
        run_grid(data, [1, 2], ["zero"], [])
    with pytest.raises(InvalidInputError,
                       match="^need at least one seed$"):
        run_experiment(data, seeds=[])
    assert calls == []


@pytest.mark.parametrize("axis,values,alone,error,message", [
    ("cases", [True], {"case": True}, InvalidInputError,
     "^case must be an integer, got True$"),
    ("seeds", [True], {"seeds": [True]}, InvalidInputError,
     "^seed must be an integer, got True$"),
    ("seeds", [0.5], {"seeds": [0.5]}, InvalidInputError,
     "^seed must be an integer, got 0.5$"),
    ("cases", [], None, InvalidInputError, "^need at least one case$"),
    ("policies", [], None, InvalidInputError,
     "^need at least one policy$"),
    ("cases", "12", None, InvalidInputError,
     "^the case axis must be a list of values, got '12'$"),
    ("seeds", "01", {"seeds": "01"}, InvalidInputError,
     "^the seed axis must be a list of values, got '01'$"),
    ("policies", "zero", None, InvalidInputError,
     "^the policy axis must be a list of values, got 'zero'$"),
    ("cases", 1, None, InvalidInputError,
     "^the case axis must be a list of values, got 1$"),
    ("seeds", {0: 1}, {"seeds": {0: 1}}, InvalidInputError,
     "^the seed axis must be a list of values, got {0: 1}$"),
    ("seeds", b"01", {"seeds": b"01"}, InvalidInputError,
     "^the seed axis must be a list of values, got b'01'$"),
    ("seeds", [-1], {"seeds": [-1]}, InvalidInputError,
     "^seed must be at least 0, got -1$"),
    ("cases", [None], {"case": None}, InvalidInputError,
     "^case must be a number, got None$"),
], ids=["case-bool", "seed-bool", "seed-fraction", "no-case", "no-policy",
        "case-string", "seed-string", "policy-string", "case-scalar",
        "seed-mapping", "seed-bytes", "seed-negative", "case-none"])
def test_run_grid_rejects_bad_axis_before_any_cell(monkeypatch, axis, values,
                                                   alone, error, message):
    calls = []
    monkeypatch.setattr(markowitz, "solve",
                        lambda *a, **k: calls.append(1))
    data = synthetic_instance(seed=0, days=60, assets=4)
    grid = {"cases": [1, 2], "policies": ["zero"], "seeds": [0],
            axis: values}
    with pytest.raises(error, match=message):
        run_grid(data, **grid)
    if alone is not None:  # run_experiment has this axis
        with pytest.raises(error, match=message):
            run_experiment(data, **{"seeds": [0], **alone})
    assert calls == []


@pytest.mark.parametrize("axis,given,read", [
    ("cases", [1.0], [1]), ("seeds", ["3"], [3]),
    ("cases", np.array([1]), [1])], ids=["case", "seed", "case-array"])
def test_run_grid_reads_integral_cases_and_seeds(axis, given, read):
    data = synthetic_instance(seed=0, days=60, assets=4)
    [got], [want] = (run_grid(data, **{"cases": [1], "seeds": [0],
                                       axis: values})
                     for values in (given, read))
    # json.dumps tells a case of 1.0 from 1
    assert json.dumps(got.summary_dict()) == json.dumps(want.summary_dict())
    assert [rec.trajectory.to_csv_text() for rec in got.records] == \
        [rec.trajectory.to_csv_text() for rec in want.records]


@pytest.mark.parametrize("spec,message", [
    ("bogus", "^unknown policy 'bogus'$"),
    ("momentum:beta=2", "^bad policy parameter: beta must lie in"),
], ids=["unknown", "beta"])
def test_run_grid_rejects_bad_policy_before_any_cell(monkeypatch, spec,
                                                     message):
    calls = []
    monkeypatch.setattr(markowitz, "solve",
                        lambda *a, **k: calls.append(1))
    data = synthetic_instance(seed=0, days=60, assets=4)
    with pytest.raises(InvalidInputError, match=message):
        run_grid(data, cases=[1, 2], policies=["zero", spec], seeds=[0])
    with pytest.raises(InvalidInputError, match=message):
        run_experiment(data, policy=spec, seeds=[0])
    assert calls == []


def test_run_grid_names_itself_for_an_unknown_option(monkeypatch):
    calls = []
    monkeypatch.setattr(markowitz, "solve",
                        lambda *a, **k: calls.append(1))
    data = synthetic_instance(seed=0, days=60, assets=4)
    message = (r"^run_grid\(\) got an unexpected keyword argument "
               r"'max_iters'$")
    with pytest.raises(TypeError, match=message):
        run_grid(data, [1], ["zero"], [0], max_iters=5)
    with pytest.raises(TypeError, match=message):
        run_experiment(data, seeds=[0], max_iters=5)
    assert calls == []


def test_run_grid_reports_failed_reference_on_every_cell():
    data = synthetic_instance(seed=0, days=60, assets=4)
    reports = run_grid(data, cases=[1, 2], policies=["zero", "momentum"],
                       seeds=[0, 1], max_iter=5)
    assert len(reports) == 4
    assert all(isinstance(rep, OracleFailureError) for rep in reports)
    with pytest.raises(OracleFailureError) as alone:
        run_experiment(data, case=2, seeds=[0, 1], max_iter=5)
    assert {str(rep) for rep in reports} == {str(alone.value)}


def test_censored_policy_run_fails_its_cell():
    # momentum converges to x*, not to the 1e-6 reference, and hits max_iter
    data = synthetic_instance(seed=0, days=60, assets=4)
    options = dict(seeds=[0, 1], ref_tol=1e-6, max_iter=3000)
    zero = run_experiment(data, policy="zero", **options)
    assert [rec.trajectory.dist_to_ref[-1] < 1e-8
            for rec in zero.records] == [True, True]
    with pytest.raises(OracleFailureError, match="seed 0: policy run hit "
                       "max_iter = 3000"):
        run_experiment(data, policy="momentum:beta=0.35,rho=0.05", **options)


@pytest.mark.parametrize("days,assets,factors", [
    (60.0, 4, 3), (60, 4.0, 3.0)])
def test_synthetic_instance_reads_integral_floats(days, assets, factors):
    np.testing.assert_array_equal(
        synthetic_instance(1, days, assets, factors).returns,
        synthetic_instance(1, 60, 4, 3).returns)


@pytest.mark.parametrize("refuse,error", [
    (lambda: MarketData(np.ones(3)), ShapeError),
    (lambda: estimate_moments(MarketData(np.ones((1, 3)))),
     InvalidInputError),
    (lambda: MarkowitzProblem(np.ones((2, 3)), np.zeros(2), 1.0,
                              np.full(2, 0.5)), ShapeError),
    (lambda: MarkowitzProblem(np.eye(2), np.array([0.0, np.nan]), 1.0,
                              np.full(2, 0.5)), InvalidInputError),
    (lambda: MarkowitzProblem(np.eye(2), np.zeros(2), 0.0, np.full(2, 0.5)),
     InvalidInputError),
    (lambda: synthetic_instance(0.5), InvalidInputError),
    (lambda: synthetic_instance(0, days=True), InvalidInputError),
], ids=["returns-1d", "one-row", "lambda-not-square", "nan-r", "delta-zero",
        "fractional-seed", "boolean-days"])
def test_markowitz_refusals(refuse, error):
    with pytest.raises(error):
        refuse()


@pytest.mark.parametrize("read,error,message", [
    (lambda: _integer(None, "x"), InvalidInputError,
     "^x must be a number, got None$"),
    (lambda: _integer("abc", "seed"), InvalidInputError,
     "^seed must be a number, got 'abc'$"),
    (lambda: _positive("abc", "delta"),
     InvalidInputError, "^delta must be a number, got 'abc'$"),
    (lambda: StopRule(tol="abc"), InvalidInputError,
     "^tol must be a number, got 'abc'$"),
    (lambda: markowitz._Builder(None, ref_tol="abc"), InvalidInputError,
     "^ref_tol must be a number, got 'abc'$"),
    (lambda: ParamSchedule(gamma="abc"), InvalidInputError,
     "^gamma must be a number, got 'abc'$"),
    (lambda: ParamSchedule(xi=None), InvalidInputError,
     "^xi must be a number, got None$"),
    (lambda: MomentumPolicy(beta="abc"), InvalidInputError,
     "^beta must be a number, got 'abc'$"),
    (lambda: synthetic_instance(seed=-1), InvalidInputError,
     "^seed must be at least 0, got -1$"),
    (lambda: synthetic_instance(0, factors=-1), InvalidInputError,
     "^factors must be at least 0, got -1$"),
    (lambda: sample_simplex(3, -1), InvalidInputError,
     "^seed must be at least 0, got -1$"),
    (lambda: RandomBallPolicy(seed=-1), InvalidInputError,
     "^seed must be at least 0, got -1$"),
    (lambda: shift_window(synthetic_instance(0, days=30, assets=2), 1.5),
     InvalidInputError, "^shift must be an integer, got 1.5$"),
    (lambda: shift_window(synthetic_instance(0, days=30, assets=2), True),
     InvalidInputError, "^shift must be an integer, got True$"),
    (lambda: sample_simplex(-1, 0), InvalidInputError,
     "^p must be at least 1, got -1$"),
    (lambda: sample_simplex(0, 0), InvalidInputError,
     "^p must be at least 1, got 0$"),
    (lambda: sample_simplex(2.5, 0), InvalidInputError,
     "^p must be an integer, got 2.5$"),
    (lambda: sample_simplex("three", 0), InvalidInputError,
     "^p must be a number, got 'three'$"),
    (lambda: MarkowitzProblem(np.zeros((0, 0)), np.zeros(0), 1.0,
                              np.zeros(0)),
     ShapeError, "^Lambda must not be empty$"),
    # one class for a bad value, whether it is no number or out of range
    (lambda: markowitz._Builder(None, delta=0.0), InvalidInputError,
     "^delta must be positive$"),
    (lambda: MarkowitzProblem(np.eye(2), np.zeros(2), -1.0, np.full(2, 0.5)),
     InvalidInputError, "^delta must be positive$"),
    (lambda: chain_fb(3, 0, scale=0.0), InvalidInputError,
     "^scale must be positive$"),
    (lambda: run_experiment(synthetic_instance(0, days=30, assets=2),
                            case=3, seeds=[0]),
     InvalidInputError, "^case must be 1 or 2, got 3$"),
    (lambda: synthetic_instance(0, days=1), InvalidInputError,
     "^need days >= 2 and assets >= 1$"),
    (lambda: shift_window(synthetic_instance(0, days=30, assets=2), 30),
     InvalidInputError, r"^shift must lie in \(0, 30\), got 30$"),
    (lambda: MarkowitzProblem(np.array([[np.nan, 0.0], [0.0, 1.0]]),
                              np.zeros(2), 1.0, np.full(2, 0.5)),
     InvalidInputError, "^non-finite model data$"),
    (lambda: MarkowitzProblem(-np.eye(2), np.zeros(2), 1.0, np.full(2, 0.5)),
     InvalidInputError,
     r"^Lambda must be positive semidefinite \(lambda_min = -1.000e\+00\)$"),
    # a value outside the paper's admissible set: no L, no stepsize, no data
    (lambda: estimate_cocoercivity(np.zeros((2, 2))), InvalidInputError,
     "^zero matrix has no spectral scale$"),
    (lambda: build_problem(MarkowitzProblem(np.zeros((2, 2)), np.zeros(2),
                                            1.0, np.full(2, 0.5))),
     InvalidInputError,
     "^Lambda is zero: the risk gradient has no cocoercivity constant$"),
    (lambda: compute_stepsizes(np.diag([1.0, 0.0])), InvalidInputError,
     r"^S\[1,1\] = 0.0 gives no positive stepsize$"),
    (lambda: davis_yin(2.0, 1.0, [2.0]), InvalidInputError,
     "^gamma = 2.0 too large for L_1 = 2.0: no positive coupling$"),
    (lambda: estimate_moments(MarketData(np.ones((1, 3)))), InvalidInputError,
     "^need at least 2 rows to estimate moments$"),
    (lambda: estimate_moments(MarketData(
        synthetic_instance(0, days=30, assets=2).returns * 1e160)),
     InvalidInputError, "^returns too large: their moments are not finite$"),
], ids=["integer-none", "integer-text", "positive-text", "tol-text",
        "ref-tol-text", "gamma-text", "xi-none", "beta-text",
        "seed-negative", "factors-negative", "simplex-seed-negative",
        "randball-seed-negative", "shift-fraction", "shift-bool",
        "simplex-p-negative", "simplex-p-zero", "simplex-p-fraction",
        "simplex-p-text", "lambda-empty", "builder-delta-zero",
        "problem-delta-negative", "scale-zero", "case-three", "days-one",
        "shift-out-of-range", "lambda-non-finite", "lambda-indefinite",
        "zero-matrix", "lambda-zero", "stepsize-zero", "gamma-too-large",
        "one-row-returns", "moments-overflow"])
def test_value_readers_raise_the_package_error(read, error, message):
    # never the TypeError or ValueError of float() or numpy themselves
    with pytest.raises(error, match=message):
        read()
