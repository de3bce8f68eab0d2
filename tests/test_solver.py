"""Iteration engine: stepping, budgets, termination, instrumentation."""

import numpy as np
import pytest

import splitdev as sd
from splitdev import (
    BudgetViolationError,
    DivergenceError,
    InvalidInputError,
    MomentumPolicy,
    ParamSchedule,
    Problem,
    RandomBallPolicy,
    SchemeValidationError,
    ShapeError,
    StopRule,
    ZeroPolicy,
    affine_cocoercive,
    affine_monotone,
    chain_fb,
    davis_yin,
    deviation_budget,
    douglas_rachford,
    dr_reference_step,
    extract_solution,
    fixed_point_residual,
    monotone_from_prox,
    solve,
    zero_monotone,
)
from splitdev.markowitz import (
    MarkowitzProblem,
    build_problem,
    estimate_moments,
    portfolio_chain_scale,
    sample_simplex,
    synthetic_instance,
)
from splitdev.solver import SolverState, step

from oracles import dr_step, splitting_run


def quadratic_pair(dim=1):
    """F1 = grad of 0.5(x-1)^2, F2 = grad of 0.5(x+1)^2; sum vanishes at 0."""
    eye = np.eye(dim)
    return Problem(
        F=[affine_monotone(eye, -np.ones(dim), label="left well"),
           affine_monotone(eye, np.ones(dim), label="right well")],
        dim=dim)


def random_affine_problem(scheme, dim, seed):
    rng = np.random.default_rng(seed)
    F, B = [], []
    shift = rng.normal(size=dim)
    for i in range(scheme.n):
        G = rng.normal(size=(dim, dim))
        A = G @ G.T / dim + 0.5 * np.eye(dim)
        F.append(affine_monotone(A, rng.normal(size=dim) + shift))
    for j in range(scheme.m):
        G = rng.normal(size=(dim, dim))
        A = G @ G.T / dim + 0.1 * np.eye(dim)
        B.append(affine_cocoercive(A, rng.normal(size=dim)))
    return Problem(F=F, B=B, dim=dim)


def test_deviation_budget_pinned():
    assert deviation_budget(9.0, 1.0 / 3.0) == pytest.approx(3.0)
    assert deviation_budget(5.0, 0.0) == 0.0
    assert deviation_budget(1.0 / 9.0, 0.9) == pytest.approx(0.1)
    with pytest.raises(InvalidInputError):
        deviation_budget(-1.0, 0.5)
    with pytest.raises(InvalidInputError):
        deviation_budget(np.nan, 0.5)


def test_param_schedule_validation():
    sched = ParamSchedule(gamma=0.9, xi=0.9, epsilon=1e-3)
    assert sched.gamma_at(0) == 0.9
    assert sched.xi_at(3) == 0.9
    varying = ParamSchedule(gamma=lambda k: 0.5 + 0.1 * (k % 2), xi=0.0)
    assert varying.gamma_at(1) == pytest.approx(0.6)
    with pytest.raises(InvalidInputError):
        ParamSchedule(gamma=1.0).gamma_at(0)  # outside [eps, 1 - eps]
    with pytest.raises(InvalidInputError):
        ParamSchedule(xi=0.9995).xi_at(0)
    with pytest.raises(InvalidInputError):
        ParamSchedule(gamma=1.5)  # a constant is checked on construction
    with pytest.raises(InvalidInputError):
        ParamSchedule(theta=0.0)
    with pytest.raises(InvalidInputError):
        ParamSchedule(epsilon=0.7)


def test_fixed_point_residual_pinned():
    sc = douglas_rachford(gamma=1.0)
    exact = SolverState(k=1, z=np.zeros((1, 1)),
                        x=np.zeros((2, 1)), u=np.zeros((0, 1)),
                        v=np.zeros((1, 1)), l2=0.0, gamma=0.5, xi=0.5)
    assert fixed_point_residual(exact, sc) == 0.0
    # consensus blocks cancel in M^T x up to dot-product round-off
    consensus = SolverState(k=1, z=np.zeros((1, 1)),
                            x=np.full((2, 1), 3.7), u=np.zeros((0, 1)),
                            v=np.zeros((1, 1)), l2=0.0, gamma=0.5, xi=0.5)
    assert fixed_point_residual(consensus, sc) < 1e-14
    split = SolverState(k=1, z=np.zeros((1, 1)),
                        x=np.array([[1.0], [0.0]]), u=np.zeros((0, 1)),
                        v=np.zeros((1, 1)), l2=0.0, gamma=0.5, xi=0.5)
    assert fixed_point_residual(split, sc) == pytest.approx(np.sqrt(2.0))
    fresh = SolverState(k=0, z=np.zeros((1, 1)), x=None, u=np.zeros((0, 1)),
                        v=np.zeros((1, 1)), l2=0.0, gamma=0.5, xi=0.5)
    with pytest.raises(InvalidInputError):
        fixed_point_residual(fresh, sc)


def test_single_step_matches_hand_computed_dr():
    # gamma = 1, gamma_k = 0.5 (textbook relaxation 1), z0 = 0:
    # x1 = (0+1)/2 = 1/2, x2 = (2*1/2 - 0 - 1)/2 = 0, z1 = -sqrt(2)/4
    prob = quadratic_pair()
    sc = douglas_rachford(gamma=1.0)
    sched = ParamSchedule(gamma=0.5, xi=0.0)
    st = SolverState(k=0, z=np.zeros((1, 1)), x=None, u=np.zeros((0, 1)),
                     v=np.zeros((1, 1)), l2=0.0, gamma=0.5, xi=0.0)
    nxt = step(prob, sc, st, sched, ZeroPolicy())
    np.testing.assert_allclose(nxt.x, [[0.5], [0.0]], atol=1e-15)
    np.testing.assert_allclose(nxt.z, [[-np.sqrt(2.0) / 4.0]], atol=1e-15)
    assert nxt.resolvent_calls == 2 and nxt.forward_calls == 0


def test_trajectory_matches_textbook_dr_under_rescaling():
    # z_bar = sqrt(2) z and relaxation 2 * gamma_k reproduce the classical
    # two-resolvent iteration state for state
    prob = quadratic_pair()
    sc = douglas_rachford(gamma=1.0)
    gamma_k = 0.45
    res = solve(prob, sc, schedule=ParamSchedule(gamma=gamma_k, xi=0.0),
                policy=ZeroPolicy(), stop=StopRule(tol=0.0, max_iter=40),
                record_states=True)

    def prox_f(g, y):
        return (y + g) / (1.0 + g)

    def prox_g(g, y):
        return (y - g) / (1.0 + g)

    z_ref = np.zeros(1)
    for k in range(40):
        ours = np.sqrt(2.0) * res.trajectory.z_states[k][0]
        np.testing.assert_allclose(ours, z_ref, atol=1e-12)
        _, _, z_ref = dr_step(z_ref, 1.0, 2.0 * gamma_k, prox_f, prox_g)


def test_l2_matches_z_shift_under_zero_policy():
    # with v = 0 and gamma_k = 0.9 the capacity is ||dz||^2 / 9
    prob = quadratic_pair()
    sc = douglas_rachford(gamma=1.0)
    res = solve(prob, sc, schedule=ParamSchedule(gamma=0.9, xi=0.9),
                policy=ZeroPolicy(), stop=StopRule(tol=0.0, max_iter=20),
                record_states=True)
    zs = res.trajectory.z_states
    assert len(zs) == len(res.trajectory) + 1
    for k in range(len(res.trajectory)):
        dz = zs[k + 1] - zs[k]
        expect = float(np.sum(dz * dz)) / 9.0
        assert res.trajectory.l2[k] == pytest.approx(expect, rel=1e-12,
                                                     abs=1e-300)


def test_xi_zero_forces_zero_deviations():
    prob = quadratic_pair()
    sc = douglas_rachford(gamma=1.0)
    res = solve(prob, sc, schedule=ParamSchedule(gamma=0.5, xi=0.0),
                policy=MomentumPolicy(beta=0.9),
                stop=StopRule(tol=0.0, max_iter=30))
    assert max(res.trajectory.budget_used) == 0.0
    assert res.state.u.size == 0 or not res.state.u.any()
    assert not res.state.v.any()


def test_solve_dr_quadratic_reaches_zero():
    prob = quadratic_pair()
    res = solve(prob, douglas_rachford(gamma=1.0),
                schedule=ParamSchedule(gamma=0.5, xi=0.0))
    assert res.converged
    np.testing.assert_allclose(res.x, [0.0], atol=1e-8)


def test_solve_davis_yin_identity_forward():
    prob = Problem(F=[zero_monotone(), zero_monotone()],
                   B=[affine_cocoercive(np.eye(1), np.zeros(1),
                                        lipschitz=1.0)],
                   dim=1)
    res = solve(prob, davis_yin(gamma=0.5), z0=np.ones((1, 1)))
    assert res.converged
    np.testing.assert_allclose(res.x, [0.0], atol=1e-8)


def test_converges_under_every_policy():
    prob = quadratic_pair()
    sc = douglas_rachford(gamma=1.0)
    for policy in (ZeroPolicy(), MomentumPolicy(beta=0.5),
                   RandomBallPolicy(seed=4)):
        res = solve(prob, sc, schedule=ParamSchedule(gamma=0.5, xi=0.9),
                    policy=policy)
        assert res.converged, policy.name
        np.testing.assert_allclose(res.x, [0.0], atol=1e-7)


def test_budget_never_exceeded_and_direction_checked():
    prob = random_affine_problem(chain_fb(3, 2, lipschitz=(1.0, 1.0)),
                                 dim=4, seed=11)
    sc = chain_fb(3, 2, lipschitz=prob.lipschitz)
    for policy in (MomentumPolicy(beta=0.8, rho=0.4), RandomBallPolicy(seed=2)):
        res = solve(prob, sc, schedule=ParamSchedule(gamma=0.7, xi=0.8),
                    policy=policy, stop=StopRule(tol=1e-9))
        assert res.converged
        tr = res.trajectory
        for k in range(1, len(tr)):
            budget = tr.xi[k - 1] * tr.l2[k - 1]
            assert tr.budget_used[k - 1] <= budget + 1e-12 * (1 + budget)


def test_frugality_counters_exact():
    prob = random_affine_problem(chain_fb(4, 3, lipschitz=np.ones(3)),
                                 dim=3, seed=5)
    sc = chain_fb(4, 3, lipschitz=prob.lipschitz)
    res = solve(prob, sc, stop=StopRule(tol=0.0, max_iter=25))
    assert set(res.trajectory.resolvent_calls) == {4}
    assert set(res.trajectory.forward_calls) == {3}


class OverspendingPolicy(ZeroPolicy):
    name = "overspend"

    def produce(self, window, budget, gamma_next, theta, lipschitz):
        u, v = super().produce(window, budget, gamma_next, theta, lipschitz)
        return u, v + 1e6


def test_budget_violation_is_a_hard_error():
    prob = quadratic_pair()
    with pytest.raises(BudgetViolationError):
        solve(prob, douglas_rachford(gamma=1.0),
              schedule=ParamSchedule(gamma=0.5, xi=0.5),
              policy=OverspendingPolicy(), stop=StopRule(max_iter=5))


class WrongShapePolicy(ZeroPolicy):
    def produce(self, window, budget, gamma_next, theta, lipschitz):
        return np.zeros((9, 9)), np.zeros((9, 9))


def test_policy_shape_is_checked():
    with pytest.raises(ShapeError):
        solve(quadratic_pair(), douglas_rachford(gamma=1.0),
              schedule=ParamSchedule(gamma=0.5, xi=0.5),
              policy=WrongShapePolicy(), stop=StopRule(max_iter=3))


def test_theta_mismatch_refused():
    sc = davis_yin(gamma=0.5, theta=1.5)
    prob = Problem(F=[zero_monotone(), zero_monotone()],
                   B=[affine_cocoercive(np.eye(1), np.zeros(1), 1.0)], dim=1)
    with pytest.raises(InvalidInputError):
        solve(prob, sc, schedule=ParamSchedule(theta=1.0))


def test_dimension_mismatch_refused():
    with pytest.raises(SchemeValidationError):
        solve(quadratic_pair(), chain_fb(3, 0), stop=StopRule(max_iter=2))


def test_invalid_scheme_refused():
    sc = douglas_rachford(gamma=1.0)
    bad = sd.Scheme(M=sc.M + 0.3, S=sc.S, C=sc.C, Q=sc.Q, theta=sc.theta)
    with pytest.raises(SchemeValidationError):
        solve(quadratic_pair(), bad)


def test_expansive_operator_trips_divergence_guard():
    blowup = monotone_from_prox(lambda d, y: 3.0 * y, label="expansive")
    prob = Problem(F=[blowup, blowup], dim=1)
    with pytest.raises(DivergenceError):
        solve(prob, douglas_rachford(gamma=1.0),
              schedule=ParamSchedule(gamma=0.9, xi=0.0),
              z0=np.ones((1, 1)), stop=StopRule(max_iter=200))


def test_nan_resolvent_trips_divergence_guard():
    bad = monotone_from_prox(lambda d, y: y * np.nan, label="nan")
    prob = Problem(F=[bad, bad], dim=1)
    with pytest.raises(DivergenceError):
        solve(prob, douglas_rachford(gamma=1.0),
              schedule=ParamSchedule(gamma=0.5, xi=0.0),
              stop=StopRule(max_iter=3))


def test_max_iter_exhaustion_is_flagged_not_raised():
    res = solve(quadratic_pair(), douglas_rachford(gamma=1.0),
                schedule=ParamSchedule(gamma=0.5, xi=0.0),
                stop=StopRule(tol=0.0, max_iter=7))
    assert not res.converged
    assert res.iterations == 7


def test_z0_and_reference_shape_checked():
    prob = quadratic_pair()
    sc = douglas_rachford(gamma=1.0)
    with pytest.raises(ShapeError):
        solve(prob, sc, z0=np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        solve(prob, sc, stop=StopRule(reference=np.zeros(5)))


def test_reference_stopping_rule():
    res = solve(quadratic_pair(), douglas_rachford(gamma=1.0),
                schedule=ParamSchedule(gamma=0.5, xi=0.0),
                stop=StopRule(tol=1e-6, reference=np.zeros(1)))
    assert res.converged
    assert abs(res.x[0]) < 1e-6
    assert res.trajectory.dist_to_ref[-1] < 1e-6


def test_dr_reference_step_pinned():
    f1 = quadratic_pair().F[0]
    f2 = quadratic_pair().F[1]
    x1, _, _ = dr_reference_step(np.ones(1), 1.0, 1.0, f1, f2)
    np.testing.assert_allclose(x1, [1.0])
    ident = zero_monotone()
    _, _, z_next = dr_reference_step(np.full(3, 0.2), 1.0, 1.0, ident, ident)
    np.testing.assert_allclose(z_next, np.full(3, 0.2))


def test_extract_solution_consistent_with_converged_run():
    prob = random_affine_problem(chain_fb(3, 2, lipschitz=np.ones(2)),
                                 dim=4, seed=3)
    sc = chain_fb(3, 2, lipschitz=prob.lipschitz)
    res = solve(prob, sc, stop=StopRule(tol=1e-10))
    x = extract_solution(res.state.z, prob, sc)
    assert np.abs(x - res.x).max() < 1e-8
    # every block agrees near the fixed point
    assert np.abs(x - x[0]).max() < 1e-8


def test_trajectory_csv_layout(tmp_path):
    res = solve(quadratic_pair(), douglas_rachford(gamma=1.0),
                schedule=ParamSchedule(gamma=0.5, xi=0.0),
                stop=StopRule(tol=0.0, max_iter=4))
    text = res.trajectory.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == ("k,residual,spread,l2,budget_used,"
                        "resolvent_calls,forward_calls,dist_to_ref")
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[-1] == ""  # no reference given
    path = tmp_path / "traj.csv"
    res.trajectory.to_csv(path)
    assert path.read_text() == text


def test_record_states_keeps_every_dual_iterate():
    res = solve(quadratic_pair(), douglas_rachford(gamma=1.0),
                schedule=ParamSchedule(gamma=0.5, xi=0.0),
                stop=StopRule(tol=0.0, max_iter=6), record_states=True)
    assert len(res.trajectory.z_states) == 7  # z^0 .. z^6
    assert res.trajectory.z_states[0].shape == (1, 1)


def test_fejer_monotonicity_small_sample():
    # V_k = ||z^k - z*||^2 + l_{k-1}^2 decreases up to the spent budget
    for seed in range(5):
        prob = random_affine_problem(chain_fb(3, 1, lipschitz=np.ones(1)),
                                     dim=3, seed=100 + seed)
        sc = chain_fb(3, 1, lipschitz=prob.lipschitz)
        ref = solve(prob, sc, schedule=ParamSchedule(gamma=0.5, xi=0.0),
                    stop=StopRule(tol=1e-13))
        z_star = ref.state.z
        res = solve(prob, sc, schedule=ParamSchedule(gamma=0.5, xi=0.8),
                    policy=MomentumPolicy(beta=0.7),
                    stop=StopRule(tol=0.0, max_iter=60), record_states=True)
        tr = res.trajectory
        zs = tr.z_states
        for k in range(1, len(tr)):
            v_k = float(np.sum((zs[k] - z_star) ** 2)) + tr.l2[k - 1]
            v_next = float(np.sum((zs[k + 1] - z_star) ** 2)) + tr.l2[k]
            slack = tr.xi[k - 1] * tr.l2[k - 1] - tr.l2[k]
            assert v_next <= v_k + slack + 1e-9


def _bit_identity_case(kind):
    """(problem, scheme, gamma, xi, reference) for the bit-identity test."""
    if kind == "douglas_rachford":
        sc = douglas_rachford(gamma=1.0)
        return random_affine_problem(sc, dim=4, seed=7), sc, 0.5, 0.8, None
    if kind == "davis_yin":
        prob = random_affine_problem(davis_yin(gamma=0.1), dim=4, seed=8)
        sc = davis_yin(gamma=1.0 / prob.lipschitz[0],
                       lipschitz=prob.lipschitz)
        return prob, sc, 0.6, 0.8, None
    Lam, r = estimate_moments(synthetic_instance(seed=2, days=60, assets=8))
    prob = build_problem(MarkowitzProblem(Lam, r, 6.0, sample_simplex(8, 1)))
    sc = chain_fb(3, 2, prob.lipschitz, scale=portfolio_chain_scale(8))
    return prob, sc, 0.9, 0.9, sample_simplex(8, 2)


@pytest.mark.parametrize("policy", ["zero", "momentum:beta=0.5,rho=0.7",
                                    "randball:seed=4"])
@pytest.mark.parametrize("kind", ["douglas_rachford", "davis_yin",
                                  "markowitz_chain_fb"])
def test_solve_matches_loop_reference_bit_for_bit(kind, policy):
    prob, sc, gamma, xi, reference = _bit_identity_case(kind)
    tol, max_iter = 1e-10, 300
    res = solve(prob, sc, schedule=ParamSchedule(gamma=gamma, xi=xi),
                policy=sd.parse_policy(policy),
                stop=StopRule(tol=tol, max_iter=max_iter, reference=reference),
                record_states=True)
    columns, z_states, x = splitting_run(
        prob, sc, gamma, xi, 1.0, sd.parse_policy(policy), tol, max_iter,
        reference=reference)
    tr = res.trajectory
    assert len(tr) == len(columns["k"]) > 10
    for name, expected in columns.items():
        assert getattr(tr, name) == expected, name
    assert len(tr.z_states) == len(z_states)
    for got, want in zip(tr.z_states, z_states):
        assert np.array_equal(got, want)
    assert np.array_equal(res.x, x[-1])
    assert np.array_equal(res.state.x, x)
