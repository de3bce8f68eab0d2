"""Iteration engine: stepping, budgets, termination, instrumentation."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import splitdev as sd
from splitdev import (
    BudgetViolationError,
    DeviationPolicy,
    DivergenceError,
    InvalidInputError,
    MomentumPolicy,
    MonotoneOp,
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
    deviation_cost,
    douglas_rachford,
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

from oracles import csv_text, dr_step, splitting_run


def quadratic_pair(dim=1):
    """F1 = grad of 0.5(x-1)^2, F2 = grad of 0.5(x+1)^2; sum vanishes at 0."""
    eye = np.eye(dim)
    return Problem(
        F=[affine_monotone(eye, -np.ones(dim), label="left well"),
           affine_monotone(eye, np.ones(dim), label="right well")],
        dim=dim)


def random_affine_problem(scheme, dim, seed, coco_scales=None):
    """Affine problem shaped for ``scheme``; B_j is scaled by coco_scales[j]."""
    rng = np.random.default_rng(seed)
    if coco_scales is None:
        coco_scales = [1.0] * scheme.m
    F, B = [], []
    shift = rng.normal(size=dim)
    for i in range(scheme.n):
        G = rng.normal(size=(dim, dim))
        A = G @ G.T / dim + 0.5 * np.eye(dim)
        F.append(affine_monotone(A, rng.normal(size=dim) + shift))
    for j in range(scheme.m):
        G = rng.normal(size=(dim, dim))
        A = G @ G.T / dim + 0.1 * np.eye(dim)
        B.append(affine_cocoercive(coco_scales[j] * A, rng.normal(size=dim)))
    return Problem(F=F, B=B, dim=dim)


@st.composite
def splitting_cases(draw):
    """(problem, scheme, schedule): a valid chain_fb or davis_yin scheme on a
    random affine problem whose cocoercivity constants span 1e-2..1e2."""
    theta = draw(st.sampled_from([0.5, 1.0, 2.0]))
    kind = draw(st.sampled_from(["chain_fb", "davis_yin"]))
    n = 2 if kind == "davis_yin" else draw(st.integers(2, 4))
    m = 1 if kind == "davis_yin" else draw(st.integers(0, n - 1))
    scales = draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m))
    prob = random_affine_problem(chain_fb(n, m, np.ones(m)),
                                 dim=draw(st.integers(1, 4)),
                                 seed=draw(st.integers(0, 2 ** 16)),
                                 coco_scales=[10.0 ** e for e in scales])
    if kind == "davis_yin":
        bound = 4.0 / ((1.0 + 1.0 / theta) * prob.lipschitz[0])
        sc = davis_yin(draw(st.floats(0.1, 0.95)) * bound, theta=theta,
                       lipschitz=prob.lipschitz)
    else:
        sc = chain_fb(n, m, prob.lipschitz, theta=theta)
    schedule = ParamSchedule(gamma=draw(st.floats(0.1, 0.9)),
                             xi=draw(st.floats(0.0, 0.95)))
    return prob, sc, schedule


class BoundaryPolicy(DeviationPolicy):
    """Seeded random pairs scaled so each costs exactly the whole budget."""

    name = "boundary"

    def __init__(self, seed):
        self.seed = seed

    def reset(self, problem, scheme):
        self._rng = np.random.default_rng(self.seed)

    def produce(self, window, budget, gamma_next, theta, lipschitz):
        u = self._rng.normal(size=(len(lipschitz), window.dz.shape[-1]))
        v = self._rng.normal(size=window.dz.shape)
        if budget == 0.0:
            return 0.0 * u, 0.0 * v
        scale = math.sqrt(budget / deviation_cost(u, v, gamma_next, theta,
                                                  lipschitz))
        return scale * u, scale * v


deviation_policies = st.one_of(
    st.builds(MomentumPolicy, beta=st.floats(0.0, 1.0),
              rho=st.floats(0.0, 1.0)),
    st.builds(BoundaryPolicy, seed=st.integers(0, 2 ** 16)))


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
        ParamSchedule(epsilon=0.7)


@pytest.mark.parametrize("which", ["gamma", "xi"])
@pytest.mark.parametrize("value", ["abc", None], ids=["text", "none"])
def test_callable_schedule_value_must_be_a_number(which, value):
    # the package's error naming the step, never float()'s own
    schedule = ParamSchedule(**{which: lambda k: value})
    message = re.escape(f"{which}_0 must be a number, got {value!r}")
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        solve(quadratic_pair(), douglas_rachford(gamma=1.0),
              schedule=schedule)


def test_stop_rule_rejects_max_iter_below_one():
    with pytest.raises(InvalidInputError):
        StopRule(max_iter=0)  # checked on construction
    stop = StopRule(max_iter=1)
    stop.max_iter = 0
    with pytest.raises(InvalidInputError):  # and again by solve
        solve(quadratic_pair(), douglas_rachford(gamma=1.0), stop=stop)


def test_stop_rule_reads_max_iter_as_an_integer():
    stop = StopRule(tol=-1.0, max_iter=1e3)  # an integral float is that int
    assert stop.max_iter == 1000 and type(stop.max_iter) is int
    res = solve(quadratic_pair(), douglas_rachford(gamma=1.0), stop=stop)
    assert res.iterations == 1000
    for value in (2.5, True, np.True_):  # a bool is no integer either
        with pytest.raises(InvalidInputError,
                           match="max_iter must be an integer"):
            StopRule(max_iter=value)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_refuses_a_non_finite_reference(bad):
    # refused before the first step, not run silently to max_iter
    calls = []
    spy = MonotoneOp(lambda d, y: calls.append(1) or y, label="spy")
    problem = Problem([spy, zero_monotone()], dim=1)
    stop = StopRule(tol=1e-8, max_iter=2000, reference=[bad])
    with pytest.raises(InvalidInputError,
                       match="^reference contains non-finite entries$"):
        solve(problem, douglas_rachford(1.0), stop=stop)
    assert calls == []


def test_stop_rule_rejects_nan_tolerances():
    with pytest.raises(InvalidInputError, match="tol"):
        StopRule(tol=math.nan)
    # tol <= 0 stays legal: it runs exactly max_iter steps
    stop = StopRule(tol=-1.0, max_iter=7)
    res = solve(quadratic_pair(), douglas_rachford(gamma=1.0), stop=stop)
    assert res.iterations == 7 and not res.converged
    stop.tol = math.nan
    with pytest.raises(InvalidInputError, match="tol"):  # and again by solve
        solve(quadratic_pair(), douglas_rachford(gamma=1.0), stop=stop)


def first_step(problem):
    """One hand-called zero-policy step of douglas_rachford(1.0) from z = 0."""
    state = SolverState(k=0, z=np.zeros((1, 1)), x=None, u=np.zeros((0, 1)),
                        v=np.zeros((1, 1)), l2=0.0, gamma=0.5, xi=0.5)
    return step(problem, douglas_rachford(gamma=1.0), state,
                ParamSchedule(gamma=0.5, xi=0.5), ZeroPolicy())


def test_fixed_point_residual_pinned():
    # the fixed-point residual is max(residual, spread) of the sweep
    exact = first_step(constant_pair([0.0]))
    assert (exact.residual, exact.spread) == (0.0, 0.0)
    # consensus blocks cancel in M^T x up to dot-product round-off
    consensus = first_step(constant_pair([3.7]))
    assert consensus.residual < 1e-14 and consensus.spread == 0.0
    split = first_step(constant_pair([1.0], [0.0]))
    assert split.residual == pytest.approx(np.sqrt(2.0))
    assert split.spread == 1.0


def test_capacity_overflow_is_divergence():
    # a finite sweep whose capacity l2 overflows diverged; it is no bad input
    prob = constant_pair([1e200], [-1e200])
    with np.errstate(over="ignore"):
        for spec in ("zero", "randball:seed=1"):
            with pytest.raises(DivergenceError, match="capacity"):
                solve(prob, douglas_rachford(gamma=1.0),
                      policy=sd.parse_policy(spec))
        with pytest.raises(DivergenceError, match="capacity"):
            first_step(prob)


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


class ThetaRecorder(MomentumPolicy):
    """Momentum that records the theta and pair of every ``produce`` call."""

    def reset(self, problem, scheme):
        super().reset(problem, scheme)
        self.calls = []

    def produce(self, window, budget, gamma_next, theta, lipschitz):
        u, v = super().produce(window, budget, gamma_next, theta, lipschitz)
        self.calls.append((theta, gamma_next, u, v))
        return u, v


def test_policy_and_budget_use_the_scheme_theta():
    prob = random_affine_problem(davis_yin(gamma=0.1), dim=2, seed=3)
    sc = davis_yin(gamma=1.0 / prob.lipschitz[0], theta=1.5,
                   lipschitz=prob.lipschitz)
    policy = ThetaRecorder(beta=0.8)
    res = solve(prob, sc, schedule=ParamSchedule(gamma=0.5, xi=0.9),
                policy=policy, stop=StopRule(tol=0.0, max_iter=20))
    assert [call[0] for call in policy.calls] == [1.5] * 20
    used = list(res.trajectory.budget_used)
    assert used == [deviation_cost(u, v, g, 1.5, prob.lipschitz)
                    for _, g, u, v in policy.calls]
    assert max(used) > 0.0


def test_dimension_mismatch_refused():
    with pytest.raises(SchemeValidationError):
        solve(quadratic_pair(), chain_fb(3, 0), stop=StopRule(max_iter=2))


def test_invalid_scheme_refused():
    sc = douglas_rachford(gamma=1.0)
    bad = sd.Scheme(M=sc.M + 0.3, S=sc.S, C=sc.C, Q=sc.Q, theta=sc.theta)
    with pytest.raises(SchemeValidationError):
        solve(quadratic_pair(), bad)


def test_expansive_operator_trips_divergence_guard():
    blowup = MonotoneOp(lambda d, y: 3.0 * y, label="expansive")
    prob = Problem(F=[blowup, blowup], dim=1)
    with pytest.raises(DivergenceError):
        solve(prob, douglas_rachford(gamma=1.0),
              schedule=ParamSchedule(gamma=0.9, xi=0.0),
              z0=np.ones((1, 1)), stop=StopRule(max_iter=200))


def test_nan_resolvent_trips_divergence_guard():
    bad = MonotoneOp(lambda d, y: y * np.nan, label="nan")
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


def test_dr_step_oracle_pinned():
    f1, f2 = quadratic_pair().F
    x1, _, _ = dr_step(np.ones(1), 1.0, 1.0, f1.resolvent, f2.resolvent)
    np.testing.assert_allclose(x1, [1.0])
    ident = zero_monotone().resolvent
    _, _, z_next = dr_step(np.full(3, 0.2), 1.0, 1.0, ident, ident)
    np.testing.assert_allclose(z_next, np.full(3, 0.2))


def test_trajectory_csv_layout():
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


def test_record_states_keeps_every_dual_iterate():
    res = solve(quadratic_pair(), douglas_rachford(gamma=1.0),
                schedule=ParamSchedule(gamma=0.5, xi=0.0),
                stop=StopRule(tol=0.0, max_iter=6), record_states=True)
    assert len(res.trajectory.z_states) == 7  # z^0 .. z^6
    assert res.trajectory.z_states[0].shape == (1, 1)


def test_trajectory_columns_hold_unboxed_values():
    # counts in array('q') and floats in array('d'), 8 bytes a value; these
    # rows as boxed Python objects in lists take about 210 bytes each
    rows = 5000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr = sd.Trajectory()
        for k in range(rows):
            x = k + 0.5  # fresh floats each row, as a solve makes them
            tr.append(k, x / 3, x / 5, x / 7, x / 11, 4, 3, None, 0.9, 0.5)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tr) == rows
    assert retained / rows <= 100
    codes = {name: getattr(getattr(tr, name), "typecode", None)
             for name in sd.Trajectory.COLUMNS + ("gamma", "xi")}
    assert codes == {"k": "q", "residual": "d", "spread": "d", "l2": "d",
                     "budget_used": "d", "resolvent_calls": "q",
                     "forward_calls": "q", "dist_to_ref": None,
                     "gamma": "d", "xi": "d"}
    assert isinstance(tr.dist_to_ref, list)
    assert type(tr.k[7]) is int and type(tr.l2[7]) is float
    assert tr.l2[7] == 7.5 / 7
    view = np.asarray(tr.l2)  # zero-copy
    assert view.dtype == np.float64 and np.shares_memory(view, tr.l2)


def momentum_case(seed):
    """chain_fb(3, 1) at dim 3 with gamma 0.5 and xi 0.8."""
    prob = random_affine_problem(chain_fb(3, 1, lipschitz=np.ones(1)),
                                 dim=3, seed=seed)
    return (prob, chain_fb(3, 1, lipschitz=prob.lipschitz),
            ParamSchedule(gamma=0.5, xi=0.8))


@given(splitting_cases(), deviation_policies)
@example(momentum_case(100), MomentumPolicy(beta=0.7))
@example(momentum_case(101), MomentumPolicy(beta=0.7))
@example(momentum_case(102), MomentumPolicy(beta=0.7))
@example(momentum_case(103), MomentumPolicy(beta=0.7))
@example(momentum_case(104), MomentumPolicy(beta=0.7))
def test_fejer_monotonicity_small_sample(case, policy):
    # ||z^{k+1} - z*||^2 + l_k^2 <= ||z^k - z*||^2 + the cost of the pair
    # step k used, which the budget caps at xi_{k-1} l_{k-1}^2
    prob, sc, schedule = case
    ref = solve(prob, sc, schedule=ParamSchedule(gamma=0.9, xi=0.0),
                stop=StopRule(tol=1e-13, max_iter=20000))
    assume(ref.converged)
    z_star = ref.state.z
    res = solve(prob, sc, schedule=schedule, policy=policy,
                stop=StopRule(tol=0.0, max_iter=60), record_states=True)
    tr = res.trajectory
    zs = tr.z_states
    for k in range(len(tr)):
        before = float(np.sum((zs[k] - z_star) ** 2))
        after = float(np.sum((zs[k + 1] - z_star) ** 2))
        spent = tr.budget_used[k - 1] if k else 0.0
        assert after + tr.l2[k] <= before + spent + 1e-9


@given(splitting_cases(), st.integers(0, 2 ** 16))
def test_pairs_on_the_budget_boundary_are_admitted(case, seed):
    # round-off in a pair that spends exactly xi_k l_k^2 never trips the check
    prob, sc, schedule = case
    res = solve(prob, sc, schedule=schedule, policy=BoundaryPolicy(seed),
                stop=StopRule(tol=0.0, max_iter=40))
    tr = res.trajectory
    for k in range(1, len(tr)):
        budget = tr.xi[k - 1] * tr.l2[k - 1]
        assert tr.budget_used[k - 1] == pytest.approx(budget, rel=1e-12)


def _bit_identity_case(kind):
    """(problem, scheme, gamma, xi, reference) for the bit-identity test."""
    if kind == "criterion9_chain_fb":  # criterion 9's size, p = 53
        Lam, r = estimate_moments(synthetic_instance(seed=0, days=200,
                                                     assets=53))
        prob = build_problem(MarkowitzProblem(Lam, r, 6.0,
                                              sample_simplex(53, 0)))
        sc = chain_fb(3, 2, prob.lipschitz, scale=portfolio_chain_scale(53))
        return prob, sc, 0.9, 0.9, sample_simplex(53, 1)
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
        assert list(getattr(tr, name)) == expected, name
    assert len(tr.z_states) == len(z_states)
    for got, want in zip(tr.z_states, z_states):
        assert np.array_equal(got, want)
    assert np.array_equal(res.x, x[-1])
    assert np.array_equal(res.state.x, x)


@pytest.mark.parametrize("with_reference", [False, True])
@pytest.mark.parametrize("policy", ["zero", "momentum:beta=0.5,rho=0.7",
                                    "randball:seed=4"])
@pytest.mark.parametrize("kind", ["douglas_rachford", "davis_yin",
                                  "markowitz_chain_fb"])
def test_csv_text_matches_an_independent_formatter(kind, policy,
                                                   with_reference):
    prob, sc, gamma, xi, reference = _bit_identity_case(kind)
    if not with_reference:
        reference = None
    elif reference is None:
        reference = np.full(prob.dim, 0.5)  # never reached: 300 rows
    tol, max_iter = 1e-10, 300
    res = solve(prob, sc, schedule=ParamSchedule(gamma=gamma, xi=xi),
                policy=sd.parse_policy(policy),
                stop=StopRule(tol=tol, max_iter=max_iter, reference=reference))
    columns, _, _ = splitting_run(
        prob, sc, gamma, xi, 1.0, sd.parse_policy(policy), tol, max_iter,
        reference=reference)
    assert (columns["dist_to_ref"][0] is None) is (reference is None)
    assert res.trajectory.to_csv_text() == csv_text(columns)


class ZerosFromProduce(DeviationPolicy):
    """The zero pair through ``produce``: the general path of ``step``."""

    name = "zeros-from-produce"

    def produce(self, window, budget, gamma_next, theta, lipschitz):
        return self._zeros(window, lipschitz)


def _bits(value):
    """Bytes that tell every float apart, signed zeros and NaNs included."""
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return np.float64(value).tobytes()


@pytest.mark.parametrize("kind", ["douglas_rachford", "davis_yin",
                                  "markowitz_chain_fb", "criterion9_chain_fb"])
def test_zero_policy_matches_zeros_from_produce_bit_for_bit(kind):
    prob, sc, gamma, xi, reference = _bit_identity_case(kind)
    runs = [solve(prob, sc, schedule=ParamSchedule(gamma=gamma, xi=xi),
                  policy=policy,
                  stop=StopRule(tol=1e-10, max_iter=300, reference=reference),
                  record_states=True)
            for policy in (ZeroPolicy(), ZerosFromProduce())]
    fast, general = runs
    assert len(fast.trajectory) == len(general.trajectory) > 10
    for name in sd.Trajectory.COLUMNS + ("gamma", "xi"):
        assert ([_bits(v) for v in getattr(fast.trajectory, name)]
                == [_bits(v) for v in getattr(general.trajectory, name)]), name
    assert ([_bits(z) for z in fast.trajectory.z_states]
            == [_bits(z) for z in general.trajectory.z_states])
    assert _bits(fast.x) == _bits(general.x)
    for field in dataclasses.fields(SolverState):
        assert (_bits(getattr(fast.state, field.name))
                == _bits(getattr(general.state, field.name))), field.name


def test_zero_policy_solve_skips_produce_and_cost(monkeypatch):
    counts = {"produce": 0, "deviation_cost": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ZeroPolicy, "produce",
                        counted("produce", ZeroPolicy.produce))
    monkeypatch.setattr(sd.solver, "deviation_cost",
                        counted("deviation_cost", sd.solver.deviation_cost))
    prob, sc, gamma, xi, reference = _bit_identity_case("markowitz_chain_fb")
    stop = StopRule(tol=1e-10, max_iter=300, reference=reference)
    schedule = ParamSchedule(gamma=gamma, xi=xi)
    res = solve(prob, sc, schedule=schedule, policy=ZeroPolicy(), stop=stop)
    assert res.iterations > 10
    assert counts == {"produce": 0, "deviation_cost": 0}
    # the counters are live: the general path pays one cost per step
    res = solve(prob, sc, schedule=schedule, policy=ZerosFromProduce(),
                stop=stop)
    assert counts == {"produce": 0, "deviation_cost": res.iterations}


def test_hand_called_zero_policy_step_applies_the_incoming_pair():
    # whether a step adds (u, v) is read off the pair, not off the policy
    prob, sc, gamma, xi, _ = _bit_identity_case("markowitz_chain_fb")
    schedule = ParamSchedule(gamma=gamma, xi=xi)
    rng = np.random.default_rng(11)
    p = prob.dim
    state = SolverState(k=3, z=rng.normal(size=(sc.n - 1, p)),
                        x=rng.normal(size=(sc.n, p)),
                        u=1e-3 * rng.normal(size=(sc.m, p)),
                        v=1e-3 * rng.normal(size=(sc.n - 1, p)),
                        l2=1.0, gamma=gamma, xi=xi, budget_used=0.0)
    fast = step(prob, sc, state, schedule, ZeroPolicy())
    general = step(prob, sc, state, schedule, ZerosFromProduce())
    for name in ("z", "x", "l2", "residual", "spread", "u", "v",
                 "budget_used"):
        assert _bits(getattr(fast, name)) == _bits(getattr(general, name))
    # and the pair did move the step
    bare = dataclasses.replace(state, u=np.zeros_like(state.u),
                               v=np.zeros_like(state.v))
    assert not np.array_equal(step(prob, sc, bare, schedule, ZeroPolicy()).z,
                              fast.z)


def constant_pair(row, second=None):
    """Two resolvents that return ``row`` and ``second`` (default ``row``)
    whatever their input."""
    row = np.array(row)
    second = row if second is None else np.array(second)
    return Problem((MonotoneOp(lambda d, y: row),
                    MonotoneOp(lambda d, y: second)), dim=row.size)


def test_sweep_screen_passes_entries_whose_sum_overflows():
    # the four entries of x sum past the float maximum; at 8e307 and with
    # M = [1, -1]^T (gamma 2) the step's own arithmetic stays finite
    prob = constant_pair([8e307, 8e307])
    state = SolverState(k=0, z=np.zeros((1, 2)), x=None, u=np.zeros((0, 2)),
                        v=np.zeros((1, 2)), l2=0.0, gamma=0.5, xi=0.0)
    new = step(prob, douglas_rachford(2.0), state, ParamSchedule(),
               ZeroPolicy())
    assert np.array_equal(new.x, np.full((2, 2), 8e307))


@pytest.mark.parametrize("row", [[np.nan], [np.inf], [np.inf, -np.inf],
                                 [8e307, 8e307, np.nan]],
                         ids=["nan", "inf", "inf-minus-inf", "big-nan"])
def test_sweep_screen_rejects_every_non_finite_entry(row):
    prob = constant_pair(row)
    p = prob.dim
    state = SolverState(k=0, z=np.zeros((1, p)), x=None, u=np.zeros((0, p)),
                        v=np.zeros((1, p)), l2=0.0, gamma=0.5, xi=0.0)
    with pytest.raises(DivergenceError,
                       match="^non-finite primal sweep at step 0$"):
        step(prob, douglas_rachford(1.0), state, ParamSchedule(),
             ZeroPolicy())


@pytest.mark.parametrize("policy", ["zero", "momentum:beta=0.5,rho=0.7",
                                    "randball:seed=4"])
def test_solve_calls_step_and_each_operator_once_per_iteration(
        monkeypatch, policy):
    # benchmark tracers wrap these by name: ``step`` through the solver's
    # module global, the operators through problem.F and problem.B
    prob, sc, gamma, xi, reference = _bit_identity_case("markowitz_chain_fb")
    calls = {"step": 0}

    def counted(name, fn):
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sd.solver, "step", counted("step", sd.solver.step))
    monkeypatch.setattr(prob, "F", tuple(
        dataclasses.replace(op, resolvent=counted(f"F{i}", op.resolvent))
        for i, op in enumerate(prob.F)))
    monkeypatch.setattr(prob, "B", tuple(
        dataclasses.replace(op, eval=counted(f"B{j}", op.eval))
        for j, op in enumerate(prob.B)))
    res = solve(prob, sc, schedule=ParamSchedule(gamma=gamma, xi=xi),
                policy=sd.parse_policy(policy),
                stop=StopRule(tol=1e-10, max_iter=300, reference=reference))
    assert res.iterations > 10
    assert calls == dict.fromkeys(["step", "F0", "F1", "F2", "B0", "B1"],
                                  res.iterations)


@pytest.mark.parametrize("row", [(), (0,) * 9, (0,) * 11],
                         ids=["empty", "short", "long"])
def test_solver_refusals(row):
    # a trajectory row holds one value per column, gamma and xi included
    with pytest.raises(TypeError, match="a row has 10 values"):
        sd.Trajectory().append(*row)
