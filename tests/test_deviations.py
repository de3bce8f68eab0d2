"""Deviation policies and the per-iteration budget arithmetic."""

import numpy as np
import pytest

from splitdev import (
    InvalidInputError,
    MomentumPolicy,
    PolicyWindow,
    RandomBallPolicy,
    ZeroPolicy,
    deviation_cost,
    enforce_budget,
    parse_policy,
)


def cost(u, v, gamma, theta, L):
    return deviation_cost(u, v, gamma, theta, L)


def test_deviation_cost_formula():
    # (gamma/(1-gamma))|v|^2 + (gamma(1+theta)/2) sum_j L_j |u_j|^2
    v = np.array([[1.0, 2.0]])
    u = np.array([[3.0, 0.0]])
    got = deviation_cost(u, v, 0.5, 1.0, np.array([2.0]))
    assert got == pytest.approx(1.0 * 5.0 + 0.5 * 2.0 * 9.0)


def test_deviation_cost_rejects_bad_gamma():
    z = np.zeros((1, 2))
    for gamma in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(InvalidInputError):
            deviation_cost(z, z, gamma, 1.0, np.ones(1))


def test_enforce_budget_worked_example_v_only():
    # cost_v = 4B with rho = 1 scales v by 1/2, landing exactly on B
    gamma, theta = 0.5, 1.0
    L = np.zeros(0)
    v_raw = np.ones((1, 4))  # cost = (0.5/0.5) * 4 = 4
    budget = 1.0
    u, v = enforce_budget(np.zeros((0, 4)), v_raw, budget, gamma, theta, L,
                          rho=1.0)
    np.testing.assert_allclose(v, 0.5 * v_raw)
    assert cost(u, v, gamma, theta, L) == pytest.approx(budget)


def test_enforce_budget_inactive_cap_returns_inputs_unchanged():
    gamma, theta = 0.5, 1.0
    L = np.ones(1)
    u_raw = np.full((1, 3), 0.01)
    v_raw = np.full((1, 3), 0.01)
    u, v = enforce_budget(u_raw, v_raw, 100.0, gamma, theta, L, rho=0.5)
    np.testing.assert_allclose(u, u_raw)
    np.testing.assert_allclose(v, v_raw)


def test_enforce_budget_zero_budget_returns_zeros():
    u, v = enforce_budget(np.ones((1, 2)), np.ones((1, 2)), 0.0, 0.5, 1.0,
                          np.ones(1), rho=0.5)
    assert not u.any() and not v.any()


def test_enforce_budget_preserves_direction():
    rng = np.random.default_rng(31)
    for _ in range(100):
        gamma = float(rng.uniform(0.05, 0.95))
        theta = float(rng.uniform(0.2, 3.0))
        m = int(rng.integers(1, 4))
        L = rng.uniform(0.2, 5.0, size=m)
        u_raw = rng.normal(size=(m, 3))
        v_raw = rng.normal(size=(m, 3))
        budget = float(rng.uniform(0.0, 2.0))
        rho = float(rng.uniform(0.0, 1.0))
        u, v = enforce_budget(u_raw, v_raw, budget, gamma, theta, L, rho=rho)
        got = cost(u, v, gamma, theta, L)
        assert got <= budget + 1e-12 * (1.0 + budget)
        for raw, out in ((u_raw, u), (v_raw, v)):
            denom = float(raw.ravel() @ raw.ravel())
            coef = float(out.ravel() @ raw.ravel()) / denom
            assert -1e-12 <= coef <= 1.0 + 1e-12
            np.testing.assert_allclose(out, coef * raw, atol=1e-10)


def window(k, dz, dw):
    return PolicyWindow(k=k, dz=dz, dw=dw)


def test_zero_policy_always_zero():
    pol = ZeroPolicy()
    u, v = pol.produce(window(5, np.ones((2, 3)), np.ones((1, 3))),
                       budget=10.0, gamma_next=0.5, theta=1.0,
                       lipschitz=np.ones(1))
    assert not u.any() and not v.any()
    assert pol.name == "zero"


def test_momentum_beta_zero_equals_zero_policy():
    pol = MomentumPolicy(beta=0.0)
    u, v = pol.produce(window(3, np.ones((2, 3)), np.ones((1, 3))),
                       budget=5.0, gamma_next=0.5, theta=1.0,
                       lipschitz=np.ones(1))
    assert not u.any() and not v.any()


def test_momentum_first_iteration_returns_zeros():
    pol = MomentumPolicy(beta=0.9)
    u, v = pol.produce(window(0, np.zeros((2, 3)), None), budget=5.0,
                       gamma_next=0.5, theta=1.0, lipschitz=np.ones(1))
    assert not u.any() and not v.any()


def test_momentum_worked_example_unit_step():
    # dz = e, gamma = 0.5, rho = 1: raw cost is beta^2 |e|^2; over budget
    # the output is scaled onto the budget sphere
    dz = np.ones((1, 4))
    pol = MomentumPolicy(beta=1.0, rho=1.0)
    budget = 1.0
    u, v = pol.produce(window(2, dz, np.zeros((0, 4))), budget=budget,
                       gamma_next=0.5, theta=1.0, lipschitz=np.zeros(0))
    assert cost(u, v, 0.5, 1.0, np.zeros(0)) == pytest.approx(budget)
    np.testing.assert_allclose(v, dz * 0.5)


def test_momentum_rejects_out_of_range_parameters():
    for beta in (-0.1, 1.1):
        with pytest.raises(InvalidInputError):
            MomentumPolicy(beta=beta)
    for rho in (-0.1, 1.2):
        with pytest.raises(InvalidInputError):
            MomentumPolicy(beta=0.5, rho=rho)


def test_random_ball_deterministic_per_seed():
    w = window(4, np.ones((2, 3)), np.ones((1, 3)))
    args = dict(budget=2.0, gamma_next=0.7, theta=1.0, lipschitz=np.ones(1))
    a = RandomBallPolicy(seed=7)
    a.reset(None, None)
    b = RandomBallPolicy(seed=7)
    b.reset(None, None)
    for _ in range(5):
        ua, va = a.produce(w, **args)
        ub, vb = b.produce(w, **args)
        np.testing.assert_array_equal(ua, ub)
        np.testing.assert_array_equal(va, vb)
    # reset rewinds the stream
    a.reset(None, None)
    ua2, va2 = a.produce(w, **args)
    ub, vb = RandomBallPolicy(seed=7).produce(w, **args)


def test_random_ball_respects_budget():
    rng = np.random.default_rng(33)
    pol = RandomBallPolicy(seed=1)
    pol.reset(None, None)
    for _ in range(200):
        budget = float(rng.uniform(0.0, 3.0))
        gamma = float(rng.uniform(0.1, 0.9))
        theta = float(rng.uniform(0.5, 2.0))
        L = rng.uniform(0.5, 2.0, size=2)
        u, v = pol.produce(window(3, np.ones((3, 2)), np.ones((2, 2))),
                           budget=budget, gamma_next=gamma, theta=theta,
                           lipschitz=L)
        assert cost(u, v, gamma, theta, L) <= budget + 1e-12 * (1 + budget)


def test_parse_policy_strings():
    assert parse_policy("zero").name == "zero"
    pol = parse_policy("momentum:beta=0.25,rho=0.1")
    assert pol.beta == pytest.approx(0.25)
    assert pol.rho == pytest.approx(0.1)
    assert parse_policy("randball:seed=9").seed == 9
    # a policy instance passes through untouched
    inst = ZeroPolicy()
    assert parse_policy(inst) is inst


def test_parse_policy_rejects_unknown():
    with pytest.raises(InvalidInputError):
        parse_policy("nope")
    with pytest.raises(InvalidInputError):
        parse_policy("momentum:gamma=1")  # not a momentum parameter
    with pytest.raises(InvalidInputError):
        parse_policy("zero:seed=1")


def test_parse_policy_passes_parameters_to_the_constructor():
    # each constructor reads its own parameters: an integral seed string
    # is read as an integer, as every other integer key is
    assert parse_policy("randball:seed=1.0").seed == 1
    assert parse_policy("randball:seed=1.0").name == "randball:seed=1"
    big = 12345678901234567890  # past 2**53: read exactly, not via float
    assert parse_policy(f"randball:seed={big}").seed == big
    assert parse_policy("momentum").name == MomentumPolicy().name
    assert parse_policy("randball").name == RandomBallPolicy().name


@pytest.mark.parametrize("seed", [2.7, True, "2.5"])
def test_random_ball_seed_is_an_integer(seed):
    with pytest.raises(InvalidInputError, match="seed must be an integer"):
        RandomBallPolicy(seed=seed)


@pytest.mark.parametrize("refuse", [
    lambda: parse_policy("momentum:beta"),
    lambda: parse_policy("momentum:beta=abc"),
    lambda: parse_policy("randball:seed=-1"),
    lambda: enforce_budget(np.ones((1, 2)), np.ones((1, 2)), 1.0, 0.5, 1.0,
                           np.ones(1), rho=1.5),
], ids=["malformed", "not-a-float", "negative-seed", "enforce-rho"])
def test_deviations_refusals(refuse):
    with pytest.raises(InvalidInputError):
        refuse()
