"""Proximal maps, forward maps and the operator containers."""

import numpy as np
import pytest

import oracles
from splitdev import (
    CocoerciveOp,
    DegenerateOperatorError,
    InvalidInputError,
    Problem,
    ShapeError,
    affine_cocoercive,
    affine_gradient,
    affine_monotone,
    estimate_cocoercivity,
    monotone_from_prox,
    project_simplex,
    prox_shifted_l1,
    prox_shifted_power32,
    zero_monotone,
)


def test_prox_shifted_l1_pinned_values():
    assert prox_shifted_l1(1.0, 0.0, np.array([3.0]))[0] == pytest.approx(2.0)
    assert prox_shifted_l1(1.0, 0.0, np.array([0.0]))[0] == 0.0
    # |s - c| <= lambda collapses to the shift
    assert prox_shifted_l1(0.5, 2.0, np.array([2.1]))[0] == pytest.approx(2.0)


def test_prox_shifted_l1_matches_golden_section():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lam = float(rng.uniform(0.01, 4.0))
        c = float(rng.normal(0.0, 2.0))
        s = float(rng.normal(0.0, 4.0))
        got = prox_shifted_l1(lam, c, np.array([s]))[0]
        want = oracles.prox_1d(lambda x: abs(x - c), lam, s)
        assert got == pytest.approx(want, abs=1e-6)


def test_prox_shifted_power32_pinned_values():
    # stationarity w + sqrt(w) = 2 at lambda = 2/3 gives w = 1
    assert prox_shifted_power32(2.0 / 3.0, 0.0,
                                np.array([2.0]))[0] == pytest.approx(1.0)
    assert prox_shifted_power32(5.0, 0.0, np.array([0.0]))[0] == 0.0
    assert prox_shifted_power32(2.0 / 3.0, 1.0,
                                np.array([-1.0]))[0] == pytest.approx(0.0)


def test_prox_shifted_power32_matches_golden_section():
    rng = np.random.default_rng(12)
    for _ in range(200):
        lam = float(rng.uniform(0.01, 4.0))
        c = float(rng.normal(0.0, 2.0))
        s = float(rng.normal(0.0, 4.0))
        got = prox_shifted_power32(lam, c, np.array([s]))[0]
        want = oracles.prox_1d(lambda x: abs(x - c) ** 1.5, lam, s)
        assert got == pytest.approx(want, abs=1e-6)


def test_prox_vectorization_matches_scalar_loop():
    rng = np.random.default_rng(13)
    c = rng.normal(size=40)
    s = rng.normal(size=40)
    for fn in (prox_shifted_l1, prox_shifted_power32):
        batch = fn(0.7, c, s)
        loop = [fn(0.7, ci, np.array([si]))[0] for ci, si in zip(c, s)]
        np.testing.assert_allclose(batch, loop, atol=1e-14)


def test_project_simplex_pinned_values():
    np.testing.assert_allclose(project_simplex(np.full(3, 0.5)),
                               np.full(3, 1.0 / 3.0), atol=1e-14)
    np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0, 0.0])),
                               np.array([1.0, 0.0, 0.0]), atol=1e-14)
    already = np.array([0.4, 0.4, 0.2])
    np.testing.assert_allclose(project_simplex(already), already, atol=1e-14)


def test_project_simplex_matches_kkt_oracle():
    rng = np.random.default_rng(14)
    for _ in range(300):
        s = rng.normal(0.0, 3.0, size=int(rng.integers(1, 15)))
        got = project_simplex(s)
        want = oracles.project_simplex_kkt(s)
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        assert got.min() >= 0.0


def test_affine_gradient_pinned_values():
    np.testing.assert_allclose(
        affine_gradient(np.eye(2), np.zeros(2), np.array([1.0, 2.0])),
        [1.0, 2.0])
    np.testing.assert_allclose(
        affine_gradient(np.zeros((2, 2)), np.ones(2), np.array([9.0, -4.0])),
        [-1.0, -1.0])
    np.testing.assert_allclose(
        affine_gradient(np.diag([2.0, 4.0]), np.array([1.0, 0.0]),
                        np.array([1.0, 1.0])),
        [1.0, 4.0])


def test_affine_gradient_shape_errors():
    with pytest.raises(ShapeError):
        affine_gradient(np.eye(2), np.zeros(3), np.zeros(2))
    with pytest.raises(ShapeError):
        affine_gradient(np.eye(2), np.zeros(2), np.zeros(3))


def test_estimate_cocoercivity_pinned_values():
    assert estimate_cocoercivity(np.eye(3)) == pytest.approx(1.0)
    assert estimate_cocoercivity(np.diag([2.0, 5.0])) == pytest.approx(5.0)
    assert estimate_cocoercivity(np.array([[2.0, 1.0], [1.0, 2.0]])) \
        == pytest.approx(3.0)


def test_estimate_cocoercivity_matches_eigh_on_random_psd():
    rng = np.random.default_rng(15)
    for _ in range(50):
        p = int(rng.integers(1, 12))
        G = rng.normal(size=(p, p))
        A = G @ G.T
        got = estimate_cocoercivity(A)
        assert got == pytest.approx(oracles.eig_max(A), rel=1e-8)


def test_estimate_cocoercivity_rejects_zero_matrix():
    with pytest.raises(DegenerateOperatorError):
        estimate_cocoercivity(np.zeros((3, 3)))


def test_monotone_from_prox_resolvent_is_nonexpansive():
    rng = np.random.default_rng(16)
    op = monotone_from_prox(lambda d, y: prox_shifted_l1(d, 0.0, y),
                            label="l1")
    for _ in range(1000):
        y1 = rng.normal(size=6)
        y2 = rng.normal(size=6)
        d = float(rng.uniform(0.05, 5.0))
        lhs = np.linalg.norm(op.resolvent(d, y1) - op.resolvent(d, y2))
        assert lhs <= np.linalg.norm(y1 - y2) + 1e-12


def test_affine_monotone_resolvent_solves_the_inclusion():
    # J_{dF}(y) solves x + d(Ax + b) = y for F = A(.) + b
    rng = np.random.default_rng(17)
    G = rng.normal(size=(4, 4))
    A = G @ G.T + np.eye(4)
    b = rng.normal(size=4)
    op = affine_monotone(A, b)
    y = rng.normal(size=4)
    x = op.resolvent(0.7, y)
    np.testing.assert_allclose(x + 0.7 * (A @ x + b), y, atol=1e-10)
    with pytest.raises(ShapeError):
        affine_monotone(np.eye(2), np.zeros(3))
    # The kept inverse agrees with a fresh solve, for a symmetric PSD A and
    # a nonsymmetric monotone A (PSD plus skew), with stepsizes interleaved
    # and repeated.
    p = 12
    G = rng.normal(size=(p, p))
    K = rng.normal(size=(p, p))
    steps = rng.uniform(0.05, 5.0, size=4)
    for A in (G @ G.T / p, G @ G.T / p + (K - K.T)):
        b = rng.normal(size=p)
        op = affine_monotone(A, b)
        for d in np.concatenate([steps, steps[::-1], np.repeat(steps, 3)]):
            y = rng.normal(size=p)
            want = np.linalg.solve(np.eye(p) + d * A, y - d * b)
            got = op.resolvent(d, y)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_affine_monotone_inverts_once_per_stepsize(monkeypatch):
    inverted = []
    inv = np.linalg.inv

    def counting_inv(a):
        inverted.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    op = affine_monotone(np.diag([1.0, 2.0, 3.0]), np.ones(3))
    for k in range(100):
        op.resolvent(0.3, np.full(3, float(k)))
    assert len(inverted) == 1
    op.resolvent(1.7, np.ones(3))
    assert len(inverted) == 2


def test_affine_monotone_rejects_bad_stepsize():
    op = affine_monotone(np.eye(2), np.zeros(2))
    for d in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            op.resolvent(d, np.ones(2))


def test_zero_monotone_resolvent_is_identity():
    y = np.array([1.5, -2.0])
    np.testing.assert_allclose(zero_monotone().resolvent(3.0, y), y)


def test_affine_cocoercive_carries_spectral_constant():
    A = np.diag([2.0, 5.0])
    op = affine_cocoercive(A, np.zeros(2))
    assert op.lipschitz == pytest.approx(5.0)
    np.testing.assert_allclose(op.eval(np.array([1.0, 1.0])), [2.0, 5.0])


def test_cocoercive_op_rejects_bad_lipschitz():
    with pytest.raises(InvalidInputError):
        CocoerciveOp(eval=lambda x: x, lipschitz=0.0)
    with pytest.raises(InvalidInputError):
        CocoerciveOp(eval=lambda x: x, lipschitz=-1.0)


def test_problem_validates_structure():
    f = zero_monotone()
    with pytest.raises(InvalidInputError):
        Problem(F=(f,), B=(), dim=2)  # n >= 2
    with pytest.raises(InvalidInputError):
        Problem(F=(f, f), B=(), dim=0)
    prob = Problem(F=(f, f), B=(affine_cocoercive(np.eye(2), np.zeros(2)),),
                   dim=2)
    assert prob.n == 2 and prob.m == 1
    np.testing.assert_allclose(prob.lipschitz, [1.0])
    with pytest.raises(ValueError):
        prob.lipschitz[0] = 2.0  # read-only view
