"""Proximal maps, forward maps and the operator containers."""

import numpy as np
import pytest

import oracles
from splitdev import (
    CocoerciveOp,
    InvalidInputError,
    MonotoneOp,
    Problem,
    ShapeError,
    affine_cocoercive,
    affine_monotone,
    chain_fb,
    estimate_cocoercivity,
    project_simplex,
    prox_shifted_l1,
    prox_shifted_power32,
    validate,
    zero_monotone,
)
from splitdev.markowitz import (
    MarkowitzProblem,
    estimate_moments,
    synthetic_instance,
)
from splitdev.operators import _check_finite


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


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def test_finiteness_screen_is_exact():
    # a sum of these overflows, yet every entry is finite (and no warning)
    _check_finite("s", np.array([1e308, 1e308]))
    prox_shifted_l1(1.0, 0.0, np.array([1e308, 1e308]))
    for bad in ([np.nan], [np.inf], [np.inf, -np.inf],
                [1e308, 1e308, np.nan]):
        bad = np.array(bad)
        for check in (lambda s: _check_finite("s", s),
                      lambda s: prox_shifted_l1(1.0, 0.0, s),
                      lambda s: prox_shifted_power32(1.0, 0.0, s),
                      project_simplex):
            with pytest.raises(InvalidInputError,
                               match="^s contains non-finite entries$"):
                check(bad)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, np.float64(0.75)])
def test_shrinks_keep_the_sign_form_bits(lam):
    # ties at +-lam, d = 0 and signed-zero shifts, against the sign form
    c = np.array([0.0, -0.0, 1.0, 0.25, -2.0, 0.0, -0.0])
    points = [c + lam, c - lam, c, -c, np.zeros(7), -np.zeros(7),
              np.array([-0.0, 0.0, 1.0 + lam, 0.25 - lam, -2.0, lam, -lam])]
    for shift in (c, np.zeros(7), -np.zeros(7)):
        for s in points:
            d = s - shift
            l1 = shift + np.sign(d) * np.maximum(np.abs(d) - lam, 0.0)
            half = 0.75 * lam
            q = np.sqrt(half * half + np.abs(d)) - half
            power = shift + np.sign(d) * q * q
            assert _bits(prox_shifted_l1(lam, shift, s)) == _bits(l1)
            assert _bits(prox_shifted_power32(lam, shift, s)) == _bits(power)
    # scalars stay scalars
    assert type(prox_shifted_l1(1.0, 0.0, -0.5)) is np.float64
    assert type(prox_shifted_power32(1.0, 0.0, -0.5)) is np.float64


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


def test_project_simplex_refuses_entries_past_float_resolution():
    # from about 2^53 up u_1 - 1 rounds to u_1, so no threshold index passes
    for s in ([1e17], [3e16, 1.0, 2.0], [-1e17, -1e17], [9.1e15, 0.0]):
        with pytest.raises(InvalidInputError, match="too large in magnitude"):
            project_simplex(np.array(s))
    np.testing.assert_array_equal(project_simplex(np.array([8e15, 0.0])),
                                  [1.0, 0.0])


def test_affine_cocoercive_eval_pinned_values():
    def grad(A, b, x):
        return affine_cocoercive(A, b, lipschitz=10.0).eval(np.array(x))

    np.testing.assert_allclose(grad(np.eye(2), np.zeros(2), [1.0, 2.0]),
                               [1.0, 2.0])
    np.testing.assert_allclose(grad(np.zeros((2, 2)), np.ones(2), [9.0, -4.0]),
                               [-1.0, -1.0])
    np.testing.assert_allclose(
        grad(np.diag([2.0, 4.0]), np.array([1.0, 0.0]), [1.0, 1.0]),
        [1.0, 4.0])


@pytest.mark.parametrize("make", [affine_monotone, affine_cocoercive])
@pytest.mark.parametrize("A,b,error", [
    (np.eye(2), np.zeros(3), ShapeError),
    (np.eye(2), np.zeros((2, 1)), ShapeError),
    (np.zeros((2, 3)), np.zeros(2), ShapeError),
    (np.ones(2), np.zeros(2), ShapeError),
    (np.eye(2), np.array([0.0, np.nan]), InvalidInputError),
    (np.eye(2), np.array([np.inf, 0.0]), InvalidInputError),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.zeros(2),
     InvalidInputError),
])
def test_affine_constructors_check_their_data(make, A, b, error):
    # refused when built, not at the first resolvent or evaluation
    with pytest.raises(error):
        make(A, b)


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
    with pytest.raises(InvalidInputError):
        estimate_cocoercivity(np.zeros((3, 3)))


def hard_psd_matrices(seed, count=300):
    """Symmetric PSD matrices (p = 3..39) on which lambda_max is hard to hit.

    Each is a near-tied top pair, rank-deficient, or full rank, scaled by a
    factor between 1e-8 and 1e8; B @ B.T keeps it exactly symmetric.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        p = int(rng.integers(3, 40))
        if k % 3 == 0:  # top two eigenvalues 1 and 1 - 10^(-12..-4)
            Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
            eigs = rng.uniform(0.0, 0.5, size=p)
            eigs[:2] = 1.0, 1.0 - 10.0 ** rng.uniform(-12, -4)
            B = Q * np.sqrt(eigs)
        else:  # rank-deficient, then full rank
            rank = int(rng.integers(1, p)) if k % 3 == 1 else p
            B = rng.normal(size=(p, rank))
        yield 10.0 ** rng.uniform(-8, 8) * (B @ B.T)


def test_estimate_cocoercivity_is_an_upper_bound():
    # never below a Rayleigh quotient, each evaluated in extended precision
    for A in hard_psd_matrices(seed=21):
        got = estimate_cocoercivity(A)
        V = np.linalg.eigh(A)[1].astype(np.longdouble)
        quotients = ((V * (A.astype(np.longdouble) @ V)).sum(axis=0)
                     / (V * V).sum(axis=0))
        assert got >= quotients.max()


def test_estimate_cocoercivity_keeps_schemes_valid():
    # a scheme built from the estimate passes the PSD check at lambda_max
    for A in hard_psd_matrices(seed=22):
        scheme = chain_fb(3, 1, [estimate_cocoercivity(A)])
        assert validate(scheme, [np.linalg.eigvalsh(A)[-1]]).passed


def test_estimate_cocoercivity_rejects_asymmetric_or_indefinite():
    with pytest.raises(InvalidInputError, match="symmetric"):
        estimate_cocoercivity(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(InvalidInputError, match="semidefinite"):
        estimate_cocoercivity(np.diag([1.0, -1e-6]))
    with pytest.raises(InvalidInputError):
        affine_cocoercive(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))


def test_estimate_cocoercivity_at_extreme_scales():
    # the allowance's ||A||_F no longer overflows to inf (and lets any matrix
    # through) once entries pass about 1e154, nor underflows to 0 (and
    # refuses round-off asymmetry) below about 1e-162
    with np.errstate(all="raise"):
        with pytest.raises(InvalidInputError, match="semidefinite"):
            estimate_cocoercivity(np.diag([1e160, -1e160]))
        with pytest.raises(InvalidInputError, match="symmetric"):
            estimate_cocoercivity(np.array([[1e160, 1e160], [0.0, 1e160]]))
        got = estimate_cocoercivity(np.diag([1e160, 1e159]))
        tiny = estimate_cocoercivity(
            1e-170 * np.array([[2.0, 1.0], [1.0 + 4e-16, 2.0]]))
    assert np.isfinite(got) and got >= 1e160
    assert tiny == pytest.approx(3e-170, rel=1e-14)


def test_estimate_cocoercivity_near_the_float_maximum():
    # the symmetric part halves before it adds, so 1e308 entries stay finite;
    # a lambda_max of 2e308 overflows and is refused, not returned as NaN
    with np.errstate(all="raise"):
        got = estimate_cocoercivity(np.diag([1e308, 1e308]))
        with pytest.raises(InvalidInputError, match="float range"):
            estimate_cocoercivity(
                np.array([[1e308, -1e308], [-1e308, 1e308]]))
        mp = MarkowitzProblem(np.diag([1e308, 1e308]), np.zeros(2), 6.0,
                              np.array([0.5, 0.5]))
    assert np.isfinite(got) and got >= 1e308
    assert np.array_equal(mp.Lambda, np.diag([1e308, 1e308]))


def test_estimate_cocoercivity_keeps_the_unscaled_bits():
    # the power-of-two scaling changes no bit where ||A||_F was finite
    def unscaled(A):
        tol = float(4 * A.shape[0] * np.finfo(float).eps * np.linalg.norm(A))
        return float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1]) + tol

    for A in hard_psd_matrices(seed=23):
        assert estimate_cocoercivity(A) == unscaled(A)
    Lam, _ = estimate_moments(synthetic_instance(seed=0, days=200,
                                                 assets=53))
    assert estimate_cocoercivity(Lam) == 0.02524968213229084  # criterion 9


def test_prox_resolvent_is_nonexpansive():
    rng = np.random.default_rng(16)
    op = MonotoneOp(lambda d, y: prox_shifted_l1(d, 0.0, y), label="l1")
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


def test_affine_cocoercive_checks_A_when_the_constant_is_given():
    for A in ([[0.0, 1.0], [1.0, 0.0]], [[1.0, 5.0], [0.0, 1.0]]):
        with pytest.raises(InvalidInputError):
            affine_cocoercive(np.array(A), np.zeros(2), lipschitz=1.0)
    A = np.diag([1.0, 2.0])
    with pytest.raises(InvalidInputError, match="below"):
        affine_cocoercive(A, np.zeros(2), lipschitz=1.9)
    # short of lambda_max by round-off only, at or above it, or any for A = 0
    for L in (2.0 * (1.0 - 1e-16), 2.0, 7.0):
        assert affine_cocoercive(A, np.zeros(2), lipschitz=L).lipschitz == L
    assert affine_cocoercive(np.eye(1), np.zeros(1),
                             lipschitz=1.0).lipschitz == 1.0
    assert affine_cocoercive(np.zeros((2, 2)), np.zeros(2),
                             lipschitz=1.0).lipschitz == 1.0


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


@pytest.mark.parametrize("dim", [2.7, True])
def test_problem_dim_is_an_integer(dim):
    with pytest.raises(InvalidInputError, match="dim must be an integer"):
        Problem((zero_monotone(), zero_monotone()), dim=dim)
    assert Problem((zero_monotone(), zero_monotone()), dim=2.0).dim == 2


@pytest.mark.parametrize("build", [
    lambda A: affine_cocoercive(A, np.zeros(0), lipschitz=1.0),
    lambda A: affine_cocoercive(A, np.zeros(0)),
    lambda A: affine_monotone(A, np.zeros(0)),
    estimate_cocoercivity,
], ids=["cocoercive-lipschitz", "cocoercive", "monotone", "estimate"])
def test_empty_matrix_is_refused(build):
    # no Problem can use a 0 x 0 operator, since dim is at least 1
    with pytest.raises(ShapeError, match="^A must not be empty$"):
        build(np.zeros((0, 0)))


@pytest.mark.parametrize("refuse,error", [
    (lambda: project_simplex(np.ones((2, 2))), ShapeError),
    (lambda: project_simplex(np.ones(0)), ShapeError),
    (lambda: CocoerciveOp(lambda x: x, lipschitz=np.nan), InvalidInputError),
    (lambda: Problem((zero_monotone(),), dim=1), InvalidInputError),
    (lambda: Problem((zero_monotone(), zero_monotone())), InvalidInputError),
], ids=["simplex-2d", "simplex-empty", "lipschitz-nan", "one-resolvent",
        "no-dim"])
def test_operators_refusals(refuse, error):
    with pytest.raises(error):
        refuse()
