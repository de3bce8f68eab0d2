"""Scheme construction and the machine-checked structural assumptions."""

import numpy as np
import pytest

import oracles
from splitdev import (
    CausalityError,
    InvalidInputError,
    Scheme,
    ShapeError,
    build_default_S,
    chain_fb,
    check_kernel_condition,
    check_psd_condition,
    check_row_sums,
    compute_stepsizes,
    davis_yin,
    douglas_rachford,
    find_staircase_vector,
    scheme_from_json,
    scheme_to_json,
    validate,
)

BUILTINS = [douglas_rachford(1.0), davis_yin(1.0), chain_fb(3, 2, (1.0, 1.0))]


def test_kernel_condition_pinned_cases():
    assert check_kernel_condition(np.array([[1.0], [-1.0]])).passed
    bad = check_kernel_condition(np.array([[1.0], [1.0]]))
    assert not bad.passed
    assert check_kernel_condition(np.zeros((2, 1))).passed is False


def test_kernel_witness_semantics():
    # rank-deficient M: witness is a kernel vector of M^T outside span{e}
    M = np.ones((3, 2))
    res = check_kernel_condition(M)
    assert not res.passed
    w = np.asarray(res.witness, dtype=float)
    assert np.linalg.norm(M.T @ w) <= 1e-10
    e = np.ones(3) / np.sqrt(3.0)
    assert np.linalg.norm(w - (w @ e) * e) > 1e-6
    # full rank but M^T e != 0: witness carries the offending column sums
    res2 = check_kernel_condition(np.array([[1.0], [1.0]]))
    assert not res2.passed
    np.testing.assert_allclose(res2.witness, [2.0])


def test_staircase_pinned_cases():
    assert tuple(find_staircase_vector(np.array([[0.0], [1.0]]),
                                       np.array([[1.0, 0.0]]))) == (0, 1)
    assert tuple(find_staircase_vector(np.zeros((4, 0)),
                                       np.zeros((0, 4)))) == (0, 0, 0, 0)
    with pytest.raises(CausalityError):
        find_staircase_vector(np.array([[1.0], [0.0]]),
                              np.array([[0.0, 1.0]]))


def test_staircase_agrees_with_exhaustive_search():
    rng = np.random.default_rng(21)
    found = infeasible = 0
    for _ in range(400):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(0, min(n, 4)))
        C = (rng.random((n, m)) < 0.4).astype(float)
        Q = (rng.random((m, n)) < 0.4).astype(float)
        want = oracles.staircase_feasible(C, Q)
        try:
            got = find_staircase_vector(C, Q)
        except CausalityError:
            got = None
        assert (got is None) == (want is None)
        if got is None:
            infeasible += 1
            continue
        found += 1
        # the returned vector must itself certify the zero patterns
        assert oracles.staircase_feasible(C, Q) is not None
        A = got
        assert A[0] == 0 and A[-1] == m
        assert all(A[i] <= A[i + 1] for i in range(n - 1))
        for i in range(n):
            for j in range(1, m + 1):
                if j > A[i]:
                    assert C[i, j - 1] == 0.0
                else:
                    assert Q[j - 1, i] == 0.0
    # the sampler must exercise both outcomes
    assert found > 30 and infeasible > 30


def test_row_sums_pinned_cases():
    assert check_row_sums(np.array([[0.0], [1.0]]),
                          np.array([[1.0, 0.0]])).passed
    assert check_row_sums(np.array([[0.5], [0.5]]),
                          np.array([[0.3, 0.7]])).passed
    assert not check_row_sums(np.array([[1.0], [1.0]]),
                              np.array([[1.0, 0.0]])).passed


def test_row_sums_name_the_first_bad_sum_as_a_plain_float():
    C = np.array([[0.5], [0.5]])
    assert check_row_sums(C, np.array([[0.25, 0.5]])).detail == \
        "row 1 of Q sums to 0.75"
    overflow = check_row_sums(C, np.array([[1e308, 1e308]]))
    assert overflow.detail == "row 1 of Q sums to inf"
    assert overflow.to_dict()["witness"] is None


def test_build_default_S_satisfies_psd_with_equality():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        M = rng.normal(size=(n, n - 1))
        M -= M.mean(axis=0)  # force M^T e = 0
        m = int(rng.integers(0, n))
        C = np.zeros((n, m))
        Q = np.zeros((m, n))
        for j in range(m):
            C[int(rng.integers(1, n)), j] = 1.0
            Q[j, 0] = 1.0
        L = rng.uniform(0.5, 4.0, size=m)
        S = build_default_S(M, C, Q, L, theta=1.0)
        res = check_psd_condition(S, M, C, Q, L, 1.0)
        assert res.passed
        G = S - M @ M.T
        K = (C.T - Q).T @ np.diag(L) @ (C.T - Q)
        np.testing.assert_allclose(G, K, atol=1e-12)


def test_psd_condition_rejects_indefinite_perturbation():
    dr = douglas_rachford(1.0)
    S_bad = dr.S + np.diag([1.0, -1.0])
    res = check_psd_condition(S_bad, dr.M, dr.C, dr.Q, np.array([]), 1.0)
    assert not res.passed


@pytest.mark.parametrize("L", [1e-10, 1e-9, 1e-8, 1.0, 1e300])
def test_psd_condition_sees_a_wrong_constant_at_any_scale(L):
    # a scheme built for L / 10 is too weak for L, however small or large L is
    assert not validate(chain_fb(3, 1, [L / 10]), [L])["psd"].passed
    assert validate(chain_fb(3, 1, [L]), [L]).passed


def test_compute_stepsizes_pinned_cases():
    gamma = 0.7
    S = (2.0 / gamma) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(compute_stepsizes(S), [gamma, gamma])
    np.testing.assert_allclose(compute_stepsizes(2.0 * np.eye(3)), np.ones(3))
    np.testing.assert_allclose(compute_stepsizes(4.0 * np.eye(2)), [0.5, 0.5])
    with pytest.raises(InvalidInputError):
        compute_stepsizes(np.diag([1.0, 0.0]))


def test_douglas_rachford_matrices_exact():
    sc = douglas_rachford(1.0)
    np.testing.assert_allclose(sc.M, np.sqrt(2.0) * np.array([[1.0], [-1.0]]))
    np.testing.assert_allclose(sc.S, 2.0 * np.array([[1.0, -1.0],
                                                     [-1.0, 1.0]]))
    assert sc.m == 0
    np.testing.assert_allclose(sc.d, [1.0, 1.0])


def test_douglas_rachford_is_chain_fb_at_its_coupling_strength():
    # no forward map: a = sqrt(2/gamma), and S is build_default_S's
    rng = np.random.default_rng(6)
    for _ in range(200):
        gamma, theta = rng.uniform(0.05, 1.5, size=2)
        got = douglas_rachford(gamma, theta)
        want = chain_fb(2, 0, [], theta, scale=np.sqrt(2.0 / gamma))
        for name in ("M", "S", "C", "Q", "d"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()
        assert got.theta == want.theta == theta


def test_a_scheme_without_forward_maps_takes_any_theta():
    # m = 0 has no coupling term, so a theta whose 1/theta overflows
    # leaves S = M M^T instead of inf * 0
    for sc in (chain_fb(3, 0, theta=1e-320),
               douglas_rachford(1.0, theta=5e-324)):
        np.testing.assert_array_equal(sc.S, sc.M @ sc.M.T)
        assert validate(sc).passed


def test_davis_yin_structure():
    sc = davis_yin(1.0)
    assert (sc.n, sc.m) == (2, 1)
    np.testing.assert_allclose(sc.C, [[0.0], [1.0]])
    np.testing.assert_allclose(sc.Q, [[1.0, 0.0]])
    assert sc.d[0] == pytest.approx(1.0)  # a is chosen so d_1 = gamma


def test_davis_yin_is_chain_fb_at_its_coupling_strength():
    # the hand-built three-operator scheme, bit for bit
    rng = np.random.default_rng(5)
    for _ in range(200):
        gamma, theta, L1 = rng.uniform(0.05, 1.5, size=3)
        a2 = 2.0 / gamma - 0.5 * (1.0 + 1.0 / theta) * L1
        if a2 <= 0:
            with pytest.raises(InvalidInputError, match="too large"):
                davis_yin(gamma, theta, [L1])
            continue
        a = np.sqrt(a2)
        M = np.array([[a], [-a]])
        C = np.array([[0.0], [1.0]])
        Q = np.array([[1.0, 0.0]])
        want = Scheme(M, build_default_S(M, C, Q, [L1], theta), C, Q, theta)
        got = davis_yin(gamma, theta, [L1])
        for name in ("M", "S", "C", "Q", "d"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()


def test_chain_fb_sizes_are_integers():
    sc = chain_fb(3.0, 1e0, [1.0])  # integral floats are those ints
    assert (sc.n, sc.m) == (3, 1)
    with pytest.raises(InvalidInputError, match="m must be an integer"):
        chain_fb(3, 1.5, [1.0])
    with pytest.raises(InvalidInputError, match="n must be an integer"):
        chain_fb(2.7, 1, [1.0])
    for flag in (True, np.True_):  # a bool is no integer
        with pytest.raises(InvalidInputError, match="m must be an integer"):
            chain_fb(3, flag, [1.0])


def test_chain_fb_structure_and_staircase():
    sc = chain_fb(3, 2, (1.0, 1.0))
    assert tuple(find_staircase_vector(sc.C, sc.Q)) == (0, 1, 2)
    np.testing.assert_allclose(sc.C.sum(axis=0), np.ones(2))
    np.testing.assert_allclose(sc.Q.sum(axis=1), np.ones(2))
    np.testing.assert_allclose(sc.M.sum(axis=0), np.zeros(2), atol=1e-15)


def test_chain_fb_scale_scales_M_only_structurally():
    base = chain_fb(4, 2, (1.0, 2.0))
    scaled = chain_fb(4, 2, (1.0, 2.0), scale=7.0)
    np.testing.assert_allclose(scaled.M, 7.0 * base.M)
    np.testing.assert_allclose(scaled.C, base.C)
    np.testing.assert_allclose(scaled.Q, base.Q)
    # MM^T term scales by t^2, coupling term does not
    np.testing.assert_allclose(scaled.S - (C_term := scaled.S - scaled.M @ scaled.M.T),
                               49.0 * (base.S - (base.S - base.M @ base.M.T)))
    np.testing.assert_allclose(C_term, base.S - base.M @ base.M.T)
    assert validate(scaled, (1.0, 2.0)).passed
    with pytest.raises(InvalidInputError):
        chain_fb(3, 2, (1.0, 1.0), scale=-1.0)


def test_all_builtins_pass_validation():
    for sc in BUILTINS:
        L = np.ones(sc.m)
        report = validate(sc, L)
        assert report.passed, report.failed()


def test_validation_catches_every_single_entry_mutation():
    rng = np.random.default_rng(23)
    for sc in BUILTINS:
        L = np.ones(sc.m)
        for _ in range(20):
            which = rng.choice(["M", "S", "C", "Q"])
            mat = getattr(sc, which).copy()
            if mat.size == 0:
                continue
            flat = int(rng.integers(mat.size))
            mat.flat[flat] += 0.1
            kwargs = {"M": sc.M, "S": sc.S, "C": sc.C, "Q": sc.Q}
            kwargs[which] = mat
            try:
                mutated = Scheme(kwargs["M"], kwargs["S"], kwargs["C"],
                                 kwargs["Q"], theta=sc.theta)
            except InvalidInputError:
                continue  # construction itself already rejects it
            report = validate(mutated, L)
            assert not report.passed, (which, flat)


def test_scheme_shape_and_theta_validation():
    M = np.array([[1.0], [-1.0]])
    S = 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(InvalidInputError):
        Scheme(M, S, np.zeros((2, 0)), np.zeros((0, 2)), theta=0.0)
    with pytest.raises(ShapeError):
        Scheme(M, S, np.zeros((3, 0)), np.zeros((0, 2)), theta=1.0)
    with pytest.raises(InvalidInputError):
        Scheme(M, S * np.nan, np.zeros((2, 0)), np.zeros((0, 2)), theta=1.0)


@pytest.mark.parametrize("theta", [0.0, -1.0, np.nan, np.inf])
def test_builtins_refuse_a_bad_theta(theta):
    # davis_yin divides by theta before building S; it checks it first
    for build in (lambda: douglas_rachford(1.0, theta=theta),
                  lambda: davis_yin(1.0, theta=theta),
                  lambda: chain_fb(3, 1, (1.0,), theta=theta)):
        with pytest.raises(InvalidInputError, match="theta"):
            build()


@pytest.mark.parametrize("build", [douglas_rachford, davis_yin])
def test_builtins_check_gamma_in_one_place(build):
    for gamma in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="gamma must be positive"):
            build(gamma)
    # 2/gamma overflows: the error names gamma, not M or the scale
    with pytest.raises(InvalidInputError,
                       match="gamma = 1e-320 is so small that 2/gamma"):
        build(1e-320)
    sc = build(1e-307)  # the smallest gammas whose 2/gamma is finite build
    assert np.all(np.isfinite(sc.S)) and sc.d[0] > 0


def test_build_default_S_checks_its_constants():
    M, C, Q = np.array([[1.0], [-1.0]]), np.array([[0.0], [1.0]]), \
        np.array([[1.0, 0.0]])
    with pytest.raises(InvalidInputError, match="positive"):
        build_default_S(M, C, Q, [-1.0], theta=1.0)
    with pytest.raises(ShapeError):
        build_default_S(M, C, Q, [1.0, 1.0], theta=1.0)


def test_build_default_S_degenerate_diagonal_raises():
    # a zero M row with no coupling leaves S_ii = 0
    M = np.array([[0.0], [1.0], [-1.0]])
    with pytest.raises(InvalidInputError):
        build_default_S(M, np.zeros((3, 0)), np.zeros((0, 3)), [], 1.0)


def test_build_default_S_has_no_floor_below_a_finite_stepsize():
    # douglas_rachford(1e13) built as a chain: S_ii = 2e-13 builds
    sc = chain_fb(2, 0, [], scale=np.sqrt(2 / 1e13))
    assert validate(sc).passed
    np.testing.assert_allclose(sc.d, [1e13, 1e13])
    with pytest.raises(InvalidInputError, match="2/S_ii overflows"):
        chain_fb(2, 0, [], scale=1e-160)  # S_ii = 1e-320


def test_stepsize_whose_inverse_overflows_is_refused():
    with pytest.raises(InvalidInputError,
                       match=r"S\[0,0\] = 5e-324 is so small that 2/S_ii"):
        Scheme([[1.0], [-1.0]], np.diag([5e-324, 1.0]), np.zeros((2, 0)),
               np.zeros((0, 2)), 1.0)


@pytest.mark.parametrize("build", [lambda: davis_yin(1.5e-308),
                                   lambda: chain_fb(2, 0, [], scale=1e154)],
                         ids=["davis_yin", "chain_fb"])
def test_symmetric_part_near_the_float_maximum(build):
    # S_ii is about 1e308: the halves are added, so S + S^T never forms
    sc = build()
    assert np.all(np.isfinite(sc.S))
    assert validate(sc, np.ones(sc.m)).passed


def test_json_roundtrip_explicit_and_builtin():
    sc = chain_fb(3, 2, (1.0, 2.0), scale=3.0)
    doc = scheme_to_json(sc)
    back = scheme_from_json(doc, lipschitz=(1.0, 2.0))
    for name in ("M", "S", "C", "Q"):
        np.testing.assert_allclose(getattr(back, name), getattr(sc, name))
    built = scheme_from_json({"builtin": "chain_fb", "n": 3, "m": 2,
                              "L": [1.0, 2.0], "scale": 3.0})
    np.testing.assert_allclose(built.S, sc.S)


def test_scheme_from_json_builds_default_S_when_missing():
    sc = chain_fb(3, 1, (2.0,))
    doc = scheme_to_json(sc)
    del doc["S"]
    doc["L"] = [2.0]
    back = scheme_from_json(doc)
    np.testing.assert_allclose(back.S, sc.S, atol=1e-12)


def test_scheme_from_json_unknown_builtin_kind():
    with pytest.raises(InvalidInputError, match="unknown builtin 'nope'"):
        scheme_from_json({"builtin": "nope", "gamma": 1.0})
    with pytest.raises(InvalidInputError, match=r"unknown builtin \['x'\]"):
        scheme_from_json({"builtin": ["x"]})  # unhashable, still unknown


def test_metric_terms_overflow_without_a_warning():
    # M M^T overflows to inf on the middle row; tier-1 turns warnings into
    # errors, so a numpy overflow warning fails this test
    with pytest.raises(InvalidInputError, match=r"S\[1,1\] = inf"):
        chain_fb(3, 0, scale=1e154)


def test_psd_allowance_stays_finite_near_the_float_maximum():
    # S near 1.3e308, built for L = 1: its norm overflows, the allowance
    # must not, so L = 1e300 is refused
    sc = davis_yin(1.5e-308)
    assert np.abs(sc.S).max() > 1e308
    assert validate(sc, [1.0]).passed
    psd = validate(sc, [1e300])["psd"]
    assert not psd.passed
    assert psd.detail == "lambda_min = -2.000e+300"


@pytest.mark.parametrize("doc", [
    {"builtin": "chain_fb", "n": 3, "m": 1, "sclae": 5},
    {"builtin": "douglas_rachford", "gamma": 1.0, "n": 2},
    {"builtin": "davis_yin", "gamma": 1.0, "S": [[1]]},
], ids=["typo", "n-on-dr", "matrix-on-builtin"])
def test_builtin_document_refuses_a_key_its_builder_does_not_take(doc):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        scheme_from_json(doc)


@pytest.mark.parametrize("doc", [
    {"builtin": "chain_fb", "n": 3, "m": 1, "lipschitz": [1]},
    {"M": [[1], [-1]], "C": [[0], [1]], "Q": [[1, 0]], "theta": 1,
     "lipschitz": [1]},
], ids=["builtin", "explicit"])
def test_documents_name_their_constants_L_only(doc):
    # a lipschitz key is refused even alone, not only next to an L
    with pytest.raises(InvalidInputError, match="constants L, not lipschitz"):
        scheme_from_json(doc)


def test_explicit_document_is_read_by_one_builder_call():
    # the keys of an explicit document are its builder's keywords
    doc = {"M": [[2.0], [-2.0]], "theta": "0.5", "C": [[0.0], [1.0]],
           "Q": [[1.0, 0.0]], "L": [3.0]}
    built = scheme_from_json(doc, lipschitz=[50.0])  # the document's L wins
    M, C, Q = (np.array(doc[key]) for key in ("M", "C", "Q"))
    ref = Scheme(M, build_default_S(M, C, Q, [3.0], 0.5), C, Q, 0.5)
    for name in ("M", "S", "C", "Q"):
        np.testing.assert_array_equal(getattr(built, name), getattr(ref, name))
    del doc["L"]
    np.testing.assert_array_equal(scheme_from_json(doc, [50.0]).S,
                                  build_default_S(M, C, Q, [50.0], 0.5))
    # an empty S is the default one, as an empty C means no forward map
    doc["S"] = []
    np.testing.assert_array_equal(scheme_from_json(doc).S,
                                  build_default_S(M, C, Q, [1.0], 0.5))


def test_builtin_document_passes_its_keys_to_the_builder():
    doc = {"builtin": "chain_fb", "n": 3.0, "m": 1, "L": [2.0],
           "theta": "0.5", "scale": "3"}
    built = scheme_from_json(doc)
    ref = chain_fb(3, 1, [2.0], theta=0.5, scale=3.0)
    for name in ("M", "S", "C", "Q"):
        np.testing.assert_array_equal(getattr(built, name), getattr(ref, name))
    assert built.theta == 0.5


M2 = np.array([[1.0], [-1.0]])
S2 = 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])


@pytest.mark.parametrize("refuse,error", [
    (lambda: Scheme([1.0, -1.0], S2, np.zeros((2, 0)), np.zeros((0, 2)), 1),
     ShapeError),
    (lambda: Scheme(np.ones((2, 2)), S2, np.zeros((2, 0)), np.zeros((0, 2)),
                    1), ShapeError),
    (lambda: Scheme(M2, np.eye(3), np.zeros((2, 0)), np.zeros((0, 2)), 1),
     ShapeError),
    (lambda: Scheme(M2, S2, np.zeros((2, 1)), np.zeros((1, 3)), 1),
     ShapeError),
    (lambda: chain_fb(1, 0), InvalidInputError),
    (lambda: chain_fb(3, 3, (1.0,) * 3), InvalidInputError),
    (lambda: chain_fb(3, -1), InvalidInputError),
    (lambda: chain_fb(3, 0, scale=0.0), InvalidInputError),
    (lambda: chain_fb(3, 0, scale="abc"), InvalidInputError),
    (lambda: scheme_from_json([1, 2]), InvalidInputError),
    (lambda: scheme_from_json({"M": [[1], [-1]]}), InvalidInputError),
    (lambda: scheme_from_json({"theta": 1}), InvalidInputError),
    (lambda: scheme_from_json({"M": [[1], [-1]], "theta": 1, "S": None}),
     ShapeError),
    (lambda: scheme_from_json({"M": [[1]], "theta": 1}), ShapeError),
    (lambda: find_staircase_vector(np.zeros((3, 1)), np.zeros((1, 2))),
     ShapeError),
    (lambda: compute_stepsizes(np.diag([1.0, 0.0])), InvalidInputError),
    (lambda: davis_yin(2.0, 1.0, [2.0]), InvalidInputError),
], ids=["M-1d", "M-square", "S-shape", "Q-shape", "n-below-2", "m-above",
        "m-negative", "scale-zero", "scale-text", "doc-not-object",
        "doc-missing-theta", "doc-missing-M", "doc-null-S", "doc-short-M",
        "staircase-Q-shape", "stepsize-zero", "gamma-too-large"])
def test_scheme_refusals(refuse, error):
    with pytest.raises(error):
        refuse()
