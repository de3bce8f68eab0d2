"""Scheme matrices and their structural checks.

A scheme is the tuple (M, S, C, Q, theta) that wires n resolvent operators
and m cocoercive operators into one fixed-point iteration on n-1 dual blocks:

* M (n x (n-1)) couples the dual blocks to the primal rows; its transpose
  must annihilate exactly the all-ones direction (consensus).
* S (n x n, symmetric) fixes the row-by-row feedback and the stepsize
  diagonal d_i = 2 / S_ii.
* C (n x m) routes forward-operator outputs into primal rows, Q (m x n)
  builds the forward-operator inputs out of primal rows.  Together they must
  admit a nondecreasing staircase vector A with A_1 = 0 and A_n = m, which is
  what lets every forward operator be evaluated exactly once per sweep.
* theta > 0 weighs the forward deviations in the budget and in the
  positive-semidefiniteness condition on S.

``validate`` bundles all checks into a report with machine-checkable
witnesses; the solver refuses schemes whose report fails.
"""

import math
from dataclasses import FrozenInstanceError, dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import CausalityError, InvalidInputError, ShapeError

__all__ = [
    "Scheme",
    "CheckResult",
    "ValidationReport",
    "check_kernel_condition",
    "find_staircase_vector",
    "check_row_sums",
    "check_psd_condition",
    "build_default_S",
    "compute_stepsizes",
    "validate",
    "douglas_rachford",
    "davis_yin",
    "chain_fb",
    "scheme_to_json",
    "scheme_from_json",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    witness: object = None

    def to_dict(self):
        w = self.witness
        if isinstance(w, np.ndarray):
            w = w.tolist()
        elif isinstance(w, (np.floating, np.integer)):
            w = w.item()
        if w is not None and not np.all(np.isfinite(w)):
            w = None  # JSON has no NaN or infinity; the detail names it
        return {"name": self.name, "passed": bool(self.passed),
                "detail": self.detail, "witness": w}


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        return {"passed": bool(self.passed),
                "checks": [c.to_dict() for c in self.checks]}


def compute_stepsizes(S):
    """Stepsize vector d with d_i = 2 / S_ii.

    This is the one check on the diagonal of S: every scheme takes its
    stepsizes here, and ``build_default_S`` refuses what this refuses.

    Raises
    ------
    InvalidInputError
        If an S_ii is not finite and positive, or so small that 2 / S_ii
        overflows: every d_i must be finite and strictly positive.
    """
    diag = np.diag(np.asarray(S, dtype=float))
    with np.errstate(divide="ignore", over="ignore"):
        d = 2.0 / diag
    bad = ~(np.isfinite(d) & (d > 0.0))
    if bad.any():
        # the smallest S_ii is at fault, unless only an infinite one is
        i = int(np.argmin(diag))
        i = i if bad[i] else int(np.argmax(diag))
        why = ("is so small that 2/S_ii overflows" if d[i] == np.inf
               and diag[i] > 0.0 else "gives no positive stepsize")
        raise InvalidInputError(f"S[{i},{i}] = {diag[i]} {why}")
    return d


def check_kernel_condition(M):
    """Kernel of M^T must be exactly the span of the all-ones vector.

    Equivalent to rank(M) = n - 1 together with M^T e = 0, both judged
    against the singular-value tolerance 1e-10 * ||M||.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    U, sv, _ = np.linalg.svd(M, full_matrices=True)
    scale = sv[0] if sv.size else 0.0
    tol = 1e-10 * scale
    rank = int(np.sum(sv > tol))
    colsums = M.T @ np.ones(n)
    if rank != n - 1:
        # Kernel of M^T is at least 2-D; exhibit a kernel vector that is not
        # a multiple of the all-ones direction.
        e = np.ones(n) / np.sqrt(n)
        witness = None
        for u in U[:, rank:].T:
            perp = u - (u @ e) * e
            if np.linalg.norm(perp) > 1e-8:
                witness = perp / np.linalg.norm(perp)
                break
        return CheckResult("kernel", False,
                           f"rank(M) = {rank}, expected {n - 1}",
                           witness=witness)
    if colsums.size and np.max(np.abs(colsums)) > tol:
        j = int(np.argmax(np.abs(colsums)))
        return CheckResult("kernel", False,
                           f"column {j + 1} of M sums to {colsums[j]:.3e}",
                           witness=colsums)
    return CheckResult("kernel", True, f"rank {rank}, consensus kernel")


def find_staircase_vector(C, Q):
    """Smallest nondecreasing staircase vector A compatible with (C, Q).

    A has n integer entries in [0, m] with A_1 = 0 and A_n = m.  Row i of C
    may only use forward outputs j <= A_i, and forward input j may only use
    primal rows h with A_h < j.  The minimal admissible A is filled greedily;
    if even it fails, no staircase vector exists.

    Returns the vector as an int array.  Raises CausalityError with the
    violating entry when the pair is infeasible.
    """
    C = np.asarray(C, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n, m = C.shape
    if Q.shape != (m, n):
        raise ShapeError(f"Q must be {(m, n)}, got {Q.shape}")

    # Per-row bounds implied by the sparsity patterns, in 1-based j.
    lo = np.zeros(n, dtype=int)
    hi = np.full(n, m, dtype=int)
    for i in range(n):
        used = np.nonzero(C[i])[0]
        if used.size:
            lo[i] = used[-1] + 1
        feeds = np.nonzero(Q[:, i])[0]
        if feeds.size:
            hi[i] = feeds[0]  # A_i <= (first 1-based j using row i) - 1

    if lo[0] > 0:
        raise CausalityError(
            f"row 1 reads forward output {lo[0]} via C[1,{lo[0]}] "
            f"but A_1 must be 0")
    A = np.zeros(n, dtype=int)
    for i in range(1, n):
        A[i] = max(A[i - 1], lo[i])
        if A[i] > hi[i]:
            raise CausalityError(
                f"row {i + 1} needs A >= {A[i]} but forward input "
                f"{hi[i] + 1} already reads it (Q[{hi[i] + 1},{i + 1}])")
    if hi[n - 1] < m:
        raise CausalityError(
            f"forward input {hi[n - 1] + 1} reads the last row "
            f"(Q[{hi[n - 1] + 1},{n}]), so A_n cannot reach {m}")
    A[n - 1] = m
    return A


def check_row_sums(C, Q):
    """Columns of C and rows of Q must each sum to one (tolerance 1e-12)."""
    C = np.asarray(C, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n, m = C.shape
    with np.errstate(over="ignore"):  # an infinite sum fails as any other
        csums, qsums = C.sum(axis=0), Q.sum(axis=1)
    bad_c = np.abs(csums - 1.0) > 1e-12
    bad_q = np.abs(qsums - 1.0) > 1e-12
    if m and bad_c.any():
        j = int(np.nonzero(bad_c)[0][0])
        return CheckResult("row_sums", False,
                           f"column {j + 1} of C sums to {float(csums[j])!r}",
                           witness=csums)
    if m and bad_q.any():
        j = int(np.nonzero(bad_q)[0][0])
        return CheckResult("row_sums", False,
                           f"row {j + 1} of Q sums to {float(qsums[j])!r}",
                           witness=qsums)
    return CheckResult("row_sums", True, "all C columns and Q rows sum to 1")


class _Frozen:
    """Fields set once, through ``vars(self)``; == and hash by identity."""

    def __setattr__(self, name, *value):
        raise FrozenInstanceError(
            f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


def _read_only(a):
    """A read-only float copy of a."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _all_finite(a):
    # exact, and half the cost of isfinite(a).all() at small sizes; a screen
    # through a.sum() would warn where a sum of finite entries overflows
    return np.count_nonzero(np.isfinite(a)) == a.size


def _check_finite(name, a):
    if not _all_finite(a):
        raise InvalidInputError(f"{name} contains non-finite entries")


def _real(value, name):
    """value as a float, or InvalidInputError naming ``name``."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(
            f"{name} must be a number, got {value!r}") from None


def _positive(value, name):
    """value as a float; InvalidInputError unless finite and positive."""
    value = _real(value, name)
    if not 0.0 < value < math.inf:
        raise InvalidInputError(f"{name} must be positive")
    return value


def _integer(value, name):
    """value as an int; InvalidInputError for a bool or a non-integral value."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)  # exact, however large
    if isinstance(value, str) and value.isdecimal():
        return int(value)  # a policy string's seed, exact however long
    if (isinstance(value, (bool, np.bool_))
            or not _real(value, name).is_integer()):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(float(value))


def _natural(value, name):
    """value as an int >= 0, such as a seed; InvalidInputError otherwise."""
    value = _integer(value, name)
    if value < 0:
        raise InvalidInputError(f"{name} must be at least 0, got {value}")
    return value


def _cocoercivity_constants(lipschitz, m):
    """The m constants L_j as an (m,) float array, each finite and positive."""
    L = np.asarray(lipschitz, dtype=float)
    if L.shape != (m,):
        raise ShapeError(f"need {m} cocoercivity constants, got {L.shape}")
    if not _all_finite(L) or np.any(L <= 0):
        raise InvalidInputError("cocoercivity constants must be positive")
    return L


def _coupling_weight(theta):
    """(1/2)(1 + 1/theta), the weight of the forward coupling in S."""
    return 0.5 * (1.0 + 1.0 / theta)


def _symmetric_part(a):
    """(a + a^T)/2, halved before it adds, so it cannot overflow."""
    return 0.5 * a + 0.5 * a.T


def _roundoff(n, terms, ord=None):
    """(tol, norms): tol = 4 n eps (sum of the norms of ``terms``).

    tol bounds the round-off in each computed eigenvalue of an n x n
    symmetric G formed from ``terms``: forming G perturbs it by a few eps
    times their sizes, and the symmetric eigensolver is backward stable, so
    by Weyl each computed eigenvalue is within c n eps ||G||_2 of the true
    one (c modest; tol takes c = 4).  ``ord`` is numpy's, None (Frobenius)
    or 2.  Each norm is taken of its term divided by the power of two just
    above the largest entry of any term, then multiplied back: the scaling
    is exact, so tol keeps its bits wherever the plain norms neither
    overflow nor underflow, and stays finite near the float maximum.
    """
    e = math.frexp(max(float(np.abs(a).max(initial=0.0)) for a in terms))[1]
    norms = [float(np.linalg.norm(np.ldexp(a, -e), ord)) for a in terms]
    with np.errstate(over="ignore"):  # a norm past the float maximum is inf
        return (math.ldexp(4 * n * np.finfo(float).eps * sum(norms), e),
                [float(np.ldexp(norm, e)) for norm in norms])


def _metric_terms(M, C, Q, lipschitz, theta):
    """M M^T and K = (1/2)(1 + 1/theta) (C^T - Q)^T diag(L) (C^T - Q).

    An entry past the float maximum comes out infinite, with no warning:
    the callers judge it, ``compute_stepsizes`` and the PSD check.
    """
    T = C.T - Q  # (m, n)
    L = np.asarray(lipschitz, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        K = T.T @ (L[:, None] * T) if T.size else np.zeros((C.shape[0],) * 2)
        # m = 0 has no coupling term, even where 1/theta overflows
        return M @ M.T, _coupling_weight(theta) * K if T.size else K


def check_psd_condition(S, M, C, Q, lipschitz, theta):
    """S - M M^T - (1/2)(1 + 1/theta) (C^T - Q)^T diag(L) (C^T - Q) >= 0.

    Judged on the symmetrized remainder G against the round-off allowance
    (``_roundoff``) tol = 4 n eps (||S||_2 + ||M M^T||_2 + ||K||_2), K the
    scaled coupling term, as ||G||_2 is at most that sum.  So lambda_min >=
    -tol is PSD to round-off, and since tol scales with the terms a wrong L
    is seen however small it is.  A G that is not finite fails before any
    eigensolve, and one whose computed lambda_min is not finite fails as
    well.  Also requires the total sum of S, the consensus direction
    e^T S e, to vanish, to within 1e-10 (1 + ||S||_2).
    """
    S = np.asarray(S, dtype=float)
    MMt, K = _metric_terms(np.asarray(M, dtype=float), C, Q, lipschitz, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        G = _symmetric_part(S - MMt - K)
    lam_min = (float(np.linalg.eigvalsh(G)[0]) if _all_finite(G)
               else math.inf)
    if not math.isfinite(lam_min):
        return CheckResult("psd", False, "S - M M^T - K overflows")
    tol, (s_norm, _, _) = _roundoff(S.shape[0], (S, MMt, K), 2)
    esum = float(S.sum())
    ok_psd = lam_min >= -tol
    ok_zero = abs(esum) <= 1e-10 * (1.0 + s_norm)
    if not ok_psd:
        return CheckResult("psd", False,
                           f"lambda_min = {lam_min:.3e}", witness=lam_min)
    if not ok_zero:
        return CheckResult("psd", False,
                           f"e^T S e = {esum:.3e}, expected 0", witness=esum)
    return CheckResult("psd", True, f"lambda_min = {lam_min:.3e}",
                       witness=lam_min)


def build_default_S(M, C, Q, lipschitz, theta):
    """The canonical S: M M^T + (1/2)(1 + 1/theta) (C^T - Q)^T diag(L) (C^T - Q).

    This choice meets the positive-semidefiniteness condition with equality,
    which maximizes the stepsizes d_i = 2 / S_ii among admissible diagonals.
    A diagonal that ``compute_stepsizes`` refuses, such as the S_ii = 0 of
    an uncoupled row, raises its InvalidInputError.
    """
    M = np.asarray(M, dtype=float)
    C = np.asarray(C, dtype=float)
    Q = np.asarray(Q, dtype=float)
    L = _cocoercivity_constants(lipschitz, C.shape[1])
    MMt, K = _metric_terms(M, C, Q, L, _positive(theta, "theta"))
    S = _symmetric_part(MMt + K)
    compute_stepsizes(S)
    return S


class SweepRow(NamedTuple):
    """What primal row i of a sweep reads, fixed by the scheme matrices.

    ``d`` is the stepsize d_i and ``s`` the feedback row S[i, :i] (None for
    the first row).  ``forward`` lists (j, C_ij, q) for every nonzero C_ij in
    column order; q is the input row Q[j, :i] when row i is the first to
    read B_j, so B_j is evaluated there, and None when an earlier row
    already did.
    """

    d: np.float64
    s: Optional[np.ndarray]
    forward: tuple


def _sweep_plan(d, S, C, Q):
    plan = []
    seen = set()
    for i in range(C.shape[0]):
        forward = []
        for j in np.nonzero(C[i])[0].tolist():
            forward.append((j, C[i, j], None if j in seen else Q[j, :i]))
            seen.add(j)
        plan.append(SweepRow(d[i], S[i, :i] if i else None, tuple(forward)))
    return tuple(plan)


class Scheme(_Frozen):
    """Immutable bundle (M, S, C, Q, theta) plus derived stepsize data.

    Checked and set once, on construction, with read-only matrices, so the
    sizes n and m, the stepsizes d with d_i = 2/S_ii and ``plan``, one
    SweepRow per primal row for the solver's sweep, never go stale.  theta
    is the one the solver uses for the deviation budget.
    """

    def __init__(self, M, S, C, Q, theta):
        M, S, C, Q = map(_read_only, (M, S, C, Q))
        if M.ndim != 2:
            raise ShapeError("M must be 2-D")
        n = M.shape[0]
        if n < 2 or M.shape[1] != n - 1:
            raise ShapeError(f"M must be n x (n-1) with n >= 2, got {M.shape}")
        if S.shape != (n, n):
            raise ShapeError(f"S must be {(n, n)}, got {S.shape}")
        if C.ndim != 2 or C.shape[0] != n:
            raise ShapeError(f"C must have {n} rows, got {C.shape}")
        m = C.shape[1]
        if Q.shape != (m, n):
            raise ShapeError(f"Q must be {(m, n)}, got {Q.shape}")
        for name, a in (("M", M), ("S", S), ("C", C), ("Q", Q)):
            _check_finite(name, a)

        theta = _positive(theta, "theta")
        d = _read_only(compute_stepsizes(S))
        vars(self).update(M=M, S=S, C=C, Q=Q, theta=theta, n=n, m=m, d=d,
                          plan=_sweep_plan(d, S, C, Q))

    def __repr__(self):
        return f"Scheme(n={self.n}, m={self.m}, theta={self.theta})"


def validate(scheme, lipschitz=None):
    """Run every structural check and return the report.

    ``lipschitz`` lists the cocoercivity constants L_j of the forward
    operators the scheme will drive; it defaults to all ones, which is only
    adequate for m = 0 or exploratory use.
    """
    lipschitz = _cocoercivity_constants(
        np.ones(scheme.m) if lipschitz is None else lipschitz, scheme.m)

    checks = []
    S = scheme.S
    asym = float(np.max(np.abs(S - S.T))) if S.size else 0.0
    tol = 1e-12 * (1.0 + float(np.max(np.abs(S))))
    checks.append(CheckResult("symmetric_s", asym <= tol,
                              f"max |S - S^T| = {asym:.3e}", witness=asym))
    checks.append(check_kernel_condition(scheme.M))
    checks.append(check_row_sums(scheme.C, scheme.Q))
    try:
        A = find_staircase_vector(scheme.C, scheme.Q)
        checks.append(CheckResult("causality", True,
                                  f"staircase vector {A.tolist()}", witness=A))
    except CausalityError as exc:
        checks.append(CheckResult("causality", False, str(exc)))
    checks.append(check_psd_condition(S, scheme.M, scheme.C, scheme.Q,
                                      lipschitz, scheme.theta))
    return ValidationReport(checks)


def _two_block(gamma, theta, lipschitz, m):
    """chain_fb(2, m) at the coupling a in M = a [1; -1] that makes the
    stepsizes d_1 = d_2 = gamma: a^2 = 2/gamma - (1/2)(1 + 1/theta) sum(L)."""
    gamma = _positive(gamma, "gamma")
    if not np.isfinite(2.0 / gamma):
        raise InvalidInputError(f"gamma = {gamma!r} is so small that 2/gamma "
                                "overflows")
    theta = _positive(theta, "theta")
    L = _cocoercivity_constants(np.ravel(lipschitz), m)
    # weigh, then sum: with no forward map the term is 0 even at 1/theta inf
    a2 = 2.0 / gamma - (_coupling_weight(theta) * L).sum()
    if a2 <= 0:
        raise InvalidInputError(f"gamma = {gamma} too large for L_1 = "
                                f"{L.sum()}: no positive coupling")
    return chain_fb(2, m, L, theta, scale=np.sqrt(a2))


def douglas_rachford(gamma, theta=1.0):
    """Douglas-Rachford with prox weight gamma: the two-block rule, m = 0."""
    return _two_block(gamma, theta, (), 0)


def davis_yin(gamma, theta=1.0, lipschitz=(1.0,)):
    """Three-operator scheme (two resolvents, one forward map).

    It is chain_fb(2, 1) at the coupling strength a in M = a [1; -1] that
    makes the stepsizes d_1 = d_2 = gamma, which requires
    gamma < 4 / ((1 + 1/theta) L_1).
    """
    return _two_block(gamma, theta, lipschitz, 1)


def chain_fb(n, m, lipschitz=(), theta=1.0, scale=1.0):
    """Chain-ordered scheme for n resolvents and m forward maps (m <= n - 1).

    M is the chain incidence matrix (columns e_j - e_{j+1}) times `scale`,
    forward output j feeds row j + 1 only, and forward input j averages rows
    1..j.  The staircase vector is (0, 1, ..., m, m, ..., m).

    `scale` trades primal against dual progress (the kernel, row-sum and
    causality checks are scale-invariant, and S follows M through
    build_default_S).  The default suits mildly conditioned problems; raising
    it shortens the resolvent steps d_i and is often much faster when the
    resolvents are cheap kinks and the smooth parts carry the curvature.
    """
    n = _integer(n, "n")
    m = _integer(m, "m")
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if not 0 <= m <= n - 1:
        raise InvalidInputError("need 0 <= m <= n - 1")
    scale = _positive(scale, "scale")
    M = np.zeros((n, n - 1))
    idx = np.arange(n - 1)
    M[idx, idx] = scale
    M[idx + 1, idx] = -scale
    C = np.zeros((n, m))
    C[np.arange(1, m + 1), np.arange(m)] = 1.0
    Q = np.zeros((m, n))
    for j in range(m):
        Q[j, :j + 1] = 1.0 / (j + 1)
    S = build_default_S(M, C, Q, lipschitz, theta)
    return Scheme(M, S, C, Q, theta)


_BUILTINS = {
    "douglas_rachford": douglas_rachford,
    "davis_yin": davis_yin,
    "chain_fb": chain_fb,
}


def scheme_to_json(scheme):
    """Plain-dict form with keys M, S, C, Q, theta (row-major nested lists)."""
    return {
        "M": scheme.M.tolist(),
        "S": scheme.S.tolist(),
        "C": scheme.C.tolist(),
        "Q": scheme.Q.tolist(),
        "theta": scheme.theta,
    }


def _matrix(value, key, empty_shape):
    """value as a 2-D float array; an empty one gives zeros of empty_shape."""
    a = np.asarray(value, dtype=float)
    if not a.size:
        return np.zeros(empty_shape)
    if a.ndim != 2:
        raise ShapeError(f"{key} must be a nested list of rows, "
                         f"got shape {a.shape}")
    return a


def _explicit_scheme(M=None, theta=None, S=(), C=(), Q=(), lipschitz=None):
    """The scheme an explicit document spells out; ``Scheme`` checks shapes.

    A missing or empty S is ``build_default_S``'s, as an empty C means no
    forward map; the constants default to all ones.
    """
    if M is None or theta is None:
        raise InvalidInputError("scheme document missing key "
                                f"{'M' if M is None else 'theta'!r}")
    M = _matrix(M, "M", (0, 0))
    C = _matrix(C, "C", (len(M), 0))
    Q = _matrix(Q, "Q", (C.shape[1], len(M)))
    if not np.size(S):
        S = build_default_S(M, C, Q, np.ones(C.shape[1]) if lipschitz is None
                            else lipschitz, theta)
    return Scheme(M, S, C, Q, theta)


def scheme_from_json(doc, lipschitz=None):
    """Build a Scheme from its dict form by one builder call.

    A document holds explicit matrices (keys M, theta and optional S, C, Q,
    L) or names a builtin: {"builtin": name, ...params}.  Every other key
    goes to the builder, L as ``lipschitz``, so one the builder does not
    take raises TypeError; a ``lipschitz`` key and a null L are refused.
    ``lipschitz`` is the default L of an explicit document.
    """
    if not isinstance(doc, dict):
        raise InvalidInputError("scheme document must be a JSON object")
    if "lipschitz" in doc:
        raise InvalidInputError("a scheme document names its cocoercivity "
                                "constants L, not lipschitz")
    if "L" in doc and doc["L"] is None:
        raise InvalidInputError("L must be a list of constants, not null")
    params = {"lipschitz" if key == "L" else key: value
              for key, value in doc.items() if key != "builtin"}
    if "builtin" not in doc:
        return _explicit_scheme(**{"lipschitz": lipschitz, **params})
    names = sorted(_BUILTINS)  # a list: an unhashable name is just unknown
    if doc["builtin"] not in names:
        raise InvalidInputError(f"unknown builtin {doc['builtin']!r}; "
                                f"choose from {names}")
    return _BUILTINS[doc["builtin"]](**params)
