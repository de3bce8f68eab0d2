"""Operator building blocks: proximal maps, resolvents and cocoercive maps.

A problem instance is a finite collection of maximally monotone operators
F_1, ..., F_n accessed through their resolvents J_{dF} = (Id + dF)^{-1},
plus cocoercive operators B_1, ..., B_m accessed through plain evaluation.
The solver looks for x with 0 in (sum_i F_i + sum_j B_j)(x).
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import InvalidInputError, ShapeError
from .scheme import (_all_finite, _check_finite, _Frozen, _integer,
                     _positive, _read_only, _roundoff, _symmetric_part)

__all__ = [
    "MonotoneOp",
    "CocoerciveOp",
    "Problem",
    "prox_shifted_l1",
    "prox_shifted_power32",
    "project_simplex",
    "estimate_cocoercivity",
    "affine_monotone",
    "zero_monotone",
    "affine_cocoercive",
]


def _check_weight(lam):
    if not 0.0 < lam < math.inf:
        raise InvalidInputError("prox weight must be positive and finite")


def _checked_point(lam, s):
    """The prox weight and evaluation point checked; s as a float array."""
    _check_weight(lam)
    s = np.asarray(s, dtype=float)
    _check_finite("s", s)
    return s


def _checked_shift(lam, c, s):
    """The prox weight, shift and point checked; c and s as float arrays."""
    _check_weight(lam)
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_finite("c", c)
    _check_finite("s", s)
    return c, s


_ZERO = np.zeros(())  # a 0-d array makes np.maximum cheaper than 0.0 does


# copysign(q, d) is sign(d) * q for q >= 0 except at d = -0.0, which needs
# s = -0.0 and c = +0.0; there c plus either zero is +0.0, so both shrinks
# give the bits of c + sign(d) * q everywhere.
def _shrink_l1(lam, c, s):
    d = s - c
    return c + np.copysign(np.maximum(np.abs(d) - lam, _ZERO), d)


def _shrink_power32(lam, c, s):
    d = s - c
    half = 0.75 * lam  # (3 lam / 2) / 2
    q = np.sqrt(half * half + np.abs(d)) - half
    return c + np.copysign(q * q, d)


def prox_shifted_l1(lam, c, s):
    """Proximal map of t -> lam * ||t - c||_1 evaluated at s.

    Componentwise soft shrinkage toward the shift c:
    t_i = c_i + sign(s_i - c_i) * max(|s_i - c_i| - lam, 0).

    Parameters
    ----------
    lam : float
        Positive prox weight.
    c, s : array_like
        Shift point and evaluation point, broadcast together.
    """
    return _shrink_l1(lam, *_checked_shift(lam, c, s))


def prox_shifted_power32(lam, c, s):
    """Proximal map of t -> lam * sum_i |t_i - c_i|^{3/2} evaluated at s.

    Stationarity for the magnitude w = |t_i - c_i| reads
    w + (3 lam / 2) sqrt(w) = |s_i - c_i|, a quadratic in sqrt(w) whose
    nonnegative root gives the closed form used here.  The map never sticks
    at the shift except when s_i = c_i exactly, because the power 3/2 has a
    vanishing derivative there.
    """
    return _shrink_power32(lam, *_checked_shift(lam, c, s))


def project_simplex(s):
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold: with u the entries of s in decreasing order, find the
    largest k with u_k > (sum_{i<=k} u_i - 1)/k, set tau to that partial mean
    and clip s - tau at zero.  Exact in exact arithmetic for every p >= 1.
    From about 2^53 up, u_1 - 1 rounds to u_1 and no k passes: an entry
    that large raises InvalidInputError.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ShapeError("expected a nonempty 1-D array")
    u = s.copy()
    u.sort()  # np.sort's algorithm without its Python wrapper
    # NaN sorts last, so s is finite exactly when both ends are
    if not (math.isfinite(u[0]) and math.isfinite(u[-1])):
        _check_finite("s", s)
    u = u[::-1]
    css = u.cumsum()
    css -= 1.0
    passing = (u > css / _ranks(s.size)).nonzero()[0]
    if not passing.size:
        raise InvalidInputError(
            "s has an entry too large in magnitude (about 2^53 or more) "
            "to project onto the simplex in floating point")
    k = passing[-1]
    tau = css[k] / (k + 1.0)
    return np.maximum(s - tau, _ZERO)


@functools.lru_cache(maxsize=16)
def _ranks(p):
    """1.0, 2.0, ..., p as a read-only array, shared between calls."""
    ranks = np.arange(1.0, p + 1.0)
    ranks.flags.writeable = False
    return ranks


def _symmetric_psd(A, name):
    """(A + A^T)/2, its computed lambda_max and the allowance tol.

    InvalidInputError is raised unless the square, finite, nonempty A is
    symmetric and PSD up to the ``_roundoff`` tol = 4 p eps ||A||_F, as
    ||A||_F >= ||A||_2.  So a computed lambda_min >= -tol is PSD to
    round-off, and lambda_max + tol is never below the true lambda_max.  A
    spectrum whose bound lambda_max + tol overflows raises it too.
    """
    tol = _roundoff(A.shape[0], (A,))[0]
    if float(np.abs(A - A.T).max()) > tol:
        raise InvalidInputError(f"{name} must be symmetric")
    sym = _symmetric_part(A)
    eigs = np.linalg.eigvalsh(sym)
    top = float(eigs[-1])
    if not (_all_finite(eigs) and math.isfinite(top + tol)):
        raise InvalidInputError(
            f"{name} has eigenvalues beyond the float range")
    if eigs[0] < -tol:
        raise InvalidInputError(f"{name} must be positive semidefinite "
                                f"(lambda_min = {eigs[0]:.3e})")
    return sym, top, tol


def _checked_square(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError("A must be square")
    if not A.size:
        raise ShapeError("A must not be empty")
    _check_finite("A", A)
    return A


def _affine_data(A, b):
    """A square and finite, b finite with A's side; both as read-only float
    copies, so the operator they define keeps the constant it was checked
    with."""
    A = _checked_square(_read_only(A))
    b = _read_only(b)
    if b.shape != (A.shape[0],):
        raise ShapeError(f"b must have shape {(A.shape[0],)}, got {b.shape}")
    _check_finite("b", b)
    return A, b


def estimate_cocoercivity(A):
    """Cocoercivity constant of x -> A x for symmetric PSD A: lambda_max(A).

    One symmetric eigensolve, rounded up by the allowance of
    ``_symmetric_psd``, so the result is never below the true lambda_max.

    Raises
    ------
    InvalidInputError
        If A is not symmetric or not positive semidefinite, if its
        lambda_max is beyond the float range, or if A is the zero matrix,
        which has no cocoercivity constant.
    """
    A = _checked_square(A)
    if not A.any():
        raise InvalidInputError("zero matrix has no spectral scale")
    _, top, tol = _symmetric_psd(A, "A")
    return top + tol


@dataclass(frozen=True)
class MonotoneOp:
    """Maximally monotone operator accessed through its resolvent.

    ``resolvent(d, y)`` must return J_{dF}(y) = (Id + dF)^{-1}(y) for d > 0.
    """

    resolvent: Callable[[float, np.ndarray], np.ndarray]
    label: str = ""


@dataclass(frozen=True)
class CocoerciveOp:
    """(1/L)-cocoercive operator accessed through plain evaluation."""

    eval: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "lipschitz", _positive(
            self.lipschitz, "cocoercivity constant"))


def affine_monotone(A, b, label=""):
    """Monotone operator x -> A x + b; A must be monotone (A + A^T PSD).

    A square and finite and b finite of A's side are checked (ShapeError,
    InvalidInputError) and kept as read-only copies; monotonicity is
    assumed, not checked.

    The resolvent returns (I + dA)^{-1} (y - d b).  It keeps the inverse of
    I + dA for the last stepsize d it saw, so repeated calls at one d (a
    scheme uses one per resolvent) each cost one matrix-vector product.  A
    new d costs one full inversion, about 2.5x a linear solve, and replaces
    the kept p x p inverse.  Results match np.linalg.solve to round-off
    while d ||A|| is moderate; accuracy degrades with cond(I + dA).
    """
    A, b = _affine_data(A, b)
    # One kept (d, inverse, d b) triple; a d equal to the kept one has
    # passed the weight check.
    kept = (None, None, None)

    def resolvent(d, y):
        nonlocal kept
        kept_d, inv, db = kept
        if kept_d != d:
            _check_weight(d)
            inv = np.linalg.inv(np.eye(A.shape[0]) + d * A)
            db = d * b
            kept = (d, inv, db)
        return inv @ (y - db)

    return MonotoneOp(resolvent=resolvent, label=label)


def zero_monotone(label=""):
    """The zero operator; its resolvent is the identity."""
    return MonotoneOp(resolvent=lambda d, y: np.asarray(y, dtype=float).copy(),
                      label=label)


def affine_cocoercive(A, b, lipschitz=None, label=""):
    """Cocoercive operator x -> A x - b for symmetric PSD A.

    A must be square, finite, symmetric and PSD, and b finite of A's side,
    whether or not ``lipschitz`` is given; both are kept as read-only
    copies, so a later change to the caller's A cannot outgrow the
    constant.  When omitted it is
    ``estimate_cocoercivity(A)``; a given one may not fall short of the
    computed lambda_max(A) by more than the round-off allowance
    (InvalidInputError).
    """
    A, b = _affine_data(A, b)
    if lipschitz is None:
        lipschitz = estimate_cocoercivity(A)
    else:
        _, top, tol = _symmetric_psd(A, "A")
        if lipschitz < top - tol:
            raise InvalidInputError(
                f"lipschitz = {lipschitz} is below lambda_max(A) = {top!r}")
    return CocoerciveOp(eval=lambda x: A @ x - b, lipschitz=float(lipschitz),
                        label=label)


class Problem(_Frozen):
    """A monotone inclusion 0 in (sum F_i + sum B_j)(x) on R^dim.

    Requires at least two resolvent-accessed operators; a single-operator
    instance has no consensus structure to split.  Each F entry must be a
    MonotoneOp and each B entry a CocoerciveOp (InvalidInputError).
    Immutable like a Scheme, so n, m and ``lipschitz``, the B's constants
    read-only, match F and B.
    """

    def __init__(self, F, B=(), dim=None):
        F, B = tuple(F), tuple(B)
        if len(F) < 2:
            raise InvalidInputError("need at least two resolvent operators")
        for name, ops, kind in (("F", F, MonotoneOp), ("B", B, CocoerciveOp)):
            for i, op in enumerate(ops):
                if not isinstance(op, kind):
                    raise InvalidInputError(f"{name}[{i}] must be a "
                                            f"{kind.__name__}, got "
                                            f"{type(op).__name__}")
        dim = 0 if dim is None else _integer(dim, "dim")
        if dim < 1:
            raise InvalidInputError("dim must be a positive integer")
        vars(self).update(F=F, B=B, n=len(F), m=len(B), dim=dim,
                          lipschitz=_read_only([op.lipschitz for op in B]))

    def __repr__(self):
        return f"Problem(n={self.n}, m={self.m}, dim={self.dim})"
