"""Operator building blocks: proximal maps, resolvents and cocoercive maps.

A problem instance is a finite collection of maximally monotone operators
F_1, ..., F_n accessed through their resolvents J_{dF} = (Id + dF)^{-1},
plus cocoercive operators B_1, ..., B_m accessed through plain evaluation.
The solver looks for x with 0 in (sum_i F_i + sum_j B_j)(x).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import (
    DegenerateOperatorError,
    InvalidInputError,
    ShapeError,
)

__all__ = [
    "MonotoneOp",
    "CocoerciveOp",
    "Problem",
    "prox_shifted_l1",
    "prox_shifted_power32",
    "project_simplex",
    "affine_gradient",
    "estimate_cocoercivity",
    "monotone_from_prox",
    "affine_monotone",
    "zero_monotone",
    "affine_cocoercive",
]


def _check_finite(name, a):
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")


def _check_weight(lam):
    if not 0.0 < lam < math.inf:
        raise InvalidInputError("prox weight must be positive and finite")


def _checked_point(lam, s):
    """The prox weight and evaluation point checked; s as a float array."""
    _check_weight(lam)
    s = np.asarray(s, dtype=float)
    _check_finite("s", s)
    return s


def _shrink_l1(lam, c, s):
    d = s - c
    return c + np.sign(d) * np.maximum(np.abs(d) - lam, 0.0)


def _shrink_power32(lam, c, s):
    d = s - c
    half = 0.75 * lam  # (3 lam / 2) / 2
    q = np.sqrt(half * half + np.abs(d)) - half
    return c + np.sign(d) * q * q


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
    _check_weight(lam)
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_finite("c", c)
    _check_finite("s", s)
    return _shrink_l1(lam, c, s)


def prox_shifted_power32(lam, c, s):
    """Proximal map of t -> lam * sum_i |t_i - c_i|^{3/2} evaluated at s.

    Stationarity for the magnitude w = |t_i - c_i| reads
    w + (3 lam / 2) sqrt(w) = |s_i - c_i|, a quadratic in sqrt(w) whose
    nonnegative root gives the closed form used here.  The map never sticks
    at the shift except when s_i = c_i exactly, because the power 3/2 has a
    vanishing derivative there.
    """
    _check_weight(lam)
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_finite("c", c)
    _check_finite("s", s)
    return _shrink_power32(lam, c, s)


def project_simplex(s):
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold: with u the entries of s in decreasing order, find the
    largest k with u_k > (sum_{i<=k} u_i - 1)/k, set tau to that partial mean
    and clip s - tau at zero.  Exact in exact arithmetic for every p >= 1.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ShapeError("expected a nonempty 1-D array")
    _check_finite("s", s)
    u = np.sort(s)[::-1]
    css = u.cumsum() - 1.0
    mask = u > css / np.arange(1, s.size + 1)
    k = mask.nonzero()[0][-1]
    tau = css[k] / (k + 1.0)
    return np.maximum(s - tau, 0.0)


def affine_gradient(A, b, x):
    """Evaluate x -> A x - b, the gradient of 0.5 x'Ax - b'x for symmetric A."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError("A must be square")
    if b.shape != (A.shape[0],) or x.shape != (A.shape[0],):
        raise ShapeError("b and x must match the side of A")
    _check_finite("x", x)
    return A @ x - b


def estimate_cocoercivity(A, max_sweeps=10_000, rtol=1e-10):
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Uses a fixed deterministic start vector and Rayleigh quotients; stops when
    the quotient is stationary to ``rtol`` relative.  The result is the
    cocoercivity-defining Lipschitz constant of x -> A x.

    Raises
    ------
    DegenerateOperatorError
        If A is the zero matrix.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError("A must be square")
    _check_finite("A", A)
    p = A.shape[0]
    if not np.any(A):
        raise DegenerateOperatorError("zero matrix has no spectral scale")
    # Deterministic start with unequal components so no eigenspace of a
    # structured matrix is missed by symmetry.
    v = 1.0 + np.arange(p) / (p + 1.0)
    v /= np.linalg.norm(v)
    lam = float(v @ (A @ v))
    for _ in range(max_sweeps):
        w = A @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            # Start vector sits in the kernel; nudge toward the largest column.
            j = int(np.argmax(np.linalg.norm(A, axis=0)))
            v = A[:, j] / np.linalg.norm(A[:, j])
            lam = float(v @ (A @ v))
            continue
        v = w / norm
        lam_new = float(v @ (A @ v))
        if abs(lam_new - lam) <= rtol * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
    return lam


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
        if not np.isfinite(self.lipschitz) or self.lipschitz <= 0:
            raise InvalidInputError("cocoercivity constant must be positive")


def monotone_from_prox(prox, label=""):
    """Wrap a prox family ``prox(d, y)`` as a MonotoneOp.

    The prox of a convex function g with weight d is exactly the resolvent of
    d * subdifferential(g).
    """
    return MonotoneOp(resolvent=prox, label=label)


def affine_monotone(A, b, label=""):
    """Monotone operator x -> A x + b; A must be monotone (A + A^T PSD).

    The resolvent returns (I + dA)^{-1} (y - d b).  It keeps the inverse of
    I + dA for the last stepsize d it saw, so repeated calls at one d (a
    scheme uses one per resolvent) each cost one matrix-vector product.  A
    new d costs one full inversion, about 2.5x a linear solve, and replaces
    the kept p x p inverse.  Results match np.linalg.solve to round-off
    while d ||A|| is moderate; accuracy degrades with cond(I + dA).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
        raise ShapeError("A must be square and b must match its side")
    # One (d, inverse) pair, read and replaced whole so threads stay safe.
    kept = (None, None)

    def resolvent(d, y):
        nonlocal kept
        if not np.isfinite(d) or d <= 0:
            raise InvalidInputError("stepsize must be positive and finite")
        kept_d, inv = kept
        if kept_d != d:
            inv = np.linalg.inv(np.eye(A.shape[0]) + d * A)
            kept = (d, inv)
        return inv @ (y - d * b)

    return MonotoneOp(resolvent=resolvent, label=label)


def zero_monotone(label=""):
    """The zero operator; its resolvent is the identity."""
    return MonotoneOp(resolvent=lambda d, y: np.asarray(y, dtype=float).copy(),
                      label=label)


def affine_cocoercive(A, b, lipschitz=None, label=""):
    """Cocoercive operator x -> A x - b for symmetric PSD A.

    When ``lipschitz`` is omitted it is estimated with power iteration.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if lipschitz is None:
        lipschitz = estimate_cocoercivity(A)
    return CocoerciveOp(eval=lambda x: A @ x - b, lipschitz=float(lipschitz),
                        label=label)


class Problem:
    """A monotone inclusion 0 in (sum F_i + sum B_j)(x) on R^dim.

    Requires at least two resolvent-accessed operators; a single-operator
    instance has no consensus structure to split.
    """

    def __init__(self, F, B=(), dim=None):
        self.F = tuple(F)
        self.B = tuple(B)
        if len(self.F) < 2:
            raise InvalidInputError("need at least two resolvent operators")
        if dim is None or int(dim) < 1:
            raise InvalidInputError("dim must be a positive integer")
        self.dim = int(dim)
        self.lipschitz = np.array([op.lipschitz for op in self.B], dtype=float)
        self.lipschitz.flags.writeable = False

    @property
    def n(self):
        return len(self.F)

    @property
    def m(self):
        return len(self.B)

    def __repr__(self):
        return f"Problem(n={self.n}, m={self.m}, dim={self.dim})"
