"""The deviated splitting iteration and its driver.

One iteration, run at relaxation gamma_k with deviation pair (u^k, v^k):

1. Primal sweep.  For i = 1..n,

       x_i = J_{d_i F_i}( d_i [ sum_j M_ij (z_j + v_j)
                                - sum_{j<i} S_ij x_j
                                - sum_j C_ij B_j(sum_{h<i} Q_jh x_h + u_j) ] )

   Each forward operator B_j is evaluated once, at the first row that needs
   it, and the value is reused afterwards; the staircase condition on (C, Q)
   guarantees every primal row the evaluation depends on is already
   available.  The sweep therefore costs exactly n resolvent calls and m
   forward calls.

2. Dual update.  z^{k+1} = z^k - gamma_k M^T x^k, blockwise.

3. Capacity.  l_k^2 = ((1-gamma_k)/gamma_k) ||z^{k+1} - z^k
   + (gamma_k/(1-gamma_k)) v^k||^2 measures how much the step moved; the
   policy may spend xi_k * l_k^2 on the next deviation pair, and the step
   hard-fails if the pair it returns costs more.

With the zero pair this is the plain frugal iteration, and ``step`` then
does only that iteration's arithmetic.
"""

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .deviations import PolicyWindow, ZeroPolicy, deviation_cost
from .exceptions import (
    BudgetViolationError,
    DivergenceError,
    InvalidInputError,
    SchemeValidationError,
    ShapeError,
)
from .scheme import (_all_finite, _check_finite, _integer, _read_only, _real,
                     validate)

__all__ = [
    "ParamSchedule",
    "SolverState",
    "StopRule",
    "Trajectory",
    "SolveResult",
    "step",
    "solve",
]

# solve raises DivergenceError once the fixed-point residual exceeds this
_DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class ParamSchedule:
    """Per-iteration parameters gamma_k and xi_k (theta is the scheme's).

    gamma and xi may be plain floats or callables of the iteration index,
    with epsilon <= gamma_k <= 1 - epsilon and 0 <= xi_k <= 1 - epsilon.
    Frozen, so a constant is read with float and checked once, on
    construction; ``at`` checks a callable's value at each k.
    """

    gamma: Union[float, Callable[[int], float]] = 0.9
    xi: Union[float, Callable[[int], float]] = 0.9
    epsilon: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon"))
        if not 0.0 < self.epsilon < 0.5:
            raise InvalidInputError("epsilon must lie in (0, 0.5)")
        for name in ("gamma", "xi"):
            if not callable(value := getattr(self, name)):
                object.__setattr__(self, name,
                                   self._checked(name, 0, _real(value, name)))

    def at(self, k):
        """(gamma_k, xi_k): a callable's value checked, a constant as is."""
        gamma, xi = self.gamma, self.xi
        if callable(gamma):
            gamma = self._checked("gamma", k, _real(gamma(k), f"gamma_{k}"))
        if callable(xi):
            xi = self._checked("xi", k, _real(xi(k), f"xi_{k}"))
        return gamma, xi

    def _checked(self, name, k, value):
        lo, hi = (self.epsilon if name == "gamma" else 0), 1.0 - self.epsilon
        if not lo <= value <= hi:
            raise InvalidInputError(
                f"{name}_{k} = {value} outside [{lo}, {hi}]")
        return value


@dataclass(slots=True)
class SolverState:
    """Everything the iteration carries from step k to step k + 1.

    x is the primal sweep computed by the most recent step (None before the
    first step); l2 is that step's capacity l_k^2; residual and spread are
    the two parts of its fixed-point residual max(residual, spread),
    ||M^T x|| and the largest distance between blocks of x (None before the
    first step); (u, v) is the deviation pair the NEXT step will apply,
    already checked against the budget xi_k * l_k^2 with the next gamma.
    gamma and xi are the next step's parameters, so xi_k is the xi of the
    state the step started from.
    """

    k: int
    z: np.ndarray
    x: Optional[np.ndarray]
    u: np.ndarray
    v: np.ndarray
    l2: float
    gamma: float
    xi: float
    budget_used: float = 0.0
    resolvent_calls: int = 0
    forward_calls: int = 0
    residual: Optional[float] = None
    spread: Optional[float] = None


@dataclass(frozen=True)
class StopRule:
    """Stopping parameters for ``solve``, checked once, on construction.

    The loop stops after the first step whose measure is below tol: the
    distance ||x_n^k - reference|| with a reference point, otherwise the
    fixed-point residual max(residual, spread).  So a tol <= 0 runs
    exactly max_iter steps.  tol is read by ``_tolerance``: a number, not
    NaN or infinite.  max_iter must be an integer >= 1 (an integral float
    such as 1e6 is taken as that int).  A reference is kept as a read-only
    float copy and must be finite; ``solve`` checks its shape.
    """

    tol: float = 1e-8
    max_iter: int = 10 ** 6
    reference: Optional[np.ndarray] = None

    def __post_init__(self):
        max_iter = _integer(self.max_iter, "max_iter")
        if max_iter < 1:
            raise InvalidInputError("max_iter must be at least 1")
        object.__setattr__(self, "max_iter", max_iter)
        object.__setattr__(self, "tol", _tolerance(self.tol, "tol"))
        if self.reference is not None:
            object.__setattr__(self, "reference", _read_only(self.reference))
            _check_finite("reference", self.reference)


def _tolerance(value, name):
    """value as a float, as ``tol`` and ``ref_tol`` are read; finite."""
    value = _real(value, name)
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} must not be NaN or infinite")
    return value


class Trajectory:
    """Per-iteration diagnostics, exportable as CSV.

    Row k holds the metrics of step k: the dual residual ||M^T x^k||, the
    consensus spread, the capacity l_k^2, the budget actually charged to the
    deviation pair produced at the end of the step, the exact operator call
    counts, and the distance to the reference when one was given.  gamma_k
    and xi_k are kept as columns for analysis but not exported.  With
    ``record_states=True`` every dual iterate z^k is retained as well.

    Each column is an attribute named as in COLUMNS (then ``gamma`` and
    ``xi``); ``append`` takes one value per column, in that order.  The
    counts are ``array('q')`` and the floats ``array('d')``, 8 bytes a
    value; ``dist_to_ref`` is a list, as it holds None without a reference.
    Indexing returns a Python int or float, and ``np.asarray`` of a column
    is zero-copy; use ``list(column)`` before ``json.dumps``.
    """

    # name -> storage: an array typecode, or None for a list
    _FIELDS = {"k": "q", "residual": "d", "spread": "d", "l2": "d",
               "budget_used": "d", "resolvent_calls": "q",
               "forward_calls": "q", "dist_to_ref": None,
               "gamma": "d", "xi": "d"}
    COLUMNS = tuple(_FIELDS)[:-2]  # gamma and xi are not exported

    def __init__(self, record_states=False):
        self._columns = tuple([] if code is None else array(code)
                              for code in self._FIELDS.values())
        vars(self).update(zip(self._FIELDS, self._columns))
        self.z_states = [] if record_states else None

    def __len__(self):
        return len(self.k)

    def append(self, *row):
        if len(row) != len(self._columns):
            raise TypeError(f"a row has {len(self._columns)} values, "
                            f"got {len(row)}")
        # unrolled, one column per value in _FIELDS order; no bound append
        # is cached, as a deep copy would keep it bound to these columns
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = self._columns
        c0.append(row[0]), c1.append(row[1]), c2.append(row[2])
        c3.append(row[3]), c4.append(row[4]), c5.append(row[5])
        c6.append(row[6]), c7.append(row[7]), c8.append(row[8])
        c9.append(row[9])

    def record_state(self, z):
        if self.z_states is not None:
            self.z_states.append(np.array(z))

    def to_csv_text(self):
        """Ints as str, floats with 17 significant digits, None as empty."""
        rows = zip(*self._columns[:len(self.COLUMNS)])
        lines = [",".join(self.COLUMNS)]
        lines.extend(",".join(map(_csv_field, row)) for row in rows)
        return "\n".join(lines) + "\n"


def _csv_field(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


@dataclass
class SolveResult:
    x: np.ndarray
    trajectory: Trajectory
    converged: bool
    iterations: int
    state: SolverState


@functools.lru_cache(maxsize=16)
def _pairs(n):
    """Row indices (i, j) of every pair i < j of n blocks, read-only."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _block_spread(x):
    """max_{i<j} ||x_i - x_j|| over the n >= 2 blocks of x.

    Each squared distance is summed by numpy's pairwise add.reduce over the
    block, and sqrt is monotone and correctly rounded, so the root of the
    largest sum is the largest root.
    """
    first, second = _pairs(x.shape[0])
    diffs = x.take(first, 0)
    diffs -= x.take(second, 0)
    np.square(diffs, out=diffs)
    return math.sqrt(max(np.add.reduce(diffs, 1).tolist()))


def _check_result(value, shape, what, op, k):
    """ShapeError unless an operator's result whose ``.shape`` is missing or
    not ``shape`` has it by np.shape, as a list of the right length has."""
    try:
        got = np.shape(value)
    except ValueError:  # lists of unequal lengths have no shape
        got = "ragged"
    if got != shape:
        raise ShapeError(f"{what} (label {op.label!r}) returned shape "
                         f"{got}, expected {shape}, at step {k}")


def step(problem, scheme, state, schedule, policy):
    """Advance the iteration by one step; the step is the whole iteration.

    Runs the primal sweep of the module docstring (each resolvent and each
    forward map called once), then the dual update, the capacity and the
    residual parts.  Returns the successor state: the new dual point, the
    primal sweep that produced it, the capacity l_k^2, and the
    budget-checked deviation pair for the next step.  Raises
    BudgetViolationError if the policy overspends and DivergenceError on a
    non-finite sweep or capacity.

    Deviation-free steps skip the deviation machinery with bit-identical
    results.  An incoming pair (state.u, state.v) that is all zeros is not
    added into the sweep or the capacity; this is decided from the pair, so
    a nonzero pair is applied whatever the policy.  A policy of exact type
    ZeroPolicy gets no window or ``produce`` call: the next pair is zeros
    with cost 0.0.  Its subclasses take the general path.
    """
    gamma_k = state.gamma
    # count_nonzero is the cheapest exact zero test numpy has (ndarray.any
    # costs about three times as much); NaN counts as nonzero
    deviated = (state.budget_used != 0.0 or np.count_nonzero(state.u)
                or np.count_nonzero(state.v))
    # the sweep's inputs; u is None for the zero forward-input deviation
    z_eff, u = (state.z + state.v, state.u) if deviated else (state.z, None)

    shape = (problem.dim,)  # of each operator's result
    x = np.empty((scheme.n, problem.dim))  # row i is written before read
    acc_rows = scheme.M @ z_eff  # (n, p), row i becomes row i's accumulator
    F, B = problem.F, problem.B
    bvals = [None] * scheme.m
    n_fwd = 0
    for i, (d_i, s_row, forward) in enumerate(scheme.plan):
        acc = acc_rows[i]
        head = x[:i]
        if s_row is not None:
            acc -= s_row @ head
        for j, c_ij, q_row in forward:
            if q_row is not None:
                w = q_row @ head
                b = B[j].eval(w if u is None else w + u[j])
                if getattr(b, "shape", None) != shape:
                    _check_result(b, shape, f"forward map {j}", B[j], state.k)
                bvals[j] = b
                n_fwd += 1
            # 1.0 * b is b, bit for bit
            acc -= bvals[j] if c_ij == 1.0 else c_ij * bvals[j]
        r = F[i].resolvent(d_i, d_i * acc)
        if getattr(r, "shape", None) != shape:
            _check_result(r, shape, f"resolvent {i}", F[i], state.k)
        x[i] = r
    if not _all_finite(x):
        raise DivergenceError(f"non-finite primal sweep at step {state.k}")

    mtx = scheme.M.T @ x
    z_new = state.z - gamma_k * mtx
    dz = z_new - state.z
    shift = dz + (gamma_k / (1.0 - gamma_k)) * state.v if deviated else dz
    l2 = ((1.0 - gamma_k) / gamma_k) * float(
        np.add.reduce(np.square(shift), None))
    flat = mtx.ravel()
    residual, spread = math.sqrt(flat.dot(flat)), _block_spread(x)
    if not math.isfinite(l2):  # a finite sweep can still overflow l2
        raise DivergenceError(f"non-finite capacity l2 = {l2} "
                              f"at step {state.k}")
    budget = state.xi * l2
    gamma_next, xi_next = schedule.at(state.k + 1)
    if type(policy) is ZeroPolicy:
        u_new, v_new, cost = (np.zeros((scheme.m, problem.dim)),
                              np.zeros(dz.shape), 0.0)
    else:
        dw = scheme.Q @ (x - state.x) if state.x is not None else None
        window = PolicyWindow(k=state.k, dz=dz, dw=dw)
        u_new, v_new = policy.produce(window, budget, gamma_next,
                                      scheme.theta, problem.lipschitz)
        u_new = np.asarray(u_new, dtype=float)
        v_new = np.asarray(v_new, dtype=float)
        if (u_new.shape != (scheme.m, problem.dim)
                or v_new.shape != state.v.shape):
            raise ShapeError("policy returned a deviation pair of wrong shape")
        cost = deviation_cost(u_new, v_new, gamma_next, scheme.theta,
                              problem.lipschitz)
        if not math.isfinite(cost) or cost > budget + 1e-12 * (1.0 + budget):
            raise BudgetViolationError(f"deviation cost {cost} exceeds "
                                       f"budget {budget} at step {state.k}")
    return SolverState(k=state.k + 1, z=z_new, x=x, u=u_new, v=v_new, l2=l2,
                       gamma=gamma_next, xi=xi_next, budget_used=cost,
                       resolvent_calls=scheme.n, forward_calls=n_fwd,
                       residual=residual, spread=spread)


def _refuse_unfit(problem, scheme):
    """SchemeValidationError unless ``scheme`` is the problem's n x m and
    passes ``validate`` at the problem's cocoercivity constants."""
    if scheme.n != problem.n or scheme.m != problem.m:
        raise SchemeValidationError(
            f"scheme is {scheme.n}x{scheme.m}, problem needs "
            f"{problem.n}x{problem.m}")
    report = validate(scheme, problem.lipschitz)
    if not report.passed:
        names = [c.name for c in report.failed()]
        raise SchemeValidationError(f"scheme failed checks: {names}")


def solve(problem, scheme, schedule=None, policy=None, stop=None, z0=None,
          record_states=False):
    """Run the iteration until the stop rule fires.

    The scheme is re-validated against the problem's cocoercivity constants
    before the first step; a failing report refuses to run.  Returns a
    SolveResult whose ``x`` is the last primal block (the consensus point
    once converged) and whose ``converged`` flag distinguishes a met
    tolerance from an exhausted iteration cap.  The schedule and stop rule
    were checked when built; before the first step ``solve`` checks what
    needs the problem: the shapes of ``z0`` and the reference, and that
    ``z0`` is finite (InvalidInputError).
    """
    schedule = schedule if schedule is not None else ParamSchedule()
    policy = policy if policy is not None else ZeroPolicy()
    stop = stop if stop is not None else StopRule()
    _refuse_unfit(problem, scheme)

    n, m, p = scheme.n, scheme.m, problem.dim
    if z0 is None:
        z = np.zeros((n - 1, p))
    else:
        z = np.array(z0, dtype=float)
        if z.shape != (n - 1, p):
            raise ShapeError(f"z0 must have shape {(n - 1, p)}")
        _check_finite("z0", z)
    reference = stop.reference
    if reference is not None and reference.shape != (p,):
        raise ShapeError(f"reference must have shape {(p,)}")

    gamma, xi = schedule.at(0)
    state = SolverState(k=0, z=z, x=None, u=np.zeros((m, p)),
                        v=np.zeros((n - 1, p)), l2=0.0, gamma=gamma, xi=xi)
    policy.reset(problem, scheme)
    traj = Trajectory(record_states=record_states)
    traj.record_state(state.z)
    converged = False
    for _ in range(stop.max_iter):
        gamma_k, xi_k = state.gamma, state.xi
        state = step(problem, scheme, state, schedule, policy)
        fp = max(state.residual, state.spread)
        dist = None
        if reference is not None:
            miss = state.x[-1] - reference
            dist = math.sqrt(miss.dot(miss))
        traj.append(state.k - 1, state.residual, state.spread, state.l2,
                    state.budget_used, state.resolvent_calls,
                    state.forward_calls, dist, gamma_k, xi_k)
        traj.record_state(state.z)
        if not math.isfinite(fp) or fp > _DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"residual {fp} beyond {_DIVERGENCE_LIMIT} "
                f"at step {state.k - 1}")
        # the one stop test: tol <= 0 runs exactly max_iter steps
        if (fp if dist is None else dist) < stop.tol:
            converged = True
            break
    return SolveResult(x=state.x[-1].copy(), trajectory=traj,
                       converged=converged, iterations=state.k, state=state)
