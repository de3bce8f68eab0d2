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
"""

import math
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
from .scheme import validate

__all__ = [
    "ParamSchedule",
    "SolverState",
    "StopRule",
    "Trajectory",
    "SolveResult",
    "deviation_budget",
    "fixed_point_residual",
    "extract_solution",
    "step",
    "solve",
    "dr_reference_step",
]


@dataclass
class ParamSchedule:
    """Per-iteration parameters gamma_k, xi_k and the fixed weight theta.

    gamma and xi may be plain floats or callables of the iteration index.
    Values are checked on access: epsilon <= gamma_k <= 1 - epsilon and
    0 <= xi_k <= 1 - epsilon; a constant is also checked on construction.
    """

    gamma: Union[float, Callable[[int], float]] = 0.9
    xi: Union[float, Callable[[int], float]] = 0.9
    theta: float = 1.0
    epsilon: float = 1e-3

    def __post_init__(self):
        if not np.isfinite(self.theta) or self.theta <= 0:
            raise InvalidInputError("theta must be positive")
        if not 0.0 < self.epsilon < 0.5:
            raise InvalidInputError("epsilon must lie in (0, 0.5)")
        if not callable(self.gamma):
            self.gamma_at(0)
        if not callable(self.xi):
            self.xi_at(0)

    def gamma_at(self, k):
        g = float(self.gamma(k)) if callable(self.gamma) else float(self.gamma)
        if not self.epsilon <= g <= 1.0 - self.epsilon:
            raise InvalidInputError(
                f"gamma_{k} = {g} outside [{self.epsilon}, {1 - self.epsilon}]")
        return g

    def xi_at(self, k):
        x = float(self.xi(k)) if callable(self.xi) else float(self.xi)
        if not 0.0 <= x <= 1.0 - self.epsilon:
            raise InvalidInputError(
                f"xi_{k} = {x} outside [0, {1 - self.epsilon}]")
        return x


@dataclass
class SolverState:
    """Everything the iteration carries from step k to step k + 1.

    x is the primal sweep computed by the most recent step (None before the
    first step); l2 is that step's capacity l_k^2; residual and spread are
    the two parts of its fixed-point residual, ||M^T x|| and the largest
    distance between blocks of x (None before the first step); (u, v) is
    the deviation pair the NEXT step will apply, already checked against
    the budget xi_k * l_k^2 with the next gamma.
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


@dataclass
class StopRule:
    """Stopping parameters for ``solve``.

    With a reference point the loop stops when ||x_n^k - reference|| < tol,
    otherwise when the fixed-point residual drops to tol.  Residuals above
    divergence_limit abort with DivergenceError.
    """

    tol: float = 1e-8
    max_iter: int = 10 ** 6
    reference: Optional[np.ndarray] = None
    divergence_limit: float = 1e12


class Trajectory:
    """Per-iteration diagnostics, exportable as CSV.

    Row k holds the metrics of step k: the dual residual ||M^T x^k||, the
    consensus spread, the capacity l_k^2, the budget actually charged to the
    deviation pair produced at the end of the step, the exact operator call
    counts, and the distance to the reference when one was given.  gamma_k
    and xi_k are kept as arrays for analysis but not exported.  With
    ``record_states=True`` every dual iterate z^k is retained as well.
    """

    COLUMNS = ("k", "residual", "spread", "l2", "budget_used",
               "resolvent_calls", "forward_calls", "dist_to_ref")

    def __init__(self, record_states=False):
        self.k = []
        self.residual = []
        self.spread = []
        self.l2 = []
        self.budget_used = []
        self.resolvent_calls = []
        self.forward_calls = []
        self.dist_to_ref = []
        self.gamma = []
        self.xi = []
        self.z_states = [] if record_states else None

    def __len__(self):
        return len(self.k)

    def append(self, k, residual, spread, l2, budget_used, resolvent_calls,
               forward_calls, dist_to_ref, gamma, xi):
        self.k.append(int(k))
        self.residual.append(float(residual))
        self.spread.append(float(spread))
        self.l2.append(float(l2))
        self.budget_used.append(float(budget_used))
        self.resolvent_calls.append(int(resolvent_calls))
        self.forward_calls.append(int(forward_calls))
        self.dist_to_ref.append(None if dist_to_ref is None
                                else float(dist_to_ref))
        self.gamma.append(float(gamma))
        self.xi.append(float(xi))

    def record_state(self, z):
        if self.z_states is not None:
            self.z_states.append(np.array(z))

    def to_csv_text(self):
        lines = [",".join(self.COLUMNS)]
        for i in range(len(self.k)):
            dist = self.dist_to_ref[i]
            lines.append(",".join([
                str(self.k[i]),
                format(self.residual[i], ".17g"),
                format(self.spread[i], ".17g"),
                format(self.l2[i], ".17g"),
                format(self.budget_used[i], ".17g"),
                str(self.resolvent_calls[i]),
                str(self.forward_calls[i]),
                "" if dist is None else format(dist, ".17g"),
            ]))
        return "\n".join(lines) + "\n"

    def to_csv(self, path):
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(self.to_csv_text())


@dataclass
class SolveResult:
    x: np.ndarray
    trajectory: Trajectory
    converged: bool
    iterations: int
    state: SolverState


def deviation_budget(l2, xi):
    """Capacity the next deviation pair may spend: xi_k * l_k^2."""
    if not 0.0 <= l2 < math.inf:
        raise InvalidInputError(f"l2 = {l2} must be finite and nonnegative")
    return xi * l2


def _block_spread(x):
    if x.shape[0] < 2:
        return 0.0
    diffs = x[:, None, :] - x[None, :, :]
    return float(np.sqrt(np.square(diffs).sum(axis=2)).max())


def _residual_parts(mtx, x):
    """(||M^T x||, block spread of x), given mtx = M^T x."""
    flat = mtx.ravel()
    return math.sqrt(flat.dot(flat)), _block_spread(x)


def fixed_point_residual(state, scheme):
    """max(||M^T x^k||, max_{i,j} ||x_i^k - x_j^k||), zero only at consensus."""
    if state.x is None:
        raise InvalidInputError("no primal sweep computed yet")
    return max(_residual_parts(scheme.M.T @ state.x, state.x))


def _inner_pass(z_eff, u, problem, scheme):
    """One primal sweep; returns (x, resolvent_calls, forward_calls)."""
    x = np.zeros((scheme.n, problem.dim))
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
                bvals[j] = B[j].eval(q_row @ head + u[j])
                n_fwd += 1
            acc -= c_ij * bvals[j]
        x[i] = F[i].resolvent(d_i, d_i * acc)
    return x, scheme.n, n_fwd


def extract_solution(z, problem, scheme):
    """Deviation-free primal sweep at a fixed dual point z.

    At a converged z all blocks of the returned sweep agree and any of them
    solves the inclusion; useful to re-derive the solution from a stored z.
    """
    z = np.asarray(z, dtype=float)
    x, _, _ = _inner_pass(z, np.zeros((scheme.m, problem.dim)), problem,
                          scheme)
    return x


def step(problem, scheme, state, schedule, policy):
    """Advance the iteration by one step.

    Returns the successor state: the new dual point, the primal sweep that
    produced it, the capacity l_k^2, and the budget-checked deviation pair
    for the next step.  Raises BudgetViolationError if the policy overspends
    and DivergenceError on non-finite iterates.
    """
    gamma_k = state.gamma
    x, n_res, n_fwd = _inner_pass(state.z + state.v, state.u, problem, scheme)
    if not np.isfinite(x).all():
        raise DivergenceError(f"non-finite primal sweep at step {state.k}")
    mtx = scheme.M.T @ x
    z_new = state.z - gamma_k * mtx
    dz = z_new - state.z
    shift = dz + (gamma_k / (1.0 - gamma_k)) * state.v
    l2 = ((1.0 - gamma_k) / gamma_k) * float(np.square(shift).sum())
    residual, spread = _residual_parts(mtx, x)

    budget = deviation_budget(l2, state.xi)
    gamma_next = schedule.gamma_at(state.k + 1)
    xi_next = schedule.xi_at(state.k + 1)
    dw = scheme.Q @ (x - state.x) if state.x is not None else None
    window = PolicyWindow(k=state.k, dz=dz, dw=dw)
    u_new, v_new = policy.produce(window, budget, gamma_next, schedule.theta,
                                  problem.lipschitz)
    u_new = np.asarray(u_new, dtype=float)
    v_new = np.asarray(v_new, dtype=float)
    if u_new.shape != (scheme.m, problem.dim) or v_new.shape != state.v.shape:
        raise ShapeError("policy returned a deviation pair of wrong shape")
    cost = deviation_cost(u_new, v_new, gamma_next, schedule.theta,
                          problem.lipschitz)
    if not math.isfinite(cost) or cost > budget + 1e-12 * (1.0 + budget):
        raise BudgetViolationError(
            f"deviation cost {cost} exceeds budget {budget} at step {state.k}")
    return SolverState(k=state.k + 1, z=z_new, x=x, u=u_new, v=v_new, l2=l2,
                       gamma=gamma_next, xi=xi_next, budget_used=cost,
                       resolvent_calls=n_res, forward_calls=n_fwd,
                       residual=residual, spread=spread)


def solve(problem, scheme, schedule=None, policy=None, stop=None, z0=None,
          record_states=False):
    """Run the iteration until the stop rule fires.

    The scheme is re-validated against the problem's cocoercivity constants
    before the first step; a failing report refuses to run.  Returns a
    SolveResult whose ``x`` is the last primal block (the consensus point
    once converged) and whose ``converged`` flag distinguishes a met
    tolerance from an exhausted iteration cap.
    """
    schedule = schedule if schedule is not None else ParamSchedule()
    policy = policy if policy is not None else ZeroPolicy()
    stop = stop if stop is not None else StopRule()
    if stop.max_iter < 1:
        raise InvalidInputError("max_iter must be at least 1")
    if scheme.n != problem.n or scheme.m != problem.m:
        raise SchemeValidationError(
            f"scheme is {scheme.n}x{scheme.m}, problem needs "
            f"{problem.n}x{problem.m}")
    if schedule.theta != scheme.theta:
        raise InvalidInputError(
            f"schedule theta {schedule.theta} != scheme theta {scheme.theta}")
    report = validate(scheme, problem.lipschitz)
    if not report.passed:
        names = [c.name for c in report.failed()]
        raise SchemeValidationError(f"scheme failed checks: {names}")

    n, m, p = scheme.n, scheme.m, problem.dim
    if z0 is None:
        z = np.zeros((n - 1, p))
    else:
        z = np.array(z0, dtype=float)
        if z.shape != (n - 1, p):
            raise ShapeError(f"z0 must have shape {(n - 1, p)}")
    reference = None
    if stop.reference is not None:
        reference = np.asarray(stop.reference, dtype=float)
        if reference.shape != (p,):
            raise ShapeError(f"reference must have shape {(p,)}")

    state = SolverState(k=0, z=z, x=None, u=np.zeros((m, p)),
                        v=np.zeros((n - 1, p)), l2=0.0,
                        gamma=schedule.gamma_at(0), xi=schedule.xi_at(0))
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
        traj.append(k=state.k - 1, residual=state.residual,
                    spread=state.spread, l2=state.l2,
                    budget_used=state.budget_used,
                    resolvent_calls=state.resolvent_calls,
                    forward_calls=state.forward_calls, dist_to_ref=dist,
                    gamma=gamma_k, xi=xi_k)
        traj.record_state(state.z)
        if not math.isfinite(fp) or fp > stop.divergence_limit:
            raise DivergenceError(
                f"residual {fp} beyond {stop.divergence_limit} "
                f"at step {state.k - 1}")
        if (dist < stop.tol) if reference is not None else (fp <= stop.tol):
            converged = True
            break
    return SolveResult(x=state.x[-1].copy(), trajectory=traj,
                       converged=converged, iterations=state.k, state=state)


def dr_reference_step(z, gamma, lam, f1, f2):
    """Textbook two-operator reference step.

    x1 = J_{gamma F1}(z), x2 = J_{gamma F2}(2 x1 - z),
    z_next = z - lam (x1 - x2).  Serves as the independent comparison point
    for the two-resolvent scheme.
    """
    x1 = f1.resolvent(gamma, z)
    x2 = f2.resolvent(gamma, 2.0 * x1 - z)
    return x1, x2, z - lam * (x1 - x2)
