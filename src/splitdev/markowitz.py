"""Transaction-cost Markowitz rebalancing as a five-operator splitting.

The model: given moment estimates (Lambda, r) from a returns window, a
ridge weight delta and a current allocation x0 on the probability simplex,

    minimize over the simplex
        0.5 x' Lambda x - r' x + (delta/2) ||x||^2
        + sum_i |x_i - x0_i| + sum_i |x_i - x0_i|^{3/2}

split as three resolvent operators (the two shifted transaction costs and
the simplex normal cone) plus two cocoercive gradients (the quadratic
risk/return term with constant lambda_max(Lambda), and the ridge with
constant delta).
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .deviations import parse_policy
from .exceptions import (
    CsvParseError,
    InsufficientDataError,
    InvalidParameterError,
    OracleFailureError,
    ShapeError,
    SplitdevError,
)
from .operators import (
    CocoerciveOp,
    MonotoneOp,
    Problem,
    _checked_point,
    _shrink_l1,
    _shrink_power32,
    estimate_cocoercivity,
    project_simplex,
)
from .scheme import Scheme, chain_fb
from .solver import ParamSchedule, StopRule, solve

__all__ = [
    "MarketData",
    "MarkowitzProblem",
    "RunRecord",
    "ExperimentReport",
    "load_returns_csv",
    "estimate_moments",
    "shift_window",
    "sample_simplex",
    "synthetic_instance",
    "objective",
    "build_problem",
    "portfolio_chain_scale",
    "run_grid",
    "run_experiment",
]


@dataclass(frozen=True)
class MarketData:
    """A T x p matrix of per-period asset returns."""

    returns: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=float)
        if r.ndim != 2 or r.shape[0] < 1 or r.shape[1] < 1:
            raise ShapeError("returns must be a T x p matrix")
        if not np.all(np.isfinite(r)):
            raise CsvParseError("returns contain non-finite values")
        object.__setattr__(self, "returns", r)

    @property
    def days(self):
        return self.returns.shape[0]

    @property
    def assets(self):
        return self.returns.shape[1]


def load_returns_csv(path):
    """Read a returns CSV into MarketData.

    One row per period, one column per asset.  A non-numeric first row is
    treated as a header and skipped; any later non-numeric cell or a ragged
    row raises CsvParseError with its 1-based line number.
    """
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in row]
            if not any(cells):
                continue
            try:
                vals = [float(c) for c in cells]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise CsvParseError("non-numeric value", line=lineno) from None
            if rows and len(vals) != len(rows[0]):
                raise CsvParseError(
                    f"expected {len(rows[0])} columns, got {len(vals)}",
                    line=lineno)
            rows.append(vals)
    if len(rows) < 2:
        raise InsufficientDataError(
            f"need at least 2 data rows, found {len(rows)}")
    return MarketData(np.array(rows, dtype=float))


def estimate_moments(data):
    """Sample mean and sample covariance (1/(T-1) normalization).

    Returns (Lambda, r) with Lambda symmetrized so downstream eigenvalue
    checks see an exactly symmetric matrix.
    """
    R = data.returns
    if R.shape[0] < 2:
        raise InsufficientDataError("need at least 2 rows to estimate moments")
    r = R.mean(axis=0)
    centered = R - r
    Lam = centered.T @ centered / (R.shape[0] - 1)
    Lam = 0.5 * (Lam + Lam.T)
    return Lam, r


def shift_window(data, shift=20):
    """Drop the first ``shift`` rows and repeat the final ``shift`` rows.

    Produces an equally long window placed ``shift`` periods later, using
    the tail as a synthetic continuation.
    """
    if not 0 < shift < data.days:
        raise InvalidParameterError(
            f"shift must lie in (0, {data.days}), got {shift}")
    R = data.returns
    return MarketData(np.vstack([R[shift:], R[-shift:]]))


def sample_simplex(p, seed):
    """Uniform draw from the probability simplex (normalized exponentials)."""
    rng = np.random.default_rng(seed)
    e = rng.standard_exponential(p)
    return e / e.sum()


def synthetic_instance(seed, days=200, assets=53, factors=3):
    """Seeded synthetic daily-return panel from a linear factor model.

    returns = drift + factor_paths @ loadings' + noise with idiosyncratic
    sigma = 0.01, calibrated so covariances land in the range of daily
    equity data.
    """
    if days < 2 or assets < 1:
        raise InvalidParameterError("need days >= 2 and assets >= 1")
    rng = np.random.default_rng(seed)
    loadings = rng.normal(0.0, 0.02, size=(assets, factors))
    paths = rng.standard_normal((days, factors))
    drift = rng.normal(5e-4, 5e-4, size=assets)
    noise = rng.normal(0.0, 0.01, size=(days, assets))
    return MarketData(drift + paths @ loadings.T + noise)


@dataclass(frozen=True)
class MarkowitzProblem:
    """Moments plus regularization and the current allocation."""

    Lambda: np.ndarray
    r: np.ndarray
    delta: float
    x0: np.ndarray

    def __post_init__(self):
        Lam = np.asarray(self.Lambda, dtype=float)
        r = np.asarray(self.r, dtype=float)
        # a private read-only copy: the resolvents rely on this finite check
        x0 = np.array(self.x0, dtype=float)
        x0.flags.writeable = False
        if Lam.ndim != 2 or Lam.shape[0] != Lam.shape[1]:
            raise ShapeError("Lambda must be square")
        p = Lam.shape[0]
        if r.shape != (p,) or x0.shape != (p,):
            raise ShapeError("r and x0 must match the side of Lambda")
        if not np.all(np.isfinite(Lam)) or not np.all(np.isfinite(r)) \
                or not np.all(np.isfinite(x0)):
            raise InvalidParameterError("non-finite model data")
        scale = 1.0 + float(np.max(np.abs(Lam)))
        if float(np.max(np.abs(Lam - Lam.T))) > 1e-10 * scale:
            raise InvalidParameterError("Lambda must be symmetric")
        if float(np.linalg.eigvalsh(Lam)[0]) < -1e-10 * scale:
            raise InvalidParameterError("Lambda must be positive semidefinite")
        if not np.isfinite(self.delta) or self.delta <= 0:
            raise InvalidParameterError("delta must be positive")
        object.__setattr__(self, "Lambda", Lam)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "x0", x0)

    @property
    def assets(self):
        return self.Lambda.shape[0]


def objective(mp, x):
    """Model objective value at x (feasibility not included)."""
    x = np.asarray(x, dtype=float)
    d = np.abs(x - mp.x0)
    return (0.5 * x @ (mp.Lambda @ x) - mp.r @ x
            + 0.5 * mp.delta * float(x @ x)
            + float(d.sum()) + float(np.sum(d ** 1.5)))


def build_problem(mp):
    """Wire a MarkowitzProblem into the five-operator splitting form.

    Resolvent order: shifted l1 cost, shifted 3/2-power cost, simplex
    projection (so the last primal block is always feasible).  Forward
    order: quadratic gradient Lambda x - r, then the ridge delta x.
    """
    x0 = mp.x0  # finite and read-only (MarkowitzProblem), so only y is checked
    F = (
        MonotoneOp(lambda d, y: _shrink_l1(d, x0, _checked_point(d, y)),
                   label="l1 cost"),
        MonotoneOp(lambda d, y: _shrink_power32(d, x0, _checked_point(d, y)),
                   label="power-3/2 cost"),
        MonotoneOp(lambda d, y: project_simplex(y), label="simplex"),
    )
    Lam, r, delta = mp.Lambda, mp.r, mp.delta
    B = (
        CocoerciveOp(lambda x: Lam @ x - r,
                     lipschitz=estimate_cocoercivity(Lam), label="risk"),
        CocoerciveOp(lambda x: delta * x, lipschitz=delta, label="ridge"),
    )
    return Problem(F, B, dim=mp.assets)


@dataclass
class RunRecord:
    seed: int
    iterations: int
    converged: bool
    final_error: float
    trajectory: object = field(repr=False, default=None)


@dataclass
class ExperimentReport:
    scheme: str
    policy: str
    case: int
    tol: float
    records: list

    @property
    def seeds(self):
        return [rec.seed for rec in self.records]

    @property
    def iterations(self):
        return [rec.iterations for rec in self.records]

    @property
    def mean_iters(self):
        return float(np.mean(self.iterations))

    @property
    def std_iters(self):
        return float(np.std(self.iterations))

    def summary_dict(self):
        return {
            "scheme": self.scheme,
            "policy": self.policy,
            "case": self.case,
            "seeds": list(self.seeds),
            "mean_iters": self.mean_iters,
            "std_iters": self.std_iters,
            "tol": self.tol,
        }


def portfolio_chain_scale(assets):
    """Coupling scale for the portfolio chain scheme.

    Simplex allocations shrink entrywise as p grows while the ridge keeps
    curvature delta, so the dual metric needs to stiffen with dimension.
    The sqrt law was fit empirically on synthetic instances (p = 5..53);
    unit scale converges orders of magnitude slower here.
    """
    return 14.0 * math.sqrt(assets)


def _scheme_for(problem, scheme_kind, theta):
    if isinstance(scheme_kind, Scheme):
        return scheme_kind, f"custom({scheme_kind.n}x{scheme_kind.m})"
    if scheme_kind == "chain_fb":
        scale = portfolio_chain_scale(problem.dim)
        return chain_fb(problem.n, problem.m, problem.lipschitz,
                        theta=theta, scale=scale), "chain_fb"
    raise InvalidParameterError(
        f"scheme kind {scheme_kind!r} cannot drive a "
        f"{problem.n}x{problem.m} problem")


def _reference_solution(problem, scheme, schedule, ref_tol, max_iter):
    ref = solve(problem, scheme, schedule=schedule,
                stop=StopRule(tol=ref_tol, max_iter=max_iter))
    if not ref.converged:
        raise OracleFailureError(
            f"reference run stalled at residual above {ref_tol}")
    return ref.x


def run_grid(data, cases=(1,), schemes=("chain_fb",), policies=("zero",),
             seeds=range(50), delta=6.0, theta=1.0, gamma=0.9, xi=0.9,
             tol=1e-8, ref_tol=1e-12, max_iter=10 ** 6):
    """Iteration-count experiment over a (case, scheme, policy) grid.

    For every cell and seed: draw x0 uniformly on the simplex, build the
    problem on the given returns window, compute the reference solution x*
    by a deviation-free run to residual ``ref_tol``, then run the policy
    under test until ||x_n^k - x*|| < tol and record the iteration count.

    Case 1 prices on the window as given.  Case 2 rebalances 20 periods
    later: the starting allocation is the Case-1 solution for the same seed
    and scheme, and the moments are re-estimated on the shifted window.

    References do not depend on the policy: each (case, scheme, seed)
    reference is solved once, lazily in cell order, and shared by every
    policy.  Returns one entry per cell, ordered by case, then scheme, then
    policy: an ExperimentReport, or the SplitdevError the cell raised.  An
    out-of-range gamma, xi or theta raises InvalidInputError before any
    cell runs.
    """
    cases, schemes, policies, seeds = map(list, (cases, schemes, policies,
                                                 seeds))
    schedule = ParamSchedule(gamma=gamma, xi=xi, theta=theta)
    memo = {}  # case -> moments; (case, scheme index, seed) -> reference

    def memoized(key, compute):
        if key not in memo:
            try:
                memo[key] = compute()
            except SplitdevError as exc:
                memo[key] = exc
        if isinstance(memo[key], SplitdevError):
            raise memo[key]
        return memo[key]

    def moments(case):
        return memoized(case, lambda: estimate_moments(
            data if case == 1 else shift_window(data)))

    def reference(case, k, seed):
        def compute():
            x0 = (sample_simplex(data.assets, seed) if case == 1
                  else reference(1, k, seed)[3])
            problem = build_problem(MarkowitzProblem(*moments(case), delta,
                                                     x0))
            scheme, name = _scheme_for(problem, schemes[k], theta)
            return problem, scheme, name, _reference_solution(
                problem, scheme, schedule, ref_tol, max_iter)
        return memoized((case, k, seed), compute)

    def run_cell(case, k, policy):
        if case not in (1, 2):
            raise InvalidParameterError(f"case must be 1 or 2, got {case}")
        if not seeds:
            raise InvalidParameterError("need at least one seed")
        moments(1)  # a case-2 cell presolves on the base window
        moments(case)
        records = []
        for seed in seeds:
            problem, scheme, scheme_name, x_ref = reference(case, k, seed)
            run = solve(problem, scheme, schedule=schedule,
                        policy=parse_policy(policy),
                        stop=StopRule(tol=tol, max_iter=max_iter,
                                      reference=x_ref))
            records.append(RunRecord(
                seed=seed, iterations=run.iterations, converged=run.converged,
                final_error=float(np.linalg.norm(run.x - x_ref)),
                trajectory=run.trajectory))
        return ExperimentReport(scheme=scheme_name,
                                policy=parse_policy(policy).name, case=case,
                                tol=tol, records=records)

    outcomes = []
    for case in cases:
        for k in range(len(schemes)):
            for policy in policies:
                try:
                    outcomes.append(run_cell(case, k, policy))
                except SplitdevError as exc:
                    outcomes.append(exc)
    return outcomes


def run_experiment(data, scheme_kind="chain_fb", policy="zero", case=1,
                   seeds=range(50), delta=6.0, theta=1.0, gamma=0.9, xi=0.9,
                   tol=1e-8, ref_tol=1e-12, max_iter=10 ** 6):
    """One cell of ``run_grid``: the report, or the cell's error raised."""
    [outcome] = run_grid(data, [case], [scheme_kind], [policy], seeds,
                         delta=delta, theta=theta, gamma=gamma, xi=xi,
                         tol=tol, ref_tol=ref_tol, max_iter=max_iter)
    if isinstance(outcome, SplitdevError):
        raise outcome
    return outcome
