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
import inspect
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .deviations import parse_policy
from .exceptions import (
    CsvParseError,
    InvalidInputError,
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
    _symmetric_psd,
    project_simplex,
)
from .scheme import _all_finite, _integer, _natural, _positive, chain_fb
from .solver import ParamSchedule, StopRule, _tolerance, solve

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
        if not _all_finite(r):
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

    One row per period, one column per asset, in UTF-8 with or without a
    byte-order mark.  A non-numeric first row is treated as a header and
    skipped; any later non-numeric cell, a non-finite cell such as ``nan``
    or ``inf`` (the first row's included) or a ragged row raises
    CsvParseError with its 1-based line number.
    """
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
            if not all(map(math.isfinite, vals)):
                raise CsvParseError("non-finite value", line=lineno)
            if rows and len(vals) != len(rows[0]):
                raise CsvParseError(
                    f"expected {len(rows[0])} columns, got {len(vals)}",
                    line=lineno)
            rows.append(vals)
    if len(rows) < 2:
        raise InvalidInputError(f"need at least 2 data rows, found {len(rows)}")
    return MarketData(np.array(rows, dtype=float))


def estimate_moments(data):
    """(Lambda, r): sample covariance (1/(T-1) normalization) and mean.

    Returns so large that a moment is not finite raise InvalidInputError.
    """
    R = data.returns
    if R.shape[0] < 2:
        raise InvalidInputError("need at least 2 rows to estimate moments")
    with np.errstate(over="ignore", invalid="ignore"):
        r = R.mean(axis=0)
        centered = R - r
        Lam = centered.T @ centered / (R.shape[0] - 1)
    if not (_all_finite(Lam) and _all_finite(r)):
        raise InvalidInputError("returns too large: their moments are not "
                                "finite")
    return Lam, r


def shift_window(data, shift=20):
    """Drop the first ``shift`` rows and repeat the final ``shift`` rows.

    Produces an equally long window placed ``shift`` periods later, using
    the tail as a synthetic continuation.  ``shift`` is an integer.
    """
    shift = _integer(shift, "shift")
    if not 0 < shift < data.days:
        raise InvalidInputError(
            f"shift must lie in (0, {data.days}), got {shift}")
    R = data.returns
    return MarketData(np.vstack([R[shift:], R[-shift:]]))


def sample_simplex(p, seed):
    """Uniform simplex draw (normalized exponentials); p an int >= 1 and
    seed an int >= 0."""
    p = _integer(p, "p")
    if p < 1:
        raise InvalidInputError(f"p must be at least 1, got {p}")
    rng = np.random.default_rng(_natural(seed, "seed"))
    e = rng.standard_exponential(p)
    return e / e.sum()


def synthetic_instance(seed=0, days=200, assets=53, factors=3):
    """Seeded synthetic daily-return panel from a linear factor model.

    returns = drift + factor_paths @ loadings' + noise with idiosyncratic
    sigma = 0.01, calibrated so covariances land in the range of daily
    equity data.  Each argument is an integer, ``seed`` and ``factors`` >= 0;
    ``seed`` defaults to 0.
    """
    seed, factors = _natural(seed, "seed"), _natural(factors, "factors")
    days, assets = _integer(days, "days"), _integer(assets, "assets")
    if days < 2 or assets < 1:
        raise InvalidInputError("need days >= 2 and assets >= 1")
    rng = np.random.default_rng(seed)
    loadings = rng.normal(0.0, 0.02, size=(assets, factors))
    paths = rng.standard_normal((days, factors))
    drift = rng.normal(5e-4, 5e-4, size=assets)
    noise = rng.normal(0.0, 0.01, size=(days, assets))
    return MarketData(drift + paths @ loadings.T + noise)


@dataclass(frozen=True)
class MarkowitzProblem:
    """Moments plus regularization and the current allocation.

    ``Lambda`` is stored as its symmetric part.  ``lambda_max``, set on
    construction, is that part's computed lambda_max plus the round-off
    allowance of the given Lambda: never below the true lambda_max, and the
    cocoercivity constant of the risk gradient in ``build_problem``.
    """

    Lambda: np.ndarray
    r: np.ndarray
    delta: float
    x0: np.ndarray
    lambda_max: float = field(init=False, repr=False)

    def __post_init__(self):
        Lam = np.asarray(self.Lambda, dtype=float)
        r = np.asarray(self.r, dtype=float)
        # a private read-only copy: the resolvents rely on this finite check
        x0 = np.array(self.x0, dtype=float)
        x0.flags.writeable = False
        if Lam.ndim != 2 or Lam.shape[0] != Lam.shape[1]:
            raise ShapeError("Lambda must be square")
        if not Lam.size:
            raise ShapeError("Lambda must not be empty")
        p = Lam.shape[0]
        if r.shape != (p,) or x0.shape != (p,):
            raise ShapeError("r and x0 must match the side of Lambda")
        if not (_all_finite(Lam) and _all_finite(r) and _all_finite(x0)):
            raise InvalidInputError("non-finite model data")
        # the gradient of 0.5 x' Lambda x sees only the symmetric part
        Lam, top, tol = _symmetric_psd(Lam, "Lambda")
        object.__setattr__(self, "Lambda", Lam)
        object.__setattr__(self, "lambda_max", top + tol)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "delta", _positive(self.delta, "delta"))
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
    order: quadratic gradient Lambda x - r, at constant ``mp.lambda_max``,
    then the ridge delta x.  A zero Lambda raises InvalidInputError.
    """
    if not mp.lambda_max:
        raise InvalidInputError("Lambda is zero: the risk gradient has no "
                                "cocoercivity constant")
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
        CocoerciveOp(lambda x: Lam @ x - r, lipschitz=mp.lambda_max,
                     label="risk"),
        CocoerciveOp(lambda x: delta * x, lipschitz=delta, label="ridge"),
    )
    return Problem(F, B, dim=mp.assets)


@dataclass
class RunRecord:
    seed: int
    iterations: int
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


class _Builder:
    """The one constructor of a grid's solve parameters, and its cell loop.

    Each parameter is defaulted here, ``tol`` and ``max_iter`` by
    ``StopRule``, and a bad one is refused on construction, before any
    solve.  ``data`` is read only when a problem is built, so
    ``_Builder(None, ...)`` holds the solve parameters alone.

    Moments are built once per case, problems and references once per
    (case, seed).  Every problem gets the grid's one scheme, named
    ``scheme_name``, at ``scale(p)``.  A case-2 problem starts from the case-1
    reference of its seed (the presolve); building a problem solves no
    other reference.  ``reference`` is the one home of a portfolio x*: the
    grid's cells, the presolve and ``splitdev solve``'s ``"reference":
    "auto"`` all read it, so a run's own scheme never moves its x*.  A build
    or solve that raised raises the same error on every later request.
    """

    scheme_name = "chain_fb"  # the grid's one scheme, built at scale(p)
    scale = staticmethod(portfolio_chain_scale)
    cases, policies, seeds = (1,), ("zero",), range(50)  # the default axes

    def __init__(self, data, delta=6.0, theta=1.0, schedule=None,
                 tol=StopRule.tol, ref_tol=1e-12, max_iter=StopRule.max_iter):
        self.data, self._memo = data, {}
        self.delta = _positive(delta, "delta")
        self.theta = _positive(theta, "theta")
        self.schedule = schedule if schedule is not None else ParamSchedule()
        self.stop = StopRule(tol=tol, max_iter=max_iter)
        self.ref_tol = _tolerance(ref_tol, "ref_tol")

    def axes(self, **axes):
        """The given grid axes as lists, in order: ``case`` read by
        ``_integer``, ``seed`` by ``_natural``, ``policy`` by ``parse_policy``;
        each a nonempty iterable, not a string, bytes or a mapping."""
        read = {"case": _integer, "seed": _natural,
                "policy": lambda value, _: parse_policy(value)}
        for what, values in axes.items():
            if (isinstance(values, (str, bytes, Mapping))
                    or not np.iterable(values)):
                raise InvalidInputError(f"the {what} axis must be a list of "
                                        f"values, got {values!r}")
            axes[what] = [read[what](value, what) for value in values]
            if not axes[what]:
                raise InvalidInputError(f"need at least one {what}")
        return axes.values()

    def _memoized(self, key, compute):
        if key not in self._memo:
            try:
                self._memo[key] = compute()
            except SplitdevError as exc:
                self._memo[key] = exc
        if isinstance(self._memo[key], SplitdevError):
            raise self._memo[key]
        return self._memo[key]

    def moments(self, case):
        if case not in (1, 2):
            raise InvalidInputError(f"case must be 1 or 2, got {case}")
        return self._memoized(("moments", case), lambda: estimate_moments(
            self.data if case == 1 else shift_window(self.data)))

    def problem(self, case, seed, presolve=True):
        """(problem, scheme) of one (case, seed).

        With ``presolve=False`` a case-2 problem starts from the seed's draw,
        not the presolve: the same n, m, L and scheme, and no solve.
        """
        [case], [seed] = self.axes(case=[case], seed=[seed])
        presolve = presolve and case == 2
        def compute():
            moments = self.moments(case)  # checked before any presolve
            x0 = (self.reference(1, seed) if presolve
                  else sample_simplex(self.data.assets, seed))
            problem = build_problem(MarkowitzProblem(*moments, self.delta, x0))
            return problem, chain_fb(
                problem.n, problem.m, problem.lipschitz, theta=self.theta,
                scale=self.scale(problem.dim))
        return self._memoized(("problem", case, seed, presolve), compute)

    def reference(self, case, seed):
        """x* of one (case, seed): a deviation-free solve to ``ref_tol``."""
        def compute():
            ref = solve(*self.problem(case, seed), schedule=self.schedule,
                        stop=replace(self.stop, tol=self.ref_tol))
            if not ref.converged:
                raise OracleFailureError(
                    f"reference run stalled at residual above {self.ref_tol}")
            return ref.x
        return self._memoized(("reference", case, seed), compute)

    def run(self, cases, policies, seeds):
        """``run_grid``'s outcomes: one per cell, by case, then policy."""
        cases, policies, seeds = self.axes(case=cases, policy=policies,
                                           seed=seeds)
        outcomes = []
        for case in cases:
            for policy in policies:
                try:
                    outcomes.append(self._cell(case, policy, seeds))
                except SplitdevError as exc:
                    outcomes.append(exc)
        return outcomes

    def _cell(self, case, policy, seeds):
        tol, records = self.stop.tol, []
        for seed in seeds:
            problem, scheme = self.problem(case, seed)
            x_ref = self.reference(case, seed)
            run = solve(problem, scheme, schedule=self.schedule, policy=policy,
                        stop=replace(self.stop, reference=x_ref))
            if not run.converged:
                raise OracleFailureError(
                    f"seed {seed}: policy run hit max_iter = "
                    f"{run.iterations} at distance above tol = {tol}")
            records.append(RunRecord(seed=seed, iterations=run.iterations,
                                     trajectory=run.trajectory))
        return ExperimentReport(scheme=self.scheme_name, policy=policy.name,
                                case=case, tol=tol, records=records)


def run_grid(data, cases=_Builder.cases, policies=_Builder.policies,
             seeds=_Builder.seeds, **options):
    """Iteration-count experiment over a (case, policy) grid.

    For every cell and seed: draw x0 uniformly on the simplex, build the
    problem on the given returns window, compute the reference solution x*
    by a deviation-free run to residual ``ref_tol``, then run the policy
    under test until ||x_n^k - x*|| < tol and record the iteration count.

    ``options`` are the parameters every solve shares: ``delta``,
    ``theta``, ``schedule``, ``tol``, ``ref_tol`` and ``max_iter``, with
    the defaults of ``_Builder``'s signature (``StopRule``'s for ``tol``
    and ``max_iter``).  The scheme is ``chain_fb`` at
    ``portfolio_chain_scale(p)`` and ``theta``.  A bad parameter raises
    before any cell runs: an empty axis or one that is not a list (a string
    included), a delta or theta that is not finite and positive, a bool or
    fractional case or seed, a negative seed, a NaN tol or ref_tol, a
    max_iter that is not an integer >= 1 or a policy that ``parse_policy``
    refuses InvalidInputError; a keyword that is none of these TypeError.
    A case other than 1 or 2 fails its own cells.  Each policy is parsed
    once, reset by every solve.

    Case 1 prices on the window as given.  Case 2 rebalances 20 periods
    later: the starting allocation is the Case-1 solution for the same
    seed, and the moments are re-estimated on the shifted window.

    A reference is the problem's alone: each (case, seed) x* is solved once,
    lazily in cell order, with the grid's scheme, and shared by every
    policy; ``splitdev solve`` reads the same x* whatever scheme it runs.
    Returns one entry per cell, ordered by case, then policy: an
    ExperimentReport, or the SplitdevError the cell raised; a policy run
    that hits ``max_iter`` before ``tol`` raises OracleFailureError naming
    its seed, as a stalled reference does.
    """
    known = inspect.signature(_Builder).parameters
    for name in options:
        if name not in known:
            raise TypeError(
                f"run_grid() got an unexpected keyword argument {name!r}")
    return _Builder(data, **options).run(cases, policies, seeds)


def run_experiment(data, policy="zero", case=1, **options):
    """One cell of ``run_grid``: the report, or the cell's error raised.

    ``options`` are ``run_grid``'s keywords (seeds, delta, theta, ...).
    """
    [outcome] = run_grid(data, [case], [policy], **options)
    if isinstance(outcome, SplitdevError):
        raise outcome
    return outcome
