"""Independent reference implementations the tests pin values against.

Everything here is written the slow, obvious way on purpose: scalar
golden-section searches, exhaustive enumeration, textbook update formulas,
dense eigensolves.  None of it shares code with the library, so agreement
is evidence rather than tautology.  The one exception is the worst-case
deviation policy at the end: it is a test input, not an oracle, and it
clips its pair with the library's ``enforce_budget`` and takes its first
forward inputs from one library ``step``.
"""

import itertools
import math
import types

import numpy as np

from splitdev.deviations import ZeroPolicy, enforce_budget
from splitdev.solver import ParamSchedule, SolverState, step

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, tol=1e-12, max_iter=300):
    """Minimize a unimodal scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def prox_1d(g, lam, s):
    """prox_{lam g}(s) for scalar convex g, by golden-section search."""
    half = 10.0 * lam + 10.0 + abs(s)
    return golden_section(lambda x: lam * g(x) + 0.5 * (x - s) ** 2,
                          s - half, s + half)


def project_simplex_kkt(s):
    """Simplex projection via bisection on the KKT multiplier."""
    s = np.asarray(s, dtype=float)
    lo = s.min() - 1.0
    hi = s.max()
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        total = np.maximum(s - mu, 0.0).sum()
        if total > 1.0:
            lo = mu
        else:
            hi = mu
    mu = 0.5 * (lo + hi)
    return np.maximum(s - mu, 0.0)


def eig_max(A):
    return float(np.linalg.eigvalsh(np.asarray(A, dtype=float)).max())


def staircase_feasible(C, Q):
    """Exhaustive search for a valid staircase vector.

    Enumerates every nondecreasing A in {0..m}^n with A_1 = 0, A_n = m and
    checks the zero patterns directly: C_ij = 0 for j > A_i and Q_ji = 0
    for j <= A_i (1-based j).  Returns the first match or None.
    """
    C = np.asarray(C, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n, m = C.shape
    if m == 0:
        return tuple([0] * n)
    for mids in itertools.product(range(m + 1), repeat=max(n - 2, 0)):
        A = (0,) + mids + (m,)
        if any(A[i] > A[i + 1] for i in range(n - 1)):
            continue
        ok = True
        for i in range(n):
            for j in range(1, m + 1):
                if j > A[i] and C[i, j - 1] != 0.0:
                    ok = False
                if j <= A[i] and Q[j - 1, i] != 0.0:
                    ok = False
            if not ok:
                break
        if ok:
            return A
    return None


def dr_step(z, gamma, lam, prox_f, prox_g):
    """One textbook Douglas-Rachford step.

    x1 = prox_{gamma f}(z), x2 = prox_{gamma g}(2 x1 - z),
    z+ = z + lam (x2 - x1).
    """
    x1 = prox_f(gamma, z)
    x2 = prox_g(gamma, 2.0 * x1 - z)
    return x1, x2, z + lam * (x2 - x1)


def dy_step(z, gamma, lam, prox_f, prox_g, grad_h):
    """One textbook Davis-Yin three-operator step."""
    x1 = prox_f(gamma, z)
    x2 = prox_g(gamma, 2.0 * x1 - z - gamma * grad_h(x1))
    return x1, x2, z + lam * (x2 - x1)


def affine_zero(mats, vecs):
    """Solve sum_i (A_i x - b_i) = 0 for a family of affine operators."""
    A = np.sum(mats, axis=0)
    b = np.sum(vecs, axis=0)
    return np.linalg.solve(A, b)


# -- portfolio oracle ------------------------------------------------------
#
# Reference minimizer of the transaction-cost Markowitz objective
#
#   0.5 x'Lam x - r'x + 0.5 delta |x|^2
#     + sum_i |x_i - c_i| + sum_i |x_i - c_i|^(3/2)   over the simplex,
#
# by proximal gradient: forward step on the two quadratics, then an exact
# prox of the separable kinks restricted to the simplex (per-coordinate
# closed form plus bisection on the simplex multiplier).


def kink_prox_scalar(t, c, s):
    """prox_{t(|x-c| + |x-c|^{3/2})}(s), closed form.

    Optimality for y = x - c, d = s - c, |d| > t:
    y = sign(d) w with w + 1.5 t sqrt(w) = |d| - t, a quadratic in sqrt(w).
    """
    d = s - c
    if abs(d) <= t:
        return c
    root = (-1.5 * t + math.sqrt(2.25 * t * t + 4.0 * (abs(d) - t))) / 2.0
    return c + math.copysign(root * root, d)


def kink_simplex_prox(t, c, y):
    """argmin of the kink costs plus (1/2t)|x - y|^2 over the simplex."""
    c = np.asarray(c, dtype=float)
    y = np.asarray(y, dtype=float)

    def total(mu):
        vals = [max(0.0, kink_prox_scalar(t, ci, yi - t * mu))
                for ci, yi in zip(c, y)]
        return np.array(vals), sum(vals)

    scale = (abs(y).max() + abs(c).max() + 1.0) / t + 1.0
    lo, hi = -scale, scale
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        _, s = total(mu)
        if s > 1.0:
            lo = mu
        else:
            hi = mu
    x, _ = total(0.5 * (lo + hi))
    return x


def markowitz_reference(Lam, r, delta, x0, iters=100000, tol=1e-14):
    """Projected proximal-gradient solve of the portfolio problem."""
    Lam = np.asarray(Lam, dtype=float)
    r = np.asarray(r, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    L1 = eig_max(Lam)
    step = 1.0 / (L1 + delta + 10.0)
    x = np.full(x0.shape, 1.0 / x0.size)
    for _ in range(iters):
        grad = Lam @ x - r + delta * x
        nxt = kink_simplex_prox(step, x0, x - step * grad)
        if np.linalg.norm(nxt - x) < tol:
            x = nxt
            break
        x = nxt
    return x


def markowitz_objective(Lam, r, delta, x0, x):
    y = np.abs(x - x0)
    return float(0.5 * x @ (Lam @ x) - r @ x + 0.5 * delta * x @ x
                 + y.sum() + (y ** 1.5).sum())


# -- deviated splitting, loop by loop ----------------------------------------
#
# The solver's sweep and step written out with plain loops over rows and
# forward operators, in the solver's floating-point operation order, so its
# trajectory must agree with ``solve`` bit for bit.  Only the operators and
# the deviation policy come from the library: they are the inputs.


def splitting_run(problem, scheme, gamma, xi, theta, policy, tol, max_iter,
                  reference=None):
    """Run the deviated splitting iteration at constant gamma and xi.

    Stops like ``solve``: at ||x_n - reference|| < tol when a reference is
    given, else at max(||M^T x||, block spread) < tol, or after max_iter
    steps.  Returns (columns, z_states, x): the trajectory columns as
    lists keyed by their CSV names, every dual iterate from z^0 on, and the
    last primal sweep.
    """
    M, S, C, Q, d = scheme.M, scheme.S, scheme.C, scheme.Q, scheme.d
    n, m = C.shape
    p = problem.dim
    L = problem.lipschitz
    z = np.zeros((n - 1, p))
    u = np.zeros((m, p))
    v = np.zeros((n - 1, p))
    x_prev = None
    columns = {name: [] for name in (
        "k", "residual", "spread", "l2", "budget_used", "resolvent_calls",
        "forward_calls", "dist_to_ref")}
    z_states = [z.copy()]
    policy.reset(problem, scheme)
    for k in range(max_iter):
        # primal sweep: each forward operator at the first row that reads it
        Mz = M @ (z + v)
        x = np.zeros((n, p))
        outputs = [None] * m
        resolvent_calls = forward_calls = 0
        for i in range(n):
            acc = Mz[i].copy()
            if i > 0:
                acc -= S[i, :i] @ x[:i]
            for j in range(m):
                if C[i, j] == 0.0:
                    continue
                if outputs[j] is None:
                    outputs[j] = problem.B[j].eval(Q[j, :i] @ x[:i] + u[j])
                    forward_calls += 1
                acc -= C[i, j] * outputs[j]
            x[i] = problem.F[i].resolvent(d[i], d[i] * acc)
            resolvent_calls += 1

        # dual update, capacity and fixed-point residual
        z_next = z - gamma * (M.T @ x)
        shift = z_next - z + (gamma / (1.0 - gamma)) * v
        l2 = ((1.0 - gamma) / gamma) * float(np.sum(np.square(shift)))
        residual = float(np.linalg.norm(M.T @ x))
        spread = 0.0
        for a in range(n):
            for b in range(n):
                spread = max(spread, float(
                    np.sqrt(np.sum(np.square(x[a] - x[b])))))

        # next deviation pair and what it costs
        window = types.SimpleNamespace(
            k=k, dz=z_next - z,
            dw=None if x_prev is None else Q @ (x - x_prev))
        u, v = policy.produce(window, xi * l2, gamma, theta, L)
        cost_v = (gamma / (1.0 - gamma)) * float(np.sum(np.square(v)))
        cost_u = 0.0
        if m:
            cost_u = (gamma * (1.0 + theta) / 2.0) * float(
                L @ np.sum(np.square(u), axis=1))
        z, x_prev = z_next, x
        z_states.append(z.copy())

        dist = None
        if reference is not None:
            dist = float(np.linalg.norm(x[-1] - reference))
        for name, value in (
                ("k", k), ("residual", residual), ("spread", spread),
                ("l2", l2), ("budget_used", cost_v + cost_u),
                ("resolvent_calls", resolvent_calls),
                ("forward_calls", forward_calls), ("dist_to_ref", dist)):
            columns[name].append(value)
        if reference is not None:
            if dist < tol:
                break
        elif max(residual, spread) < tol:
            break
    return columns, z_states, x


def csv_text(columns):
    """A trajectory CSV written out by hand from columns keyed by name.

    The header lists the names in order; each row writes ints with str,
    floats with 17 significant digits ("%.17g") and None as an empty field.
    """
    names = list(columns)
    text = ",".join(names) + "\n"
    for i in range(len(columns[names[0]])):
        fields = []
        for name in names:
            value = columns[name][i]
            if value is None:
                fields.append("")
            elif isinstance(value, int):
                fields.append(str(value))
            else:
                fields.append("%.17g" % value)
        text += ",".join(fields) + "\n"
    return text


# -- worst-case deviations --------------------------------------------------


class WorstCasePolicy:
    """Spend the whole budget on a pair that pushes away from z*.

    Tracks z^{k+1} by summing the window's dz from z^0 = 0 and proposes
    the raw pair v = 1e6 (z^{k+1} - z*), u = 1e6 dw (zero before the
    second sweep), far outside any budget; ``enforce_budget`` then scales
    v to exactly the share rho of the budget and u to the share 1 - rho.

    Given ``w_star``, the forward-input stack Q x* of the solution, u is
    1e6 (w^k - w_star) instead, along each input's distance from its
    value at x*: w^0 = Q x^0 is the first sweep's, taken from one plain
    ``step`` at z = 0, and w^k = w^0 plus the sum of the window's dw.
    """

    def __init__(self, z_star, rho, w_star=None):
        self.z_star, self.rho, self.w_star = np.asarray(z_star), rho, w_star

    def reset(self, problem, scheme):
        self.z = np.zeros(self.z_star.shape)
        if self.w_star is not None:
            first = SolverState(k=0, z=self.z, x=None,
                                u=np.zeros((scheme.m, problem.dim)),
                                v=self.z, l2=0.0, gamma=0.5, xi=0.0)
            self.w = scheme.Q @ step(problem, scheme, first, ParamSchedule(),
                                     ZeroPolicy()).x

    def produce(self, window, budget, gamma_next, theta, lipschitz):
        self.z = self.z + window.dz
        v_raw = 1e6 * (self.z - self.z_star)
        if self.w_star is not None:
            if window.dw is not None:
                self.w = self.w + window.dw
            u_raw = 1e6 * (self.w - self.w_star)
        elif window.dw is None:
            u_raw = np.zeros((len(lipschitz), self.z.shape[-1]))
        else:
            u_raw = 1e6 * window.dw
        return enforce_budget(u_raw, v_raw, budget, gamma_next, theta,
                              lipschitz, rho=self.rho)
