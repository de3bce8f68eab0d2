"""Deviation policies: choosing the per-iteration perturbation pair.

Each iteration ends with a norm budget b = xi_k * l_k^2 that the next
deviation pair (u, v) may spend.  The pair is admissible when

    (g / (1 - g)) ||v||^2  +  (g (1 + theta) / 2) sum_j L_j ||u_j||^2  <=  b

with g the next iteration's relaxation parameter.  Policies only ever see a
bounded window of the trajectory (the last two states); everything else is
theirs to choose, and ``enforce_budget`` rescales whatever they propose back
inside the budget.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError

__all__ = [
    "PolicyWindow",
    "DeviationPolicy",
    "ZeroPolicy",
    "MomentumPolicy",
    "RandomBallPolicy",
    "deviation_cost",
    "enforce_budget",
    "parse_policy",
]


@dataclass
class PolicyWindow:
    """What a policy is allowed to look at: the last two states.

    dz is z^{k+1} - z^k (always available after a step); dw is the change of
    the forward-input stack Q x between the two most recent primal sweeps,
    or None when only one sweep has happened.
    """

    k: int
    dz: np.ndarray
    dw: np.ndarray | None = None


def _cost_parts(u, v, gamma_next, theta, lipschitz):
    """The u term and the v term of the budget inequality's left-hand side."""
    if not 0.0 < gamma_next < 1.0:
        raise InvalidInputError("gamma must lie strictly between 0 and 1")
    cv = (gamma_next / (1.0 - gamma_next)) * float(np.square(v).sum())
    L = np.asarray(lipschitz, dtype=float)
    cu = 0.0
    if L.size:
        cu = (gamma_next * (1.0 + theta) / 2.0) * float(
            L @ np.square(u).sum(axis=1))
    return cu, cv


def deviation_cost(u, v, gamma_next, theta, lipschitz):
    """Left-hand side of the budget inequality for the pair (u, v)."""
    cu, cv = _cost_parts(u, v, gamma_next, theta, lipschitz)
    return cv + cu


def enforce_budget(u_raw, v_raw, budget, gamma_next, theta, lipschitz,
                   rho=0.7):
    """Scale a raw pair back inside the budget.

    v gets the share rho of the budget and u the share 1 - rho; each block is
    shrunk by min(1, sqrt(share * budget / cost)) so a block already inside
    its share is left untouched.  A zero budget always returns the zero pair.
    """
    if not 0.0 <= rho <= 1.0:
        raise InvalidInputError("rho must lie in [0, 1]")
    u_raw = np.asarray(u_raw, dtype=float)
    v_raw = np.asarray(v_raw, dtype=float)
    if budget <= 0.0:
        return np.zeros_like(u_raw), np.zeros_like(v_raw)
    cu, cv = _cost_parts(u_raw, v_raw, gamma_next, theta, lipschitz)
    cap_v = rho * budget
    cap_u = (1.0 - rho) * budget
    scale_v = 1.0 if cv <= cap_v else math.sqrt(cap_v / cv)
    scale_u = 1.0 if cu <= cap_u else math.sqrt(cap_u / cu)
    return scale_u * u_raw, scale_v * v_raw


class DeviationPolicy:
    """Base class; subclasses override ``produce``."""

    name = "base"

    def reset(self, problem, scheme):
        """Called once at the start of every solve."""

    def produce(self, window, budget, gamma_next, theta, lipschitz):
        raise NotImplementedError

    def _zeros(self, window, lipschitz):
        p = window.dz.shape[-1]
        return np.zeros((len(lipschitz), p)), np.zeros(window.dz.shape)


class ZeroPolicy(DeviationPolicy):
    """No deviations at all; recovers the plain iteration."""

    name = "zero"

    def produce(self, window, budget, gamma_next, theta, lipschitz):
        return self._zeros(window, lipschitz)


class MomentumPolicy(DeviationPolicy):
    """Extrapolate along the two most recent states, then rescale.

    Raw proposal: v = beta * dz and u = beta * dw.  With no history yet
    (first step) the pair is zero.
    """

    def __init__(self, beta=0.5, rho=0.7):
        if not np.isfinite(beta) or not 0.0 <= beta <= 1.0:
            raise InvalidInputError("beta must lie in [0, 1]")
        if not np.isfinite(rho) or not 0.0 <= rho <= 1.0:
            raise InvalidInputError("rho must lie in [0, 1]")
        self.beta = float(beta)
        self.rho = float(rho)

    @property
    def name(self):
        return f"momentum:beta={self.beta:g},rho={self.rho:g}"

    def produce(self, window, budget, gamma_next, theta, lipschitz):
        if window.k == 0 or window.dw is None:
            return self._zeros(window, lipschitz)
        v_raw = self.beta * window.dz
        u_raw = self.beta * window.dw
        return enforce_budget(u_raw, v_raw, budget, gamma_next, theta,
                              lipschitz, rho=self.rho)


class RandomBallPolicy(DeviationPolicy):
    """Draw the raw pair from seeded unit balls, then rescale (rho = 1/2).

    Useful as a stress policy: it exercises the budget machinery with
    directions that carry no information about the trajectory.
    """

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    @property
    def name(self):
        return f"randball:seed={self.seed}"

    def reset(self, problem, scheme):
        self._rng = np.random.default_rng(self.seed)

    def _ball(self, shape):
        g = self._rng.standard_normal(shape)
        flat = g.ravel()
        norm = math.sqrt(flat.dot(flat))
        if norm == 0.0 or g.size == 0:
            return np.zeros(shape)
        radius = self._rng.uniform() ** (1.0 / g.size)
        return (radius / norm) * g

    def produce(self, window, budget, gamma_next, theta, lipschitz):
        p = window.dz.shape[-1]
        u_raw = self._ball((len(lipschitz), p))
        v_raw = self._ball(window.dz.shape)
        return enforce_budget(u_raw, v_raw, budget, gamma_next, theta,
                              lipschitz, rho=0.5)


def parse_policy(spec):
    """Build a policy from its config string.

    Grammar: ``zero`` | ``momentum[:beta=B,rho=R]`` | ``randball[:seed=N]``.
    """
    if isinstance(spec, DeviationPolicy):
        return spec
    if not isinstance(spec, str):
        raise InvalidInputError(f"cannot parse policy from {type(spec)}")
    head, _, tail = spec.partition(":")
    params = {}
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise InvalidInputError(f"malformed policy parameter {item!r}")
            params[key.strip()] = value.strip()
    allowed = {"zero": (), "momentum": ("beta", "rho"), "randball": ("seed",)}
    if head not in allowed:
        raise InvalidInputError(f"unknown policy {spec!r}")
    extra = set(params) - set(allowed[head])
    if extra:
        raise InvalidInputError(
            f"unknown parameters for {head}: {sorted(extra)}")
    try:
        if head == "zero":
            return ZeroPolicy()
        if head == "momentum":
            return MomentumPolicy(beta=float(params.get("beta", 0.5)),
                                  rho=float(params.get("rho", 0.7)))
        return RandomBallPolicy(seed=int(params.get("seed", 0)))
    except ValueError as exc:
        raise InvalidInputError(f"bad policy parameter: {exc}") from None
