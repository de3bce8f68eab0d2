"""The benchmark's workloads: inputs made from the seed, and one unit of work.

Each workload states why it was chosen (``why``, also in BENCHMARK.json).
``prepare`` is the program-side work before the first iteration and is what
``setup_s`` times; ``setup`` adds what only the benchmark needs (an oracle,
a config file).  ``unit`` runs one fixed amount of work.
"""

import json
import os

import numpy as np

import splitdev as sd

ASSETS = 53
DAYS = 200


def _markowitz_first_problem(data, x0_seed):
    """What run_experiment and the CLI build before their first iteration."""
    lam, r = sd.estimate_moments(data)
    problem = sd.build_problem(sd.MarkowitzProblem(
        lam, r, 6.0, sd.sample_simplex(data.assets, x0_seed)))
    scheme = sd.chain_fb(problem.n, problem.m, problem.lipschitz,
                         scale=sd.portfolio_chain_scale(problem.dim))
    sd.validate(scheme, problem.lipschitz)


class Portfolio:
    name = "portfolio"
    why = ("criterion-9-shaped run_experiment, zero vs momentum at p=53: "
           "Python-overhead bound, ~90% of iterations in reference solves")
    simplex = True
    affine_dim = 0
    MOMENTUM = "momentum:beta=0.3,rho=0.05"
    # Criterion 9's returns; the seed picks the starting allocations.  Six of
    # them keep iters_total within about 5% from seed to seed; new returns
    # per seed would move it by 10-20%.
    DATA_SEED = 0
    X0_PER_UNIT = 6

    def x0_seeds(self, seed):
        return range(self.X0_PER_UNIT * seed, self.X0_PER_UNIT * (seed + 1))

    def prepare(self, seed):
        data = sd.synthetic_instance(seed=self.DATA_SEED, days=DAYS,
                                     assets=ASSETS)
        _markowitz_first_problem(data, self.x0_seeds(seed)[0])
        return data

    def setup(self, seed, workdir):
        return self.prepare(seed), self.x0_seeds(seed)

    def unit(self, state, instr):
        data, x0_seeds = state
        zero = sd.run_experiment(data, policy="zero", case=1, seeds=x0_seeds)
        mom = sd.run_experiment(data, policy=self.MOMENTUM, case=1,
                                seeds=x0_seeds)
        return {"momentum_iter_ratio": mom.mean_iters / zero.mean_iters}


class DenseChain:
    name = "dense_chain"
    why = ("chain_fb(4, 2) on affine operators at p=200 with randball: "
           "kernel bound (np.linalg.solve per resolvent), budget clipped each step")
    simplex = False
    affine_dim = 200
    # Three instances per unit, from the seed: iteration counts differ by
    # instance, and averaging three keeps iters_total steadier than one.
    INSTANCES = 3
    POLICY_SEEDS = range(2)
    TOL = 1e-8

    def _instance(self, seed, k):
        """Four monotone and two cocoercive affine maps, as (A, b) pairs."""
        rng = np.random.default_rng([seed, k])
        p = self.affine_dim

        def psd():
            g = rng.standard_normal((p, p)) / np.sqrt(p)
            return 0.25 * (g @ g.T) + 0.05 * np.eye(p)

        mono = [(psd(), rng.standard_normal(p)) for _ in range(4)]
        coco = [(psd(), rng.standard_normal(p)) for _ in range(2)]
        return mono, coco

    def _build(self, mono, coco):
        problem = sd.Problem(
            [sd.affine_monotone(a, b, label="affine") for a, b in mono],
            [sd.affine_cocoercive(a, b, label="affine") for a, b in coco],
            dim=self.affine_dim)
        scheme = sd.chain_fb(problem.n, problem.m, problem.lipschitz)
        sd.validate(scheme, problem.lipschitz)
        return problem, scheme

    def prepare(self, seed):
        for k in range(self.INSTANCES):
            self._build(*self._instance(seed, k))

    def setup(self, seed, workdir):
        state = []
        for k in range(self.INSTANCES):
            mono, coco = self._instance(seed, k)
            # Oracle: the zero of sum_i (A_i x + b_i) + sum_j (A_j x - b_j).
            total = sum(a for a, _ in mono) + sum(a for a, _ in coco)
            rhs = sum(b for _, b in coco) - sum(b for _, b in mono)
            state.append((*self._build(mono, coco),
                          np.linalg.solve(total, rhs)))
        return state

    def unit(self, state, instr):
        for problem, scheme, x_star in state:
            problem = instr.wrap_problem(problem)
            for s in self.POLICY_SEEDS:
                sd.solve(problem, scheme, policy=sd.RandomBallPolicy(seed=s),
                         stop=sd.StopRule(tol=self.TOL, reference=x_star))
        return {}


class CliGrid:
    name = "cli_grid"
    why = ("splitdev experiment with CLI defaults, cases {1,2} x "
           "{zero,momentum,randball}: adds config, presolve, thread pool, CSV writes")
    simplex = True
    affine_dim = 0
    # The seed picks only the randball stream.  New returns or starting
    # allocations per seed move the work of one process by 10-20%; this
    # keeps it within 0.1% while every cell still runs.
    SEEDS = 1
    CELLS = 6    # cases {1, 2} x three policies

    def config(self, seed, out_dir):
        return {
            "data": {"synthetic": {"seed": 0, "days": DAYS,
                                   "assets": ASSETS}},
            "grid": {"cases": [1, 2], "schemes": ["chain_fb"],
                     "policies": ["zero", "momentum",
                                  f"randball:seed={seed}"]},
            "seeds": {"count": self.SEEDS, "start": 0},
            "output_dir": out_dir,
        }

    def prepare(self, seed):
        import splitdev.cli  # noqa: F401  (the CLI's own imports)
        syn = self.config(seed, "out")["data"]["synthetic"]
        data = sd.synthetic_instance(**syn)
        _markowitz_first_problem(data, 0)

    def setup(self, seed, workdir):
        path = os.path.join(workdir, "experiment.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.config(seed, os.path.join(workdir, "out")), fh)
        return path


WORKLOADS = {w.name: w for w in (Portfolio(), CliGrid(), DenseChain())}
