"""The benchmark's hooks into the package, checked without the benchmark.

perfbench's tracer wraps package functions and methods by name, and the
operators of each built problem by label.  A name it cannot find lands in
its ``missing`` list, which only a benchmark run reports.  These tests read
``perfbench/tracer.py`` and change nothing under ``perfbench/``.
"""

import importlib.util
import pathlib

import splitdev as sd

TRACER = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
          / "tracer.py")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_hook():
    originals = sd.solver.step, sd.build_problem, sd.markowitz.build_problem
    instr = _tracer_module().Instrument(trace=True).install()
    try:
        assert instr.missing == []
        # build_problem is patched to return its problem through
        # wrap_problem: a new Problem whose operators are wrapped by label
        Lam, r = sd.estimate_moments(
            sd.synthetic_instance(seed=0, days=60, assets=4))
        problem = sd.build_problem(
            sd.MarkowitzProblem(Lam, r, 6.0, sd.sample_simplex(4, 1)))
        assert type(problem) is sd.Problem
        ops = [op.resolvent for op in problem.F] + [
            op.eval for op in problem.B]
        assert all(hasattr(fn, "__wrapped__") for fn in ops)
        scheme = sd.chain_fb(problem.n, problem.m, problem.lipschitz,
                             scale=sd.portfolio_chain_scale(problem.dim))
        sd.solve(problem, scheme, stop=sd.StopRule(tol=-1.0, max_iter=5))
        spans = instr.tracer.aggregate()
        for name in ("solver.step", "operators.resolvent.l1_cost",
                     "operators.resolvent.power32_cost",
                     "operators.resolvent.simplex", "operators.forward.risk",
                     "operators.forward.ridge"):
            assert spans[name]["calls"] == 5, name
        [record] = instr.records
        assert record.iterations == 5 and record.kind == "reference"
    finally:
        instr.uninstall()
    assert (sd.solver.step, sd.build_problem,
            sd.markowitz.build_problem) == originals
