"""Spans and counts around splitdev's public functions, taken from outside.

The benchmark never edits the package.  ``Instrument`` replaces module
attributes of the imported ``splitdev`` modules (every module that binds the
same function object, so calls between modules are seen too), a few class
methods, and the operator callables of each built ``Problem``.  ``uninstall``
puts the originals back.

Without tracing only ``solve`` is wrapped: once per solve, it records the
iteration count, the result and the stop rule, so the benchmark can count
every iteration and check every solve.  With tracing every wrapped call also
records a span (name, start, end, parent) in the buffer of the calling
thread.  Each thread has its own span stack, so the cells that the CLI runs
in a thread pool nest correctly.  Spans stay in memory until ``save``.
"""

import array
import dataclasses
import inspect
import json
import re
import sys
import threading
import time

import numpy as np

now_ns = time.perf_counter_ns

# (module, attribute, span name).  Called through module globals, so
# patching every module that binds the object catches every call.
FUNCTIONS = (
    ("operators", "estimate_cocoercivity", "operators.estimate_cocoercivity"),
    ("deviations", "enforce_budget", "deviations.enforce_budget"),
    ("deviations", "deviation_cost", "deviations.deviation_cost"),
    ("solver", "step", "solver.step"),
    ("scheme", "validate", "scheme.validate"),
    ("scheme", "chain_fb", "scheme.chain_fb"),
    ("markowitz", "build_problem", "markowitz.build_problem"),
    ("markowitz", "estimate_moments", "markowitz.estimate_moments"),
    ("markowitz", "run_experiment", "markowitz.run_experiment"),
)

# (module, class, method, span name)
METHODS = (
    ("deviations", "ZeroPolicy", "produce", "deviations.produce.zero"),
    ("deviations", "MomentumPolicy", "produce", "deviations.produce.momentum"),
    ("deviations", "RandomBallPolicy", "produce",
     "deviations.produce.randball"),
    ("solver", "Trajectory", "to_csv_text", "cli.csv_format"),
)


def slug(label):
    """Operator label as a metric name part: 'power-3/2 cost' -> 'power32_cost'."""
    return re.sub(r"[^a-z0-9_]", "", label.lower().replace(" ", "_")) \
        or "unlabeled"


class _Buffer:
    """Spans of one thread, as parallel int64 arrays, plus its open stack."""

    def __init__(self, thread):
        self.thread = thread
        self.name = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.stack = []


class Tracer:
    """In-memory span recorder with one buffer and one stack per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers = []
        self.names = []
        self._ids = {}

    def _name_id(self, name):
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
        return buf

    def wrap(self, fn, name):
        nid = self._name_id(name)
        buffer = self._buffer

        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0)
            stack.append(idx)
            buf.start.append(now_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = now_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def mark(self):
        """Current length of every buffer; spans after it form one unit."""
        with self._lock:
            return {id(b): len(b.name) for b in self.buffers}

    def arrays(self, buf, lo=0):
        return tuple(np.array(a[lo:], dtype=np.int64)
                     for a in (buf.name, buf.start, buf.end, buf.parent))

    def aggregate(self, mark=None):
        """Per span name: calls, inclusive ns and self ns since ``mark``.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on the same thread.
        """
        mark = mark or {}
        k = len(self.names)
        calls = np.zeros(k)
        incl = np.zeros(k)
        self_ns = np.zeros(k)
        threads = {}
        with self._lock:
            buffers = list(self.buffers)
        for buf in buffers:
            lo = mark.get(id(buf), 0)
            name, start, end, parent = self.arrays(buf, lo)
            if name.size == 0:
                continue
            dur = (end - start).astype(float)
            own = dur.copy()
            inside = parent >= lo
            np.subtract.at(own, parent[inside] - lo, dur[inside])
            calls += np.bincount(name, minlength=k)
            incl += np.bincount(name, weights=dur, minlength=k)
            self_ns += np.bincount(name, weights=own, minlength=k)
            for nid in np.unique(name):
                threads.setdefault(self.names[nid], set()).add(buf.thread)
        return {nm: {"calls": int(calls[i]), "ns": float(incl[i]),
                     "self_ns": float(self_ns[i]),
                     "threads": len(threads.get(nm, ()))}
                for i, nm in enumerate(self.names)}

    def save(self, path):
        """Write every span: thread index, name id, start, end, parent."""
        parts = {n: [] for n in ("thread", "name", "start", "end", "parent")}
        with self._lock:
            buffers = list(self.buffers)
        for t, buf in enumerate(buffers):
            name, start, end, parent = self.arrays(buf)
            parts["thread"].append(np.full(name.size, t, dtype=np.int64))
            for key, arr in zip(("name", "start", "end", "parent"),
                                (name, start, end, parent)):
                parts[key].append(arr)
        out = {k: (np.concatenate(v) if v else np.zeros(0, dtype=np.int64))
               for k, v in parts.items()}
        np.savez(path, names=np.array(json.dumps(self.names)), **out)


@dataclasses.dataclass
class SolveRecord:
    kind: str            # "reference", "presolve" or "policy"
    policy: str
    iterations: int
    converged: bool
    ns: int
    x: np.ndarray
    trajectory: object
    n: int
    m: int
    tol: float
    reference: object


class Instrument:
    """Wrappers over the imported splitdev package; see the module docstring."""

    def __init__(self, trace=False):
        import splitdev.cli  # noqa: F401  (so its bindings get patched too)
        self.modules = [m for n, m in sorted(sys.modules.items())
                        if n == "splitdev" or n.startswith("splitdev.")]
        self.tracer = Tracer() if trace else None
        self.records = []
        self.clipped = 0
        self.missing = []
        self._by_x = {}
        self._lock = threading.Lock()
        self._patches = []

    # -- installation -----------------------------------------------------
    def _module(self, short):
        return sys.modules.get(f"splitdev.{short}")

    def _patch_everywhere(self, original, attr, replacement):
        for mod in self.modules:
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, replacement)

    def install(self):
        solver = self._module("solver")
        self._patch_everywhere(solver.solve, "solve",
                               self._solve_wrapper(solver.solve))
        if self.tracer is None:
            return self
        for short, attr, span in FUNCTIONS:
            original = getattr(self._module(short), attr, None)
            if original is None:
                self.missing.append(f"{short}.{attr}")
                continue
            wrapped = self.tracer.wrap(original, span)
            if attr == "build_problem":
                wrapped = self._build_problem_wrapper(wrapped)
            elif attr == "enforce_budget":
                wrapped = self._enforce_budget_wrapper(wrapped)
            self._patch_everywhere(original, attr, wrapped)
        for short, cls_name, meth, span in METHODS:
            cls = getattr(self._module(short), cls_name, None)
            original = cls.__dict__.get(meth) if cls is not None else None
            if original is None:
                self.missing.append(f"{short}.{cls_name}.{meth}")
                continue
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self.tracer.wrap(original, span))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers -------------------------------------------------------------
    def _solve_wrapper(self, original):
        sig = inspect.signature(original)
        inner = (self.tracer.wrap(original, "solver.solve")
                 if self.tracer is not None else original)

        def solve(*args, **kwargs):
            t0 = now_ns()
            result = inner(*args, **kwargs)
            ns = now_ns() - t0
            self._record(sig.bind(*args, **kwargs).arguments, result, ns)
            return result

        solve.__wrapped__ = original
        return solve

    def _record(self, arguments, result, ns):
        problem = arguments["problem"]
        stop = arguments.get("stop")
        policy = arguments.get("policy")
        reference = getattr(stop, "reference", None)
        rec = SolveRecord(
            kind="reference" if reference is None else "policy",
            policy=policy.name if policy is not None else "zero",
            iterations=int(result.iterations), converged=bool(result.converged),
            ns=ns, x=np.array(result.x), trajectory=result.trajectory,
            n=problem.n, m=problem.m,
            tol=float(stop.tol) if stop is not None else float("nan"),
            reference=None if reference is None else np.array(reference))
        self.records.append(rec)
        if rec.kind == "reference":
            self._by_x[rec.x.tobytes()] = rec

    def _build_problem_wrapper(self, traced):
        def build_problem(mp, *args, **kwargs):
            # A reference solve whose solution becomes a starting allocation
            # is the case-2 presolve.
            rec = self._by_x.pop(np.asarray(mp.x0, dtype=float).tobytes(),
                                 None)
            if rec is not None:
                rec.kind = "presolve"
            return self.wrap_problem(traced(mp, *args, **kwargs))
        return build_problem

    def _enforce_budget_wrapper(self, traced):
        def enforce_budget(u_raw, v_raw, *args, **kwargs):
            u, v = traced(u_raw, v_raw, *args, **kwargs)
            if not (np.array_equal(u, u_raw) and np.array_equal(v, v_raw)):
                with self._lock:
                    self.clipped += 1
            return u, v
        return enforce_budget

    def wrap_problem(self, problem):
        """The problem with each operator callable wrapped, keyed by label."""
        if self.tracer is None:
            return problem
        wrap = self.tracer.wrap
        F = [dataclasses.replace(op, resolvent=wrap(
            op.resolvent, f"operators.resolvent.{slug(op.label)}"))
            for op in problem.F]
        B = [dataclasses.replace(op, eval=wrap(
            op.eval, f"operators.forward.{slug(op.label)}"))
            for op in problem.B]
        return type(problem)(F, B, dim=problem.dim)

    # -- per-unit results -------------------------------------------------------
    def take(self):
        """Solve records and clip count gathered since the last call."""
        records, clipped = self.records, self.clipped
        self.records, self.clipped, self._by_x = [], 0, {}
        return records, clipped
