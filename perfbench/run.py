"""splitdev benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json; README.md in this
directory explains them.  With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run
and the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  Details of every run, with the machine
description, go to perfbench/_runs/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import fmean, median, median_low

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 11
MIN_UNITS = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def py_files(top):
    for base, _, names in sorted(os.walk(top)):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def code_digest(top):
    digest = hashlib.sha256()
    for path in py_files(top):
        with open(path, "rb") as fh:
            digest.update(os.path.relpath(path, top).encode() + b"\0"
                          + fh.read())
    return digest.hexdigest()


def machine():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = 0
    for path in py_files(os.path.join(SRC, "splitdev")):
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
            "src_lines": lines,
            "src_sha256": code_digest(os.path.join(SRC, "splitdev")),
            "bench_sha256": code_digest(HERE)}


def probe_setup(name, seed):
    """Set-up times of fresh processes, one per probe."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), name,
           str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# Modules that load numpy (layers, tracer, workloads) are imported inside
# functions, after main() has pinned the BLAS thread count.

# -- in-process workloads (portfolio, dense_chain) --------------------------

def run_unit(wl, state, instr):
    import layers
    mark = instr.tracer.mark() if instr.tracer is not None else None
    notes, extra = [], None
    t0 = time.perf_counter()
    try:
        extra = wl.unit(state, instr)
    except Exception as exc:  # a raising solve is a failed operation
        notes.append(f"unit raised {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    records, clipped = instr.take()
    failed, why = layers.check_records(records, wl.simplex)
    iters = sum(r.iterations for r in records)
    unit = {"wall_s": wall,
            "iters_total": iters,
            "us_per_iter": sum(r.ns for r in records) / 1e3 / iters
            if iters else float("nan"),
            "attempted": len(records) + (extra is None),
            "failed": failed + (extra is None),
            "notes": notes + why}
    unit.update(extra or {})
    if mark is not None:
        unit["layers"] = layers.layer_metrics(
            instr.tracer.aggregate(mark), records, clipped, wl.affine_dim)
    return unit


def run_units(wl, state, instr, seconds):
    units, t_end = [], time.perf_counter() + seconds
    while len(units) < MIN_UNITS or time.perf_counter() < t_end:
        units.append(run_unit(wl, state, instr))
    return units


def run_inprocess(wl, seed, seconds, trace, workdir):
    from tracer import Instrument
    state = wl.setup(seed, workdir)
    instr = Instrument(trace=False).install()
    try:
        plain = run_units(wl, state, instr, seconds * (0.4 if trace else 1))
    finally:
        instr.uninstall()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced, setup_spans, missing = [], {}, []
    if trace:
        instr = Instrument(trace=True).install()
        try:
            mark = instr.tracer.mark()
            wl.prepare(seed)
            setup_spans = instr.tracer.aggregate(mark)
            traced = run_units(wl, state, instr, seconds * 0.6)
        finally:
            instr.uninstall()
        instr.tracer.save(os.path.join(RUNS, f"spans-{wl.name}-seed{seed}"))
        missing = instr.missing
    units = plain + traced
    counts, differ = exact_counts(units, ("iters_total", "momentum_iter_ratio"))
    return {
        "walls": [u["wall_s"] for u in plain],
        "end_to_end": {
            "wall_s": median(u["wall_s"] for u in plain),
            "us_per_iter": median(u["us_per_iter"] for u in plain),
            "iters_total": plain[0]["iters_total"],
            "peak_rss_mb": peak_rss},
        "attempted": sum(u["attempted"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "notes": [n for u in units for n in u["notes"]][:10],
        "counts": counts, "differ": differ,
        "traced_units": traced, "setup_spans": setup_spans,
        "missing_wrappers": missing}


# -- cli_grid ----------------------------------------------------------------

def digest_dir(path):
    digest, files, size = hashlib.sha256(), 0, 0
    for name in sorted(os.listdir(path)) if os.path.isdir(path) else ():
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data + b"\0")
        files += 1
        size += len(data)
    return digest.hexdigest(), files, size


def invoke(cmd, out_dir, log):
    """Run one CLI process; its wall time, exit code, output and peak RSS."""
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=fh, stderr=fh)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    digest, files, size = digest_dir(out_dir)
    return {"wall_s": wall, "exit": proc.returncode, "digest": digest,
            "files": files, "bytes": size, "rss_mb": usage.ru_maxrss / 1024}


def check_cli_outputs(wl, out_dir):
    """Check the files a user sees: one summary row and file per cell.

    Returns failure notes, the number of trajectory rows (one per policy
    iteration) and the momentum iteration ratio of the cells.  The solves
    behind the rows are checked in the wrapped process, whose output must
    match these bytes.
    """
    bad, iters, rows_total = [], {}, 0
    try:
        with open(os.path.join(out_dir, "experiment_summary.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        names = sorted(os.listdir(out_dir))
    except OSError as exc:
        return [f"CLI output missing: {exc}"], 0, float("nan")
    if len(rows) != wl.CELLS or \
            any(not r.endswith(f",{wl.SEEDS}") for r in rows):
        bad.append("experiment_summary.csv lacks a cell or a seed")
    trajs = [n for n in names if n.startswith("traj_")]
    if len(trajs) != wl.CELLS * wl.SEEDS:
        bad.append(f"{len(trajs)} trajectory files")
    for name in trajs:
        with open(os.path.join(out_dir, name)) as fh:
            rows_total += len(fh.read().splitlines()) - 1
    for name in names:
        if name.startswith("cell_"):
            with open(os.path.join(out_dir, name)) as fh:
                cell = json.load(fh)
            if cell.get("status") != "ok":
                bad.append(f"{name}: {cell.get('error')}")
                continue
            head = cell["policy"].split(":")[0]
            iters.setdefault(head, []).append(cell["mean_iters"])
    ratio = (fmean(iters["momentum"]) / fmean(iters["zero"])
             if "momentum" in iters and "zero" in iters else float("nan"))
    return bad, rows_total, ratio


def run_cli(wl, seed, seconds, trace, workdir):
    """Time CLI processes as a user runs them, then run it wrapped.

    The wrapped process (``cli_entry.py``) counts iterations and checks
    every solve, and with tracing records the spans of every layer.
    """
    cfg = wl.setup(seed, workdir)
    out_dir = os.path.join(workdir, "out")
    log = os.path.join(workdir, "cli.log")
    report = os.path.join(workdir, "report.json")
    spans = os.path.join(RUNS, f"spans-{wl.name}-seed{seed}")
    user = [sys.executable, "-m", "splitdev.cli", "experiment", cfg]
    wrapped = [sys.executable, os.path.join(HERE, "cli_entry.py"),
               "trace" if trace else "count", report, spans, "--",
               "experiment", cfg]

    first = invoke(user, out_dir, log)
    notes, rows_total, ratio = check_cli_outputs(wl, out_dir)
    plain, runs = [first], []
    t_end = time.perf_counter() + seconds - first["wall_s"]
    while not trace and time.perf_counter() < t_end:
        plain.append(invoke(user, out_dir, log))
    while not runs or (trace and time.perf_counter() < t_end):
        inv = invoke(wrapped, out_dir, log)
        try:
            with open(report) as fh:
                inv["report"] = json.load(fh)
            os.unlink(report)
        except (OSError, ValueError) as exc:
            raise RuntimeError(f"wrapped CLI process left no report ({exc}); "
                               f"see {log}") from None
        runs.append(inv)

    attempted = len(plain) + len(runs)
    failed = int(bool(notes))
    for inv in plain + runs:
        if inv["exit"] != 0 or inv["digest"] != first["digest"]:
            failed += 1
            notes.append(f"CLI process exited {inv['exit']} or wrote other "
                         f"bytes than the first one")
    for inv in runs:
        rep = inv["report"]
        attempted += rep["solves"]
        failed += rep["failed"]
        notes += rep["notes"]
        if rep["policy_iters"] != rows_total:
            failed += 1
            notes.append("policy iterations differ from trajectory rows")
    walls = [inv["wall_s"] for inv in plain]
    iters = runs[0]["report"]["iters_total"]
    return {
        "walls": walls,
        "end_to_end": {
            "wall_s": median(walls),
            "us_per_iter": median(walls) / iters * 1e6,
            "iters_total": iters,
            "peak_rss_mb": median(inv["rss_mb"] for inv in plain)},
        "attempted": attempted, "failed": failed, "notes": notes,
        "counts": {"iters_total": iters, "momentum_iter_ratio": ratio},
        "differ": [],
        "traced_units": [
            {"wall_s": inv["wall_s"],
             "iters_total": inv["report"]["iters_total"],
             "layers": {**inv["report"]["layers"],
                        "cli.files_written": inv["files"],
                        "cli.bytes_written": inv["bytes"]}}
            for inv in runs if trace],
        "setup_spans": {},
        "missing_wrappers": runs[0]["report"]["missing_wrappers"],
        "output_sha256": first["digest"]}


# -- results -----------------------------------------------------------------

def exact_counts(units, keys):
    """The exact counts of the first unit, and any key on which units differ."""
    first = {k: units[0][k] for k in keys if k in units[0]}
    differ = sorted(k for u in units[1:] for k in first if u.get(k) != first[k])
    return first, differ


def ledger_check(key, counts):
    """Compare exact counts with earlier runs of the same inputs and source."""
    path = os.path.join(RUNS, "ledger.json")
    try:
        with open(path) as fh:
            ledger = json.load(fh)
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.setdefault(key, {})
    differ = sorted(k for k, v in counts.items() if k in seen and seen[k] != v)
    for k, v in counts.items():
        seen.setdefault(k, v)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return differ


def summarize_trace(res, counts, differ):
    """Per-layer metrics: low medians over traced units, plus tracing overhead.

    Adds the layers' exact counts to ``counts`` and any count that differs
    between units to ``differ``.
    """
    import layers
    units = res["traced_units"]
    lay = [u["layers"] for u in units]
    out = {k: median_low(d[k] for d in lay) for k in lay[0]}
    for k in ("cli.files_written", "cli.bytes_written", "cli.worker_threads"):
        out.setdefault(k, 0)
    out["trace.wall_s"] = median(u["wall_s"] for u in units)
    out["trace.untraced_wall_s"] = median(res["walls"])
    out["trace.overhead_ratio"] = out["trace.wall_s"] / median(res["walls"])
    lcounts, ldiffer = exact_counts(lay, layers.EXACT)
    counts.update(lcounts)
    differ += [f"layers:{k}" for k in ldiffer]
    # Every iteration the solve records count must show up as a step span.
    if out["solver.step.calls"] != units[0]["iters_total"]:
        differ.append("step spans against counted iterations")
    # estimate_cocoercivity also runs in set-up: one set-up plus one unit.
    coco = res["setup_spans"].get("operators.estimate_cocoercivity")
    if coco:
        out["operators.estimate_cocoercivity.calls"] += coco["calls"]
        out["operators.estimate_cocoercivity.ms"] += coco["ns"] / 1e6
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "splitdev", "__init__.py")):
        return fail("no src/splitdev here; run from the repository root")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    # Pin BLAS before numpy loads; the program's own knobs stay unset.
    os.environ.update(BLAS_ENV)
    os.environ.pop("SPLITDEV_THREADS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    sys.path.insert(0, SRC)
    import splitdev
    if not os.path.abspath(splitdev.__file__).startswith(SRC + os.sep):
        return fail(f"imported splitdev from {splitdev.__file__}, not {SRC}")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = machine()
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUNS, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    setup = [] if args.trace else probe_setup(wl.name, args.seed)
    run = run_cli if wl.name == "cli_grid" else run_inprocess
    try:
        res = run(wl, args.seed, args.seconds, args.trace, workdir)
    except RuntimeError as exc:
        return fail(str(exc))
    walls, notes = res["walls"], res["notes"]
    attempted, failed = res["attempted"], res["failed"]
    counts, differ = res["counts"], res["differ"]
    ratio = counts.get("momentum_iter_ratio")
    end_to_end = dict(res["end_to_end"],
                      setup_s=median(setup) if setup else float("nan"))
    per_layer = summarize_trace(res, counts, differ) if args.trace else {}
    if res["missing_wrappers"]:
        notes.append(f"not wrapped: {res['missing_wrappers']}")
    differ += [f"ledger:{k}" for k in ledger_check(
        f"{wl.name}/seed{args.seed}/src-{env['src_sha256'][:16]}"
        f"/bench-{env['bench_sha256'][:16]}", counts)]

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else end_to_end
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            return fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = failed == 0 and not differ

    print(f"perfbench {tag}: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if ratio is not None and not args.trace:
        print(f"  {'momentum_iter_ratio':44s} {ratio:.6g} ratio")
    print(f"  {'failed_share':44s} {failed / max(attempted, 1):.6g} "
          f"share ({failed} of {attempted} operations)")
    print(f"  wall_s samples: {len(walls)}; setup_s samples: {len(setup)}")
    for line in notes + [f"exact count differs: {d}" for d in differ]:
        print(f"  ! {line}")

    record = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": env,
              "metrics": metrics, "momentum_iter_ratio": ratio,
              "attempted": attempted, "failed": failed, "notes": notes,
              "count_mismatches": differ, "exact_counts": counts,
              "wall_s_samples": walls, "setup_s_samples": setup,
              "output_sha256": res.get("output_sha256")}
    with open(os.path.join(RUNS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
