"""Run the splitdev CLI in this process with the benchmark's wrappers.

Usage, from the repository root with src on PYTHONPATH:

    python3 perfbench/cli_entry.py {count,trace} REPORT.json SPANS.npz -- ARGS...

ARGS are the CLI's own arguments, e.g. ``experiment exp.json``.  ``count``
wraps only ``solve``: it counts every iteration and checks every solve.
``trace`` also records spans of every layer, writes them to SPANS.npz and
puts the per-layer metrics into REPORT.json.  Exits with the CLI's code.
"""

import json
import sys

import layers
from tracer import Instrument


def main(argv):
    mode, report_path, spans_path, sep, *cli_args = argv
    if mode not in ("count", "trace") or sep != "--":
        raise SystemExit(__doc__)
    import splitdev.cli

    instr = Instrument(trace=mode == "trace").install()
    try:
        code = splitdev.cli.main(cli_args)
    finally:
        instr.uninstall()
    records, clipped = instr.take()
    failed, notes = layers.check_records(records, simplex=True)
    report = {
        "exit": code,
        "solves": len(records),
        "failed": failed,
        "notes": notes,
        "iters_total": sum(r.iterations for r in records),
        "policy_iters": sum(r.iterations for r in records
                            if r.kind == "policy"),
        "missing_wrappers": instr.missing,
    }
    if instr.tracer is not None:
        agg = instr.tracer.aggregate()
        report["layers"] = layers.layer_metrics(agg, records, clipped)
        report["layers"]["cli.worker_threads"] = \
            agg.get("markowitz.run_experiment", {}).get("threads", 0)
        instr.tracer.save(spans_path)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
