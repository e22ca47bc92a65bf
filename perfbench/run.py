"""Run one benchmark workload against the hypersetdb sources of this checkout.

    python3 perfbench/run.py --workload {bib-session,linorder,wdb-equality}
                             --seed N --seconds S --trace {0,1} [--toy]

Prints a readable report, then as its last line one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics, with --trace 1 the per-layer metrics of the traced
cycles.  --toy shrinks the inputs for the self-test.  Exits with code 2 when
the checkout has no `src/hypersetdb`.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "cycle_ms": "ms", "peak_rss_mb": "MB"}

# The sample behind op_p50_ms, and the figures the report names per workload:
# (name, sample, quantile, unit).
OPERATION = {"bib-session": "query_ms", "linorder": "linorder_ms", "wdb-equality": "eq_ms"}
NAMED = {
    "bib-session": [("query_p50_ms", "query_ms", 0.5, "ms"),
                    ("query_p95_ms", "query_ms", 0.95, "ms")],
    "linorder": [("linorder_ms", "linorder_ms", 0.5, "ms"),
                 ("successor_ms", "successor_ms", 0.5, "ms")],
    "wdb-equality": [("eq_p50_ms", "eq_ms", 0.5, "ms"),
                     ("publish_s", "publish_s", 0.5, "s"),
                     ("engine_ready_s", "engine_ready_s", 0.5, "s"),
                     ("ask_p50_us", "ask_us", 0.5, "us"),
                     ("ask_p99_us", "ask_us", 0.99, "us")],
}

PER_LAYER = {
    "cli.expanded_chars": "chars", "parser.calls": "count", "parser.self_ms": "ms",
    "analysis.calls": "count", "analysis.self_ms": "ms", "library.build_ms": "ms",
    "evaluator.self_ms": "ms", "evaluator.equations_generated": "count",
    "evaluator.render_ms": "ms", "store.session_equations": "count",
    "bisim.calls": "count", "bisim.self_ms": "ms", "bisim.decided_ratio": "1",
    "bisim.facts": "count", "bisim.productive_rounds": "count",
    "store.fetches": "count", "store.fetch_wait_ms": "ms",
    "xmlwdb.load_ms": "ms", "xmlwdb.bytes": "bytes",
    "approx.generate_ms": "ms", "approx.facts_written": "count",
    "approx.facts_seeded": "count", "engine.bisim_calls": "count",
    "engine.fetches": "count", "engine.productive_rounds": "count",
    "engine.answer_us": "us", "engine.ask_unknown_ratio": "1",
    "trace.overhead_pct": "%",
}


def quantile(values, q):
    """Nearest-rank quantile (the median for 0.5); None unless ten samples
    lie beyond it."""
    if not values or (q > 0.5 and len(values) * (1 - q) < 10):
        return None
    if q == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run):
    ops = run.samples[OPERATION[run.workload]]
    return {"setup_s": statistics.median(run.samples["setup_s"]),
            "op_p50_ms": statistics.median(ops),
            "cycle_ms": statistics.median(run.samples["cycle_ms"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(run, workloads):
    values = {}
    for key in PER_LAYER:
        if key == "trace.overhead_pct":
            continue
        column = [row[key] for row in run.layers]
        values[key] = column[0] if key in workloads.EXACT else statistics.median(column)
    traced = statistics.median(row["trace.cycle_ms"] for row in run.layers)
    values["trace.overhead_pct"] = (traced / statistics.median(run.samples["cycle_ms"]) - 1) * 100
    return values


def report(run, metrics, units) -> None:
    print("# perfbench %s seed=%d trace=%d cycles=%d attempted=%d failed=%d"
          % (run.workload, run.seed, run.trace, len(run.counters), run.attempted, run.failed))
    for problem in run.problems:
        print("#   FAILED %s" % problem)
    if not run.trace:
        print("# named figures at reference speed (raw wall time in brackets):")
        for name, sample, q, unit in NAMED[run.workload]:
            value, raw = quantile(run.samples[sample], q), quantile(run.raw[sample], q)
            shown = "n/a" if value is None else "%.6g %s (%.6g)" % (value, unit, raw)
            print("%-24s %s, n=%d" % (name, shown, len(run.samples[sample])))
        print("%-24s %12.6g %-5s" % ("fail_ratio", run.failed / max(1, run.attempted), "1"))
    for name, value in metrics.items():
        print("%-24s %12.6g %s" % (name, value, units[name]))
    if run.trace:
        print("# share of each operation's wall time by layer self time (median of traced cycles):")
        kinds = sorted({kind for shares in run.shares for kind in shares})
        for kind in kinds:
            layers = sorted({layer for shares in run.shares for layer in shares.get(kind, {})})
            parts = []
            for layer in layers:
                share = statistics.median(s.get(kind, {}).get(layer, 0.0) for s in run.shares)
                parts.append("%s %.1f%%" % (layer, 100 * share))
            print("#   %-22s %s" % (kind, ", ".join(parts)))


def write_spans(run) -> Path:
    path = WORKDIR / ("spans-%s-seed%d.jsonl" % (run.workload, run.seed))
    with open(path, "w", encoding="utf-8") as handle:
        for cycle, tracer in enumerate(run.tracers):
            for span in tracer.spans:
                handle.write(json.dumps([cycle] + span) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(NAMED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="small inputs (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hypersetdb" / "__init__.py").is_file():
        print("perfbench: no hypersetdb sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    WORKDIR.mkdir(exist_ok=True)
    run = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                 WORKDIR, workloads.TOY if args.toy else workloads.FULL)
    if args.trace:
        metrics, units = per_layer(run, workloads), PER_LAYER
    else:
        metrics, units = end_to_end(run), END_TO_END
    report(run, metrics, units)
    if args.trace:
        print("# spans written to %s" % write_spans(run))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
