#!/usr/bin/env python3
"""Validate a sisd-obs JSONL trace against the run's printed search report.

Usage: validate_trace.py TRACE.jsonl STDOUT.txt

Checks, in order:

1. Every line of the trace parses as JSON with the event schema
   (t/kind/metric/v, plus depth on spans) and a known metric name.
2. The trace is non-empty.
3. Reconciliation against the `#tsv metrics` block in the captured stdout:
   counter and span events for a metric SUM to the reported value; gauge
   events last-write-match it (gauges may also be re-sampled after the
   last event was written, in which case the trace value must not exceed
   the report's monotone gauges).
4. Internal invariants:
   frontier.refine_calls == frontier.grid_dispatch + frontier.fused_dispatch,
   frontier.candidates == count_pruned + dedup_dropped + materialized,
   eval.scored <= frontier.materialized is NOT required (strategies can
   score hand-built batches), but eval.batches > 0 whenever eval.scored > 0.

Exits non-zero with a message on the first violation.
"""

import json
import sys

COUNTER, GAUGE, SPAN = "counter", "gauge", "span"


def parse_report_tsv(text):
    """Extract the `#tsv metrics` block: metric name -> int value."""
    values = {}
    lines = text.splitlines()
    try:
        start = lines.index("#tsv metrics")
    except ValueError:
        sys.exit("stdout has no '#tsv metrics' block")
    for line in lines[start + 2 :]:  # skip the header row
        if line.startswith("#end"):
            break
        name, _, raw = line.partition("\t")
        values[name] = int(raw)
    if not values:
        sys.exit("'#tsv metrics' block is empty")
    return values


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    trace_path, stdout_path = sys.argv[1], sys.argv[2]

    with open(stdout_path, encoding="utf-8") as f:
        report = parse_report_tsv(f.read())

    sums = {}  # counter+span accumulation per metric
    last_gauge = {}
    kinds = {}
    n_events = 0
    with open(trace_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{trace_path}:{lineno}: not JSON: {e}")
            for key in ("t", "kind", "metric", "v"):
                if key not in ev:
                    sys.exit(f"{trace_path}:{lineno}: missing field '{key}'")
            kind, metric, v = ev["kind"], ev["metric"], ev["v"]
            if kind not in (COUNTER, GAUGE, SPAN):
                sys.exit(f"{trace_path}:{lineno}: unknown kind '{kind}'")
            if metric not in report:
                sys.exit(f"{trace_path}:{lineno}: unknown metric '{metric}'")
            if not isinstance(v, int) or v < 0:
                sys.exit(f"{trace_path}:{lineno}: bad value {v!r}")
            if kind == SPAN and "depth" not in ev:
                sys.exit(f"{trace_path}:{lineno}: span without depth")
            prev = kinds.setdefault(metric, kind)
            if prev != kind:
                sys.exit(f"{trace_path}:{lineno}: metric '{metric}' seen as both {prev} and {kind}")
            if kind == GAUGE:
                last_gauge[metric] = v
            else:
                sums[metric] = sums.get(metric, 0) + v
            n_events += 1

    if n_events == 0:
        sys.exit(f"{trace_path}: empty trace")

    # Counter/span events must sum exactly to the reported totals.
    for metric, total in sums.items():
        if total != report[metric]:
            sys.exit(
                f"counter mismatch: {metric} trace-sum {total} != reported {report[metric]}"
            )
    # A reported nonzero counter with no trace events means lost events —
    # but only for counters we know emit per increment (all of them).
    for metric, value in report.items():
        if metric in last_gauge or metric in sums:
            continue
        if ".last_" in metric or metric.startswith("cache."):
            continue  # gauges may legitimately be sampled only at report time
        if value != 0:
            sys.exit(f"counter {metric} reported {value} but has no trace events")
    # Gauges: the report re-samples at print time, so the last traced value
    # must not exceed the reported one for monotone gauges.
    for metric, v in last_gauge.items():
        if v > report[metric]:
            sys.exit(f"gauge regressed: {metric} traced {v} > reported {report[metric]}")

    # Structural invariants of the frontier pipeline.
    rc = report["frontier.refine_calls"]
    gd, fd = report["frontier.grid_dispatch"], report["frontier.fused_dispatch"]
    if rc != gd + fd:
        sys.exit(f"refine_calls {rc} != grid {gd} + fused {fd}")
    cand = report["frontier.candidates"]
    parts = (
        report["frontier.count_pruned"]
        + report["frontier.dedup_dropped"]
        + report["frontier.materialized"]
    )
    if cand != parts:
        sys.exit(f"frontier.candidates {cand} != pruned+dropped+materialized {parts}")
    if report["eval.scored"] > 0 and report["eval.batches"] == 0:
        sys.exit("eval.scored > 0 with no batches")

    # Snapshot durability: bytes written imply a timed write, and a timed
    # write implies bytes (the two are bumped by the same save call).
    snap_bytes = report.get("snapshot.bytes", 0)
    snap_write_ns = report.get("snapshot.write_ns", 0)
    if snap_bytes > 0 and snap_write_ns == 0:
        sys.exit("snapshot.bytes > 0 with no snapshot.write_ns")
    if snap_write_ns > 0 and snap_bytes == 0:
        sys.exit("snapshot.write_ns > 0 with no snapshot.bytes")

    print(
        f"trace OK: {n_events} events, {len(sums)} counters reconciled, "
        f"{len(last_gauge)} gauges checked"
    )


if __name__ == "__main__":
    main()
