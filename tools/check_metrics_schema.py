#!/usr/bin/env python3
"""Validate gnnbridge observability output files.

Default mode checks a gnnbridge-metrics JSON document (the schema emitted
by prof::MetricsSink, locked by tests/prof/metrics_json_test.cpp):

    tools/check_metrics_schema.py out/metrics.json [more.json ...]

With --trace, checks a Chrome-trace JSON file instead (the exporter in
src/prof/chrome_trace.cpp): well-formed trace envelope, required event
keys, and stack-balanced B/E duration events per (pid, tid) track:

    tools/check_metrics_schema.py --trace out/trace.json

With --journal, checks a JSONL event journal instead (the exporter in
src/obs/journal.cpp): one object per line with the full event key set,
`seq` strictly increasing from 0, and known event types:

    tools/check_metrics_schema.py --journal out/journal.jsonl

A metrics document whose schema_version is NEWER than this validator
understands fails with an explicit "update the validator" error rather
than a generic mismatch.

Exits 0 when every file validates, 1 otherwise. Used by the ctest smoke
entries (tests/CMakeLists.txt) and handy standalone after any bench run
with GNNBRIDGE_METRICS_JSON / GNNBRIDGE_TRACE_JSON set.
"""

import argparse
import json
import math
import sys

SCHEMA_NAME = "gnnbridge-metrics"
SCHEMA_VERSION = 12

RUN_KEYS = {
    "label": str,
    "model": str,
    "backend": str,
    "dataset": str,
    "ms": (int, float),
    "oom": bool,
    "device": dict,
    "totals": dict,
    "kernels": list,
}
DEVICE_KEYS = {
    "num_sms": int,
    "max_blocks_per_sm": int,
    "clock_ghz": (int, float),
    "l2_bytes": int,
    "line_bytes": int,
    # Cost-model parameters: enough to re-derive gap attributions.
    "flops_per_cycle_per_block": (int, float),
    "l2_hit_cycles_per_line": (int, float),
    "dram_cycles_per_line": (int, float),
    "kernel_launch_cycles": (int, float),
    "framework_overhead_cycles": (int, float),
}
TOTALS_KEYS = {
    "cycles": (int, float),
    "launches": int,
    "flops": (int, float),
    "l2_hits": int,
    "l2_misses": int,
    "l2_hit_rate": (int, float),
    "dram_bytes": int,
    "gflops": (int, float),
    # Gap counters.
    "issued_flops": (int, float),
    "global_syncs": int,
    "atomic_cycles": (int, float),
    "atomic_bytes": int,
    "adapter_cycles": (int, float),
    "adapter_bytes": int,
    "pad_flops": (int, float),
    "copy_flops": (int, float),
    "tile_flops": (int, float),
    "imbalance": (int, float),
    # Partitioned-execution counters (DESIGN.md §16).
    "ghost_bytes": int,
    "exchange_syncs": int,
    "exchange_cycles": (int, float),
    "shards": int,
}
DEGRADATION_KEYS = {
    "seam": str,
    "knob": str,
    "action": str,
    "detail": str,
    "injected": bool,
}
# Top-level keys of a document, in order.
TOP_LEVEL_KEYS = [
    "schema",
    "schema_version",
    "experiment",
    "scale",
    "meta",
    "runs",
    "gap_report",
    "degradations",
    "telemetry",
]
# Telemetry registry export: counters and log-bucketed histograms with
# headline quantiles (src/obs/registry.hpp).
TELEMETRY_KEYS = {
    "counters": list,
    "histograms": list,
}
TELEMETRY_COUNTER_KEYS = {
    "name": str,
    "value": int,
}
TELEMETRY_HISTOGRAM_KEYS = {
    "name": str,
    "count": int,
    "sum": (int, float),
    "min": (int, float),
    "max": (int, float),
    "p50": (int, float),
    "p90": (int, float),
    "p99": (int, float),
    "buckets": list,
}
TELEMETRY_BUCKET_KEYS = {
    "le": (int, float),
    "count": int,
}
# JSONL event journal (src/obs/journal.cpp): one object per line.
JOURNAL_EVENT_KEYS = {
    "seq": int,
    "req": str,
    "type": str,
    "key": str,
    "code": str,
    "detail": str,
    "attempt": int,
    "cycles": (int, float),
}
JOURNAL_EVENT_TYPES = {
    "attempt",
    "degradation",
    "outcome",
    # Shard-recovery events (DESIGN.md §17).
    "fault_injected",
    "shard_retry",
    "shard_fallback",
}
KERNEL_KEYS = {
    "name": str,
    "phase": str,
    "blocks": int,
    "cycles": (int, float),
    "makespan": (int, float),
    "balanced": (int, float),
    "l2_hits": int,
    "l2_misses": int,
    "l2_hit_rate": (int, float),
    "dram_bytes": int,
    "flops": (int, float),
    "issued_flops": (int, float),
    "mean_active_blocks": (int, float),
    # Gap counters.
    "atomic_cycles": (int, float),
    "atomic_bytes": int,
    "adapter_cycles": (int, float),
    "adapter_bytes": int,
    "pad_flops": (int, float),
    "copy_flops": (int, float),
    "tile_flops": (int, float),
    "imbalance": (int, float),
}
META_KEYS = {
    "git_sha": str,
    "timestamp": str,
    "hostname": str,
    "scale_env": str,
    "threads": int,
}
GAP_KEYS = {
    "label": str,
    "model": str,
    "backend": str,
    "dataset": str,
    "total_cycles": (int, float),
    "attributed_cycles": (int, float),
    "locality": dict,
    "imbalance": dict,
    "launch_overhead": dict,
    "synchronization": dict,
    "redundancy": dict,
    "inter_shard_traffic": dict,
}
GAP_SECTION_KEYS = {
    "locality": {
        "cycles": (int, float),
        "dram_bytes": int,
        "l2_hit_rate": (int, float),
    },
    "imbalance": {"cycles": (int, float), "ratio": (int, float)},
    "launch_overhead": {"cycles": (int, float), "launches": int},
    "synchronization": {
        "cycles": (int, float),
        "global_syncs": int,
        "atomic_cycles": (int, float),
        "atomic_bytes": int,
        "adapter_cycles": (int, float),
        "adapter_bytes": int,
    },
    "redundancy": {
        "cycles": (int, float),
        "redundant_flops": (int, float),
        "pad_flops": (int, float),
        "copy_flops": (int, float),
        "tile_flops": (int, float),
    },
    # Per-layer ghost-feature exchange of partitioned execution.
    "inter_shard_traffic": {
        "cycles": (int, float),
        "ghost_bytes": int,
        "exchange_syncs": int,
        "shards": int,
    },
}


class Invalid(Exception):
    pass


def check_keys(obj, spec, where):
    if not isinstance(obj, dict):
        raise Invalid(f"{where}: expected object, got {type(obj).__name__}")
    for key, types in spec.items():
        if key not in obj:
            raise Invalid(f"{where}: missing key '{key}'")
        if not isinstance(obj[key], types):
            raise Invalid(
                f"{where}.{key}: expected {types}, got {type(obj[key]).__name__}"
            )
        if isinstance(obj[key], float) and not math.isfinite(obj[key]):
            raise Invalid(f"{where}.{key}: non-finite number {obj[key]}")


def check_counter_invariants(counters):
    """The accounting invariants of the run_batch and recovery counters.

    An absent counter reads 0: instruments appear once first recorded.
    """
    values = {}
    for c in counters:
        if c["name"] in values:
            raise Invalid(f"telemetry.counters: duplicate name {c['name']!r}")
        values[c["name"]] = c["value"]

    def value(name):
        return values.get(name, 0)

    if value("serve.attempts") < value("serve.retries"):
        raise Invalid("telemetry: serve.attempts < serve.retries")
    if value("recovery.shards_reexecuted") > value("recovery.shard_retries"):
        raise Invalid(
            "telemetry: recovery.shards_reexecuted > recovery.shard_retries"
        )


def check_metrics(doc):
    if not isinstance(doc, dict):
        raise Invalid("top level: expected object")
    if doc.get("schema") != SCHEMA_NAME:
        raise Invalid(f"schema: expected '{SCHEMA_NAME}', got {doc.get('schema')!r}")
    version = doc.get("schema_version")
    if isinstance(version, int) and version > SCHEMA_VERSION:
        raise Invalid(
            f"schema_version: document is v{version}, newer than the "
            f"v{SCHEMA_VERSION} this validator understands — update "
            f"tools/check_metrics_schema.py"
        )
    if version != SCHEMA_VERSION:
        raise Invalid(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    if list(doc) != TOP_LEVEL_KEYS:
        raise Invalid(
            f"top level: expected keys {TOP_LEVEL_KEYS}, got {list(doc)}"
        )
    if not isinstance(doc.get("experiment"), str):
        raise Invalid("experiment: expected string")
    if not isinstance(doc.get("scale"), (int, float)):
        raise Invalid("scale: expected number")
    check_keys(doc.get("meta"), META_KEYS, "meta")
    runs = doc.get("runs")
    if not isinstance(runs, list):
        raise Invalid("runs: expected array")
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        check_keys(run, RUN_KEYS, where)
        check_keys(run["device"], DEVICE_KEYS, f"{where}.device")
        check_keys(run["totals"], TOTALS_KEYS, f"{where}.totals")
        if not 0.0 <= run["totals"]["l2_hit_rate"] <= 1.0:
            raise Invalid(f"{where}.totals.l2_hit_rate out of [0,1]")
        if run["totals"]["shards"] < 1:
            raise Invalid(f"{where}.totals.shards must be >= 1")
        if run["totals"]["shards"] == 1 and run["totals"]["ghost_bytes"] != 0:
            raise Invalid(f"{where}.totals: unsharded run with ghost traffic")
        for j, k in enumerate(run["kernels"]):
            kwhere = f"{where}.kernels[{j}]"
            check_keys(k, KERNEL_KEYS, kwhere)
            if not 0.0 <= k["l2_hit_rate"] <= 1.0:
                raise Invalid(f"{kwhere}.l2_hit_rate out of [0,1]")
    gap_report = doc.get("gap_report")
    if not isinstance(gap_report, list):
        raise Invalid("gap_report: expected array")
    if len(gap_report) != len(runs):
        raise Invalid(
            f"gap_report: expected one entry per run "
            f"({len(runs)}), got {len(gap_report)}"
        )
    for i, g in enumerate(gap_report):
        where = f"gap_report[{i}]"
        check_keys(g, GAP_KEYS, where)
        for section, spec in GAP_SECTION_KEYS.items():
            check_keys(g[section], spec, f"{where}.{section}")
        if not 0.0 <= g["locality"]["l2_hit_rate"] <= 1.0:
            raise Invalid(f"{where}.locality.l2_hit_rate out of [0,1]")
    degradations = doc.get("degradations")
    if not isinstance(degradations, list):
        raise Invalid("degradations: expected array")
    for i, d in enumerate(degradations):
        check_keys(d, DEGRADATION_KEYS, f"degradations[{i}]")
    telemetry = doc.get("telemetry")
    check_keys(telemetry, TELEMETRY_KEYS, "telemetry")
    for i, c in enumerate(telemetry["counters"]):
        check_keys(c, TELEMETRY_COUNTER_KEYS, f"telemetry.counters[{i}]")
    for i, h in enumerate(telemetry["histograms"]):
        where = f"telemetry.histograms[{i}]"
        check_keys(h, TELEMETRY_HISTOGRAM_KEYS, where)
        if h["name"].endswith("_cycles") and (h["sum"] < 0 or h["min"] < 0):
            raise Invalid(f"{where}: negative cycles in {h['name']!r}")
        total = 0
        for j, b in enumerate(h["buckets"]):
            check_keys(b, TELEMETRY_BUCKET_KEYS, f"{where}.buckets[{j}]")
            total += b["count"]
        if total != h["count"]:
            raise Invalid(
                f"{where}: bucket counts sum to {total}, "
                f"but count is {h['count']}"
            )
        if h["count"] > 0 and not h["min"] <= h["p50"] <= h["max"]:
            raise Invalid(f"{where}: p50 outside [min, max]")
        if h["count"] == 0 and any(
            h[k] != 0 for k in ("sum", "min", "max", "p50", "p90", "p99")
        ):
            raise Invalid(
                f"{where}: empty histogram must report all-zero statistics"
            )
    check_counter_invariants(telemetry["counters"])
    return len(runs), len(degradations)


def check_journal(text):
    """Validates a JSONL event journal; returns (events, requests)."""
    next_seq = 0
    requests = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            raise Invalid(f"line {lineno}: empty line")
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as e:
            raise Invalid(f"line {lineno}: {e}") from e
        where = f"line {lineno}"
        check_keys(ev, JOURNAL_EVENT_KEYS, where)
        if ev["seq"] != next_seq:
            raise Invalid(f"{where}: seq {ev['seq']}, expected {next_seq}")
        next_seq += 1
        if ev["type"] not in JOURNAL_EVENT_TYPES:
            raise Invalid(f"{where}: unknown event type {ev['type']!r}")
        if not ev["req"]:
            raise Invalid(f"{where}: empty request id")
        requests.add(ev["req"])
    return next_seq, len(requests)


def check_trace(doc):
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise Invalid("top level: expected object with 'traceEvents' array")
    stacks = {}  # (pid, tid) -> list of open event names
    n_duration = 0
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise Invalid(f"{where}: expected object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise Invalid(f"{where}: missing key '{key}'")
        ph = ev["ph"]
        if ph not in ("B", "E", "C", "M"):
            raise Invalid(f"{where}: unexpected phase {ph!r}")
        if ph != "M" and not isinstance(ev.get("ts"), (int, float)):
            raise Invalid(f"{where}: missing/invalid 'ts'")
        track = (ev["pid"], ev["tid"])
        if ph == "B":
            stacks.setdefault(track, []).append(ev["name"])
            n_duration += 1
        elif ph == "E":
            stack = stacks.get(track)
            if not stack:
                raise Invalid(f"{where}: 'E' for {ev['name']!r} with no open 'B'")
            top = stack.pop()
            if top != ev["name"]:
                raise Invalid(
                    f"{where}: 'E' for {ev['name']!r} closes open span {top!r}"
                )
    for track, stack in stacks.items():
        if stack:
            raise Invalid(f"track {track}: unclosed 'B' events {stack}")
    return n_duration


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", help="JSON files to validate")
    ap.add_argument(
        "--trace",
        action="store_true",
        help="validate Chrome-trace files instead of gnnbridge-metrics files",
    )
    ap.add_argument(
        "--journal",
        action="store_true",
        help="validate JSONL event-journal files instead of metrics files",
    )
    ap.add_argument(
        "--expect-degradations",
        type=int,
        default=None,
        metavar="N",
        help="additionally require exactly N degradation events per file "
        "(fault-injection matrix tests)",
    )
    args = ap.parse_args()

    if args.trace and args.journal:
        ap.error("--trace and --journal are mutually exclusive")

    failed = False
    for path in args.files:
        try:
            if args.journal:
                with open(path, encoding="utf-8") as f:
                    n, n_req = check_journal(f.read())
                print(f"{path}: OK ({n} events, {n_req} requests, seq contiguous)")
                continue
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            if args.trace:
                n = check_trace(doc)
                print(f"{path}: OK ({n} duration events, B/E balanced)")
            else:
                n, n_degraded = check_metrics(doc)
                if (
                    args.expect_degradations is not None
                    and n_degraded != args.expect_degradations
                ):
                    raise Invalid(
                        f"degradations: expected {args.expect_degradations} "
                        f"events, got {n_degraded}"
                    )
                print(
                    f"{path}: OK ({n} runs, {n_degraded} degradations, "
                    f"schema v{SCHEMA_VERSION})"
                )
        except (OSError, json.JSONDecodeError, Invalid) as e:
            print(f"{path}: FAIL: {e}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
