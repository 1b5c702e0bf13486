#!/usr/bin/env python3
"""Run the gnnbridge bench suite and aggregate a perf trajectory file.

Each bench binary is executed with GNNBRIDGE_METRICS_JSON pointing at a
scratch file; the emitted gnnbridge-metrics documents (including their
`gap_report` sections) are flattened into one BENCH_<label>.json trajectory
file with provenance (git SHA, timestamp, hostname, scale, device spec):

    tools/bench_runner.py --build-dir build --suite smoke --label smoke

The trajectory file is the input of tools/check_perf_regression.py: commit
one produced at the default scale as bench/baseline.json and every future
run can be diffed against it metric by metric. The simulator is
deterministic, so the numbers are exactly reproducible on one toolchain.

The top-level `host` object records each bench process's wall seconds and
peak RSS (`wall_s`, `peak_rss_mb`, from wait4). Those depend on the host
and its load, so the regression check prints them and never gates on them.

Exits 0 when every bench ran and validated, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

BENCH_SCHEMA_NAME = "gnnbridge-bench"
BENCH_SCHEMA_VERSION = 1

# Bench binaries per suite. `smoke` is the ctest-sized subset (seconds at
# scale 0.05); `full` is every table/figure binary.
SUITES = {
    "smoke": [
        "bench_fig3_l2_miss",
        "bench_fig7_overall",
    ],
    "full": [
        "bench_table3_datasets",
        "bench_fig3_l2_miss",
        "bench_table4_occupancy",
        "bench_table5_expansion",
        "bench_fig4_featlen",
        "bench_fig7_overall",
        "bench_fig8_ng_balance",
        "bench_fig9_locality",
        "bench_fig10_adapter",
        "bench_fig11_spfetch",
        "bench_fig12_tuned",
        "bench_table6_ablation",
        "bench_ablation_sim",
        "bench_online_sampling",
    ],
}

# Per-run totals copied into each trajectory entry, plus the five gap
# attributions (prefixed gap_) pulled from the document's gap_report.
TOTAL_METRICS = [
    "cycles",
    "launches",
    "flops",
    "issued_flops",
    "l2_hits",
    "l2_misses",
    "l2_hit_rate",
    "dram_bytes",
    "global_syncs",
    "atomic_cycles",
    "atomic_bytes",
    "adapter_cycles",
    "adapter_bytes",
    "pad_flops",
    "copy_flops",
    "tile_flops",
    "imbalance",
    # Partitioned-execution counters.
    "ghost_bytes",
    "exchange_syncs",
    "exchange_cycles",
    "shards",
]
GAP_SECTIONS = [
    "locality",
    "imbalance",
    "launch_overhead",
    "synchronization",
    "redundancy",
    "inter_shard_traffic",
]


def run_bench(binary, scale, metrics_path, threads=None):
    """Runs one bench binary; returns its parsed metrics document and its
    host cost ({"wall_s", "peak_rss_mb"})."""
    env = dict(os.environ)
    env["GNNBRIDGE_SCALE"] = repr(scale)
    env["GNNBRIDGE_METRICS_JSON"] = metrics_path
    if threads is not None:
        env["GNNBRIDGE_THREADS"] = str(threads)
    env.pop("GNNBRIDGE_TRACE_JSON", None)
    env.pop("GNNBRIDGE_FAULT_PLAN", None)
    start = time.monotonic()
    proc = subprocess.Popen(
        [binary], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    stderr = proc.stderr.read()
    proc.stderr.close()
    # wait4 reaps the child and returns its own resource usage, so the peak
    # RSS is this bench's alone (ru_maxrss is in KiB on Linux).
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    host = {
        "wall_s": round(time.monotonic() - start, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
    }
    if proc.returncode != 0:
        raise RuntimeError(
            f"{binary} exited {proc.returncode}: {stderr.decode(errors='replace')[-500:]}"
        )
    with open(metrics_path, encoding="utf-8") as f:
        return json.load(f), host


def entries_from_doc(bench_name, doc):
    """Flattens one metrics document into trajectory entries."""
    gap_by_label = {g["label"]: g for g in doc.get("gap_report", [])}
    entries = []
    for run in doc["runs"]:
        metrics = {}
        for key in TOTAL_METRICS:
            if key in run["totals"]:
                metrics[key] = run["totals"][key]
        gap = gap_by_label.get(run["label"])
        if gap is not None:
            metrics["gap_attributed_cycles"] = gap["attributed_cycles"]
            for section in GAP_SECTIONS:
                metrics[f"gap_{section}_cycles"] = gap[section]["cycles"]
        entries.append(
            {
                "bench": bench_name,
                "label": run["label"],
                "model": run["model"],
                "backend": run["backend"],
                "dataset": run["dataset"],
                "oom": run["oom"],
                "metrics": metrics,
            }
        )
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build", help="CMake build directory")
    ap.add_argument("--suite", choices=sorted(SUITES), default="smoke")
    ap.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="GNNBRIDGE_SCALE for every bench (default 0.05, the baseline scale)",
    )
    ap.add_argument(
        "--threads",
        type=int,
        default=None,
        help="host threads per bench (sets GNNBRIDGE_THREADS; default: "
        "inherit the environment, which means hardware concurrency). "
        "Metrics are byte-identical at any value; only wall time changes.",
    )
    ap.add_argument("--label", default=None, help="trajectory label (default: suite)")
    ap.add_argument(
        "--out", default=None, help="output path (default: BENCH_<label>.json)"
    )
    args = ap.parse_args()
    # argparse's type=int happily accepts 0 and negatives, and the C++ side
    # would silently fall back to its default — fail loudly here instead.
    if args.threads is not None and not 1 <= args.threads <= 4096:
        ap.error(f"--threads must be in [1, 4096], got {args.threads}")
    if not 0.0 < args.scale <= 1.0:
        ap.error(f"--scale must be in (0, 1], got {args.scale}")

    label = args.label or args.suite
    out_path = args.out or f"BENCH_{label}.json"
    bench_dir = os.path.join(args.build_dir, "bench")

    binaries = []
    for name in SUITES[args.suite]:
        path = os.path.join(bench_dir, name)
        if not os.path.isfile(path) or not os.access(path, os.X_OK):
            print(f"bench_runner: missing binary {path}", file=sys.stderr)
            return 1
        binaries.append((name, path))

    entries = []
    host = {}
    meta = None
    device = None
    with tempfile.TemporaryDirectory(prefix="gnnbridge_bench_") as tmp:
        for name, path in binaries:
            metrics_path = os.path.join(tmp, f"{name}.json")
            try:
                doc, host[name] = run_bench(path, args.scale, metrics_path, args.threads)
            except (RuntimeError, OSError, json.JSONDecodeError) as e:
                print(f"bench_runner: {name}: {e}", file=sys.stderr)
                return 1
            if doc.get("schema") != "gnnbridge-metrics":
                print(f"bench_runner: {name}: not a gnnbridge-metrics file", file=sys.stderr)
                return 1
            if meta is None:
                meta = doc.get("meta")
            if device is None and doc["runs"]:
                device = doc["runs"][0]["device"]
            new = entries_from_doc(name, doc)
            entries.extend(new)
            print(
                f"bench_runner: {name}: {len(new)} runs, "
                f"{host[name]['wall_s']:.2f} s, {host[name]['peak_rss_mb']:.0f} MB peak RSS"
            )

    trajectory = {
        "schema": BENCH_SCHEMA_NAME,
        "schema_version": BENCH_SCHEMA_VERSION,
        "label": label,
        "suite": args.suite,
        "scale": args.scale,
        "threads": (meta or {}).get("threads"),
        "meta": meta,
        "device": device,
        "host": host,
        "entries": entries,
    }
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(trajectory, f, indent=1, sort_keys=False)
        f.write("\n")
    print(f"bench_runner: wrote {out_path} ({len(entries)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
