#!/usr/bin/env python3
"""Compare a fresh bench trajectory against the committed baseline.

Reads two gnnbridge-bench trajectory files (tools/bench_runner.py output)
and diffs every entry metric by metric with per-metric tolerances:

    tools/check_perf_regression.py --baseline bench/baseline.json \
        --fresh build/tests/BENCH_smoke.json

Without --fresh, the bench suite is run first via bench_runner.py (same
--build-dir/--suite/--scale knobs). The simulator is deterministic, so the
tolerances are tight: counter-like metrics (launches, syncs, bytes, cache
events) must match exactly; cycle/flop metrics allow a tiny relative slack
for floating-point reassociation across toolchains. Any drift beyond that
is a perf regression (or an improvement that must be locked in by
regenerating the baseline with bench_runner.py and committing it).

When both files carry bench_runner.py's `host` block, each bench's wall
seconds and peak RSS are printed side by side. They measure the host, not
the model, so they never decide pass or fail.

Exits 0 when every metric is within tolerance, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Metrics that must match the baseline exactly (integral counters).
EXACT_METRICS = {
    "launches",
    "l2_hits",
    "l2_misses",
    "dram_bytes",
    "global_syncs",
    "atomic_bytes",
    "adapter_bytes",
}
# Everything else (cycles, flops, rates, gap attributions) is compared
# with this relative tolerance (plus a tiny absolute floor for zeros).
DEFAULT_REL_TOL = 1e-6
DEFAULT_ABS_TOL = 1e-9


def load_trajectory(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "gnnbridge-bench":
        raise ValueError(f"{path}: not a gnnbridge-bench trajectory file")
    return doc


def entry_key(entry):
    return (entry["bench"], entry["label"])


def within(base, fresh, rel_tol, abs_tol):
    return abs(fresh - base) <= max(abs_tol, rel_tol * abs(base))


def compare(baseline, fresh, rel_tol, abs_tol):
    """Returns a list of human-readable failure strings."""
    failures = []
    base_by_key = {entry_key(e): e for e in baseline["entries"]}
    fresh_by_key = {entry_key(e): e for e in fresh["entries"]}

    if baseline.get("scale") != fresh.get("scale"):
        failures.append(
            f"scale mismatch: baseline {baseline.get('scale')} vs "
            f"fresh {fresh.get('scale')} (regenerate the baseline or rerun "
            f"at the baseline scale)"
        )
        return failures

    for key in base_by_key:
        if key not in fresh_by_key:
            failures.append(f"{key[0]}/{key[1]}: missing from fresh run")
    for key in fresh_by_key:
        if key not in base_by_key:
            failures.append(
                f"{key[0]}/{key[1]}: not in baseline (regenerate bench/baseline.json)"
            )

    for key, base_entry in base_by_key.items():
        fresh_entry = fresh_by_key.get(key)
        if fresh_entry is None:
            continue
        where = f"{key[0]}/{key[1]}"
        if base_entry["oom"] != fresh_entry["oom"]:
            failures.append(
                f"{where}.oom: {base_entry['oom']} -> {fresh_entry['oom']}"
            )
        base_metrics = base_entry["metrics"]
        fresh_metrics = fresh_entry["metrics"]
        for name, base_value in base_metrics.items():
            if name not in fresh_metrics:
                failures.append(f"{where}.{name}: missing from fresh run")
                continue
            fresh_value = fresh_metrics[name]
            if name in EXACT_METRICS:
                if base_value != fresh_value:
                    failures.append(
                        f"{where}.{name}: {base_value} -> {fresh_value} (exact match required)"
                    )
            elif not within(base_value, fresh_value, rel_tol, abs_tol):
                delta = (
                    (fresh_value - base_value) / base_value if base_value else float("inf")
                )
                failures.append(
                    f"{where}.{name}: {base_value} -> {fresh_value} "
                    f"({delta:+.3%} vs rel tol {rel_tol:g})"
                )
    return failures


def host_lines(baseline, fresh):
    """Per-bench host cost of both files, for benches both recorded."""
    base_host = baseline.get("host") or {}
    fresh_host = fresh.get("host") or {}
    lines = []
    for bench, b in base_host.items():
        f = fresh_host.get(bench)
        if f is None:
            continue
        ratio = f" ({f['wall_s'] / b['wall_s']:.2f}x)" if b["wall_s"] > 0 else ""
        lines.append(
            f"  {bench}: wall_s {b['wall_s']:.2f} -> {f['wall_s']:.2f}{ratio}, "
            f"peak_rss_mb {b['peak_rss_mb']:.0f} -> {f['peak_rss_mb']:.0f}"
        )
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="bench/baseline.json")
    ap.add_argument(
        "--fresh",
        default=None,
        help="pre-built trajectory to check; omit to run the suite now",
    )
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--suite", default="smoke")
    ap.add_argument("--scale", type=float, default=0.05)
    ap.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    ap.add_argument("--abs-tol", type=float, default=DEFAULT_ABS_TOL)
    args = ap.parse_args()

    try:
        baseline = load_trajectory(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"check_perf_regression: baseline: {e}", file=sys.stderr)
        return 1

    tmp = None
    fresh_path = args.fresh
    try:
        if fresh_path is None:
            tmp = tempfile.NamedTemporaryFile(
                prefix="gnnbridge_fresh_", suffix=".json", delete=False
            )
            tmp.close()
            fresh_path = tmp.name
            runner = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_runner.py")
            proc = subprocess.run(
                [
                    sys.executable,
                    runner,
                    "--build-dir",
                    args.build_dir,
                    "--suite",
                    args.suite,
                    "--scale",
                    repr(args.scale),
                    "--label",
                    "fresh",
                    "--out",
                    fresh_path,
                ]
            )
            if proc.returncode != 0:
                print("check_perf_regression: bench_runner failed", file=sys.stderr)
                return 1
        try:
            fresh = load_trajectory(fresh_path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"check_perf_regression: fresh: {e}", file=sys.stderr)
            return 1
    finally:
        if tmp is not None:
            os.unlink(tmp.name)

    failures = compare(baseline, fresh, args.rel_tol, args.abs_tol)
    host = host_lines(baseline, fresh)
    if host:
        print("check_perf_regression: host cost per bench, baseline -> fresh (not gated):")
        print("\n".join(host))
    n_entries = len(baseline["entries"])
    if failures:
        print(
            f"check_perf_regression: FAIL: {len(failures)} mismatch(es) "
            f"across {n_entries} baseline entries:",
            file=sys.stderr,
        )
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    base_sha = (baseline.get("meta") or {}).get("git_sha", "unknown")
    print(
        f"check_perf_regression: OK ({n_entries} entries, "
        f"baseline @ {base_sha}, rel tol {args.rel_tol:g})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
