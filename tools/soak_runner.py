#!/usr/bin/env python3
"""Soak matrix driver: N jobs x fault-plan matrix -> survival report.

Runs `gnnbridge_cli soak` once per fault plan in the matrix, parses the
survival summary, and prints a report table. Every plan in the default
matrix is survivable (the degradation ladder or retry absorbs the
injected faults), so the expected survival is 100% across the board; any
lower figure, hang, or non-zero exit fails the run.

With --check-determinism, each plan is additionally run at 1, 2 and 8
host threads with --pin-meta and the three metrics files AND the three
event-journal files are compared byte for byte (the DESIGN.md SS11-SS13
contract: telemetry counters and journal seq numbers are sim-time
functions, never wall-time or thread-count functions).

Each plan starts its reference run and its 1/2/8-thread re-runs at the
same time: every run writes its own artifacts, so the four processes run
concurrently and a plan takes about as long as its slowest run.

Each run's sim-cycle latency percentiles (the `latency:` line the soak
subcommand prints from the telemetry registry) are surfaced in the
report table next to the survival figures.

With --shards K, every soak run executes its GCN/GAT jobs on the K-way
sharded pipelines, so the matrix exercises shard-level recovery seams
too (pass shard_compute/shard_exchange plans).

    tools/soak_runner.py --cli build/tools/gnnbridge_cli --jobs 8
    tools/soak_runner.py --cli ... --check-determinism --work-dir /tmp/soak
    tools/soak_runner.py --cli ... --shards 4 --plans "shard_compute=1"

Exits 0 when every cell of the matrix survives (and, if requested, is
deterministic), 1 otherwise. Wired as the `soak_smoke` ctest entry.
"""

import argparse
import filecmp
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

# Plans the resilient engine must absorb without losing a job: no faults,
# a bounded tuner-probe burst (auto_tune degrades per job), a LAS failure
# (falls back to natural order), a fusion failure (adapter off), and a
# two-shot launch failure (two ladder rungs absorb both shots).
DEFAULT_PLANS = ["", "tuner_probe=3", "las_cluster", "fusion_pass", "sim_launch=2"]

# Host thread counts of the determinism re-runs.
THREADS = (1, 2, 8)

SURVIVAL_RE = re.compile(
    r"survival: ([0-9.]+)% \((\d+)/(\d+) ok, (\d+) timed out, (\d+) cancelled, (\d+) failed\)"
)
LATENCY_RE = re.compile(
    r"latency: n=(\d+) p50=([0-9.eE+-]+) p90=([0-9.eE+-]+) p99=([0-9.eE+-]+) "
    r"max=([0-9.eE+-]+) sim-cycles"
)


def soak_cmd(args):
    """The fault-matrix `soak` command (the plan comes from the environment)."""
    cmd = [
        args.cli, "soak",
        "--jobs", str(args.jobs),
        "--wave", str(args.wave),
        "--scale", str(args.scale),
        "--deadline-ms", str(args.deadline_ms),
        "--max-attempts", str(args.max_attempts),
    ]
    if args.shards > 0:
        cmd += ["--shards", str(args.shards)]
    return cmd


def run_cli(args, plan, threads=None, stem=None):
    """Runs one soak command under GNNBRIDGE_FAULT_PLAN=`plan`; returns
    (exit_code, stdout+stderr). With `stem`, the run pins meta and writes
    <stem>.json (metrics) and <stem>.jsonl (journal).
    """
    cmd = soak_cmd(args)
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if stem is not None:
        cmd += ["--metrics", stem + ".json", "--pin-meta",
                "--journal", stem + ".jsonl"]
    env = dict(os.environ)
    env["GNNBRIDGE_FAULT_PLAN"] = plan
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=args.timeout)
    except subprocess.TimeoutExpired:
        return None, "TIMEOUT (soak run hung)"
    return proc.returncode, proc.stdout + proc.stderr


def run_checked(args, plan, threads=None, stem=None):
    """Runs one soak command and checks its survival; returns (output,
    errors). A hung run's one error is its timeout text."""
    code, out = run_cli(args, plan, threads, stem)
    return out, [out] if code is None else check_soak_output(code, out)


def run_plan(args, index, plan):
    """Runs one plan: the reference run and, with --check-determinism, the
    re-runs at every THREADS count, all concurrently (each run writes its
    own artifacts under --work-dir).

    Returns ((output, errors) of the reference, {threads: errors} of the
    re-runs, the re-runs' artifact stems).
    """
    counts = THREADS if args.check_determinism else ()
    stems = [os.path.join(args.work_dir, f"plan{index}_t{t}") for t in counts]
    with ThreadPoolExecutor(max_workers=1 + len(counts)) as pool:
        reference = pool.submit(run_checked, args, plan)
        reruns = {t: pool.submit(run_checked, args, plan, t, stem)
                  for t, stem in zip(counts, stems)}
        return (reference.result(), {t: f.result()[1] for t, f in reruns.items()},
                stems)


def compare_reruns(label, rerun_errors, stems):
    """Reports failed re-runs, then byte-compares the re-runs' metrics and
    journals; returns True when every re-run passed and both match."""
    ok = True
    for t, errors in rerun_errors.items():
        if errors:
            print(f"  {label:<16} FAIL at {t} thread(s): {'; '.join(errors)}")
            ok = False
    if not ok:
        return False
    counts = "/".join(str(t) for t in THREADS)
    for what, ext in (("metrics", ".json"), ("journal", ".jsonl")):
        paths = [stem + ext for stem in stems]
        if all(filecmp.cmp(paths[0], p, shallow=False) for p in paths[1:]):
            print(f"  {label:<16} {what} byte-identical at {counts} threads")
        else:
            print(f"  {label:<16} FAIL: {what} differ across thread counts")
            ok = False
    return ok


def check_soak_output(code, out):
    """Asserts one fault-matrix run's survival; returns a list of errors."""
    match = SURVIVAL_RE.search(out)
    if not match:
        return [f"exit code {code}: no survival summary in output"]
    if code != 0 or float(match.group(1)) != 100.0:
        return [f"exit code {code}: {match.group(0)}"]
    return []


def matrix_phase(args, plans):
    """Every fault plan survives, optionally deterministically."""
    print(f"soak matrix: {len(plans)} plan(s) x {args.jobs} jobs "
          f"(deadline {args.deadline_ms} sim-ms, max attempts {args.max_attempts})")
    ok = True
    for index, plan in enumerate(plans):
        name = plan or "(no faults)"
        (out, errors), rerun_errors, stems = run_plan(args, index, plan)
        survival = SURVIVAL_RE.search(out)
        line = survival.group(0) if survival else "; ".join(errors)
        print(f"  {name:<16} {'FAIL' if errors else 'OK  '} {line}")
        if errors:
            ok = False
            continue
        lat = LATENCY_RE.search(out)
        if lat:
            print(f"  {'':<16}      latency p50={float(lat.group(2)):.6g} "
                  f"p99={float(lat.group(4)):.6g} sim-cycles "
                  f"(n={lat.group(1)}, max={float(lat.group(5)):.6g})")
        if args.check_determinism:
            if not compare_reruns(name, rerun_errors, stems):
                ok = False
            elif stems:
                print(f"  {name:<16} journal -> {stems[0]}.jsonl")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cli", required=True, help="path to gnnbridge_cli")
    ap.add_argument("--jobs", type=int, default=8)
    ap.add_argument("--wave", type=int, default=4)
    ap.add_argument("--scale", type=float, default=0.05)
    ap.add_argument("--deadline-ms", type=float, default=50.0)
    ap.add_argument("--max-attempts", type=int, default=2)
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="per-run wall-clock timeout, seconds")
    ap.add_argument("--plans", default=None,
                    help="comma-separated fault-plan matrix "
                    "(default: the survivable built-in matrix)")
    ap.add_argument("--check-determinism", action="store_true",
                    help="re-run each plan at 1/2/8 threads with --pin-meta "
                    "and byte-compare the metrics files and journals")
    ap.add_argument("--work-dir", default="soak_runner_out",
                    help="scratch directory for metrics files")
    ap.add_argument("--shards", type=int, default=0,
                    help="shard count passed to every soak run "
                    "(0 = the CLI default, unsharded)")
    args = ap.parse_args()
    # type=int/float accept zeros and negatives that the CLI would either
    # reject later or (for env-derived knobs) silently ignore — make every
    # out-of-range value a loud exit-2 usage error up front.
    if args.jobs < 1:
        ap.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.wave < 1:
        ap.error(f"--wave must be >= 1, got {args.wave}")
    if not 0.0 < args.scale <= 1.0:
        ap.error(f"--scale must be in (0, 1], got {args.scale}")
    if args.deadline_ms < 0.0:
        ap.error(f"--deadline-ms must be >= 0, got {args.deadline_ms}")
    if args.max_attempts < 1:
        ap.error(f"--max-attempts must be >= 1, got {args.max_attempts}")
    if args.shards < 0:
        ap.error(f"--shards must be >= 0, got {args.shards}")

    plans = DEFAULT_PLANS if args.plans is None else args.plans.split(",")
    os.makedirs(args.work_dir, exist_ok=True)

    ok = matrix_phase(args, plans)
    print("soak matrix: all plans survived" if ok else "soak matrix: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
