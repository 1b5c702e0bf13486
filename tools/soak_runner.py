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
functions, never wall-time or thread-count functions). Each
determinism run also arms the flight recorder and runs `gnnbridge_cli
triage` on its artifacts: the triage stdout (which asserts the DESIGN.md
SS15 critical-path invariant) and any postmortem dump are byte-compared
across thread counts too. With --slo-ms the per-tenant SLO tracker is
armed for every run, exercising the metrics v7 `slo` block.

Each phase starts its reference run and its 1/2/8-thread re-runs at the
same time: every run writes its own artifacts, so the four processes run
concurrently and the phase takes about as long as its slowest run.

Each run's sim-cycle latency percentiles (the `latency:` line the soak
subcommand prints from the telemetry registry) are surfaced in the
report table next to the survival figures.

With --overload, the fault matrix is replaced by the overload phase: one
`soak --overload` run at --offered-x times capacity, asserting the CLI's
contract verdict (exit 0), a shed rate inside [--shed-min, --shed-max]
percent, and a completely clean steady tenant (no sheds, no rejects) —
all of the dropped load must land on the out-of-quota burst tenant.
--check-determinism applies to the overload phase too (metrics AND
journal byte-compared across 1/2/8 threads).

With --chaos, the fault matrix is replaced by the chaos phase: one
`soak --chaos` run (the DESIGN.md SS17 recovery-contract sweep over every
fault seam, shard seams at K=4), asserting the CLI's contract verdict
(exit 0 and the "chaos contract: held" line). --check-determinism
re-runs the sweep at 1, 2 and 8 host threads and byte-compares the
metrics, journal AND flight-recorder postmortem (the persistent shard
arms trigger a shard_fallback dump) across thread counts.

With --shards K, every fault-matrix soak run executes its GCN/GAT jobs
on the K-way sharded pipelines, so the matrix exercises shard-level
recovery seams too (pass shard_compute/shard_exchange plans).

    tools/soak_runner.py --cli build/tools/gnnbridge_cli --jobs 8
    tools/soak_runner.py --cli ... --check-determinism --work-dir /tmp/soak
    tools/soak_runner.py --cli ... --overload --check-determinism
    tools/soak_runner.py --cli ... --chaos --check-determinism
    tools/soak_runner.py --cli ... --shards 4 --plans "shard_compute=1"

Exits 0 when every cell of the matrix survives (and, if requested, is
deterministic), 1 otherwise. Wired as the `soak_smoke`,
`soak_overload_smoke` and `shard_retry_determinism` ctest entries.
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
SHED_RATE_RE = re.compile(r"shed-rate: ([0-9.]+)% \((\d+)/(\d+)\)")
STEADY_RE = re.compile(
    r"tenant t-steady: submitted=(\d+) admitted=(\d+) shed=(\d+) rejected=(\d+)"
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
    if args.slo_ms > 0:
        cmd += ["--slo-ms", str(args.slo_ms)]
    return cmd


def overload_cmd(args):
    """The `soak --overload` command."""
    cmd = [
        args.cli, "soak", "--overload",
        "--jobs", str(args.jobs),
        "--wave", str(args.wave),
        "--scale", str(args.scale),
        "--offered-x", str(args.offered_x),
    ]
    if args.slo_ms > 0:
        cmd += ["--slo-ms", str(args.slo_ms)]
    return cmd


def chaos_cmd(args):
    """The `soak --chaos` command."""
    return [args.cli, "soak", "--chaos", "--scale", str(args.scale)]


def run_cli(args, cmd, plan, threads=None, stem=None):
    """Runs one soak command; returns (exit_code, stdout+stderr).

    `plan` is the GNNBRIDGE_FAULT_PLAN to run under; None unsets it (the
    overload and chaos modes arm their own plans, and an inherited one
    would only add a warning line). With `stem`, the run pins meta and
    writes <stem>.json (metrics), <stem>.jsonl (journal) and, when an
    anomaly fires, <stem>.postmortem.json.
    """
    cmd = list(cmd)
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if stem is not None:
        cmd += ["--metrics", stem + ".json", "--pin-meta",
                "--journal", stem + ".jsonl",
                "--flight-recorder", stem + ".postmortem.json"]
    env = dict(os.environ)
    if plan is None:
        env.pop("GNNBRIDGE_FAULT_PLAN", None)
    else:
        env["GNNBRIDGE_FAULT_PLAN"] = plan
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=args.timeout)
    except subprocess.TimeoutExpired:
        return None, "TIMEOUT (soak run hung)"
    return proc.returncode, proc.stdout + proc.stderr


def run_checked(args, cmd, plan, check, threads=None, stem=None):
    """Runs one soak command and applies the phase's output check; returns
    (output, errors). A hung run's one error is its timeout text."""
    code, out = run_cli(args, cmd, plan, threads, stem)
    return out, [out] if code is None else check(code, out)


def run_triage(args, metrics, journal, out_path):
    """Runs `gnnbridge_cli triage` and captures stdout; returns an error or None."""
    cmd = [args.cli, "triage", metrics, "--journal", journal]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.timeout)
    except subprocess.TimeoutExpired:
        return "TIMEOUT (triage hung)"
    with open(out_path, "w") as f:
        # The "triage: ... from '<paths>'" header names the per-thread input
        # files; drop it so the capture is comparable across thread counts.
        f.write("".join(line for line in proc.stdout.splitlines(keepends=True)
                        if not line.startswith("triage: ")))
    if proc.returncode != 0:
        return proc.stdout + proc.stderr
    if "critical-path invariant: OK" not in proc.stdout:
        return "triage did not report the critical-path invariant as OK"
    return None


def rerun(args, cmd, plan, check, triage, threads, stem):
    """One determinism re-run, checked, plus its triage; returns its errors."""
    _, errors = run_checked(args, cmd, plan, check, threads, stem)
    if not errors and triage:
        err = run_triage(args, stem + ".json", stem + ".jsonl", stem + ".triage.txt")
        if err:
            errors.append(f"triage: {err}")
    return errors


def run_phase(args, name, cmd, plan, check, triage):
    """Runs one phase: the reference run and, with --check-determinism, the
    re-runs at every THREADS count, all concurrently (each run writes its
    own artifacts under --work-dir).

    Returns ((output, errors) of the reference, {threads: errors} of the
    re-runs, the re-runs' artifact stems).
    """
    counts = THREADS if args.check_determinism else ()
    stems = [os.path.join(args.work_dir, f"{name}_t{t}") for t in counts]
    with ThreadPoolExecutor(max_workers=1 + len(counts)) as pool:
        reference = pool.submit(run_checked, args, cmd, plan, check)
        reruns = {t: pool.submit(rerun, args, cmd, plan, check, triage, t, stem)
                  for t, stem in zip(counts, stems)}
        return (reference.result(), {t: f.result() for t, f in reruns.items()},
                stems)


def compare_reruns(label, rerun_errors, stems, triage):
    """Reports failed re-runs, then byte-compares the re-runs' artifacts;
    returns True when every re-run passed and every artifact kind matches.

    Optional artifacts (the flight recorder only dumps on an anomaly) must
    exist for all thread counts or for none — a mixed set is itself a
    determinism failure.
    """
    ok = True
    for t, errors in rerun_errors.items():
        if errors:
            print(f"  {label:<16} FAIL at {t} thread(s): {'; '.join(errors)}")
            ok = False
    if not ok:
        return False
    kinds = [("metrics", ".json"), ("journal", ".jsonl"),
             ("postmortem", ".postmortem.json")]
    if triage:
        kinds.append(("triage", ".triage.txt"))
    counts = "/".join(str(t) for t in THREADS)
    for what, ext in kinds:
        paths = [stem + ext for stem in stems]
        present = [p for p in paths if os.path.exists(p)]
        if not present:
            continue
        if len(present) != len(paths):
            print(f"  {label:<16} FAIL: {what} dumped at some thread counts "
                  f"but not others")
            ok = False
        elif all(filecmp.cmp(paths[0], p, shallow=False) for p in paths[1:]):
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


def check_chaos_output(code, out):
    """Asserts one chaos run's contract lines; returns a list of errors."""
    errors = []
    if code != 0:
        errors.append(f"exit code {code} (5 = chaos contract violation)")
    if "chaos contract: held" not in out:
        errors.append("CLI did not report the chaos contract as held")
    return errors


def check_overload_output(args, code, out):
    """Asserts one overload run's contract lines; returns a list of errors."""
    errors = []
    if code != 0:
        errors.append(f"exit code {code} (4 = overload contract violation)")
    shed = SHED_RATE_RE.search(out)
    if not shed:
        errors.append("no shed-rate line in output")
    elif not args.shed_min <= float(shed.group(1)) <= args.shed_max:
        errors.append(f"shed rate {shed.group(1)}% outside "
                      f"[{args.shed_min}, {args.shed_max}]%")
    steady = STEADY_RE.search(out)
    if not steady:
        errors.append("no t-steady tenant line in output")
    elif steady.group(3) != "0" or steady.group(4) != "0":
        errors.append(f"steady tenant lost work: shed={steady.group(3)} "
                      f"rejected={steady.group(4)}")
    if "overload contract: held" not in out:
        errors.append("CLI did not report the overload contract as held")
    return errors


def chaos_phase(args):
    """The --chaos mode: one full-seam sweep plus optional determinism."""
    print(f"chaos phase: full-seam recovery sweep at scale {args.scale}")
    (out, errors), rerun_errors, stems = run_phase(
        args, "chaos", chaos_cmd(args), None, check_chaos_output, triage=False)
    for err in errors:
        print(f"  chaos FAIL: {err}")
    if errors:
        sys.stdout.write(out)
        return False
    for line in out.splitlines():
        if line.startswith(("recovery:", "chaos contract:")):
            print(f"  {line}")
    if not args.check_determinism:
        return True
    if not compare_reruns("chaos", rerun_errors, stems, triage=False):
        return False
    # The persistent shard arms (shard_compute=*, shard_exchange=*) fall
    # back to unsharded, so the flight recorder must have dumped a
    # shard_fallback postmortem at every thread count.
    if not all(os.path.exists(stem + ".postmortem.json") for stem in stems):
        print("  chaos FAIL: the shard_fallback trigger left no postmortem")
        return False
    return True


def overload_phase(args):
    """The --overload mode: one contract run plus optional determinism."""
    print(f"overload phase: {args.jobs} jobs at ~{args.offered_x}x capacity, "
          f"shed-rate bounds [{args.shed_min}, {args.shed_max}]%")

    def check(code, out):
        return check_overload_output(args, code, out)

    (out, errors), rerun_errors, stems = run_phase(
        args, "overload", overload_cmd(args), None, check, triage=True)
    for err in errors:
        print(f"  overload FAIL: {err}")
    if errors:
        sys.stdout.write(out)
        return False
    shed = SHED_RATE_RE.search(out)
    steady = STEADY_RE.search(out)
    print(f"  overload OK: {shed.group(0)}; steady tenant "
          f"{steady.group(2)}/{steady.group(1)} admitted, 0 lost")
    if not args.check_determinism:
        return True
    return compare_reruns("overload", rerun_errors, stems, triage=True)


def matrix_phase(args, plans):
    """The default mode: every fault plan survives, optionally deterministically."""
    print(f"soak matrix: {len(plans)} plan(s) x {args.jobs} jobs "
          f"(deadline {args.deadline_ms} sim-ms, max attempts {args.max_attempts})")
    ok = True
    for index, plan in enumerate(plans):
        name = plan or "(no faults)"
        (out, errors), rerun_errors, stems = run_phase(
            args, f"plan{index}", soak_cmd(args), plan, check_soak_output,
            triage=True)
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
            if not compare_reruns(name, rerun_errors, stems, triage=True):
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
    ap.add_argument("--slo-ms", type=float, default=0.0,
                    help="per-request latency objective in sim-ms, passed "
                    "through as the CLI's --slo-ms (0 = SLO tracker off)")
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="per-run wall-clock timeout, seconds")
    ap.add_argument("--plans", default=None,
                    help="comma-separated fault-plan matrix "
                    "(default: the survivable built-in matrix)")
    ap.add_argument("--check-determinism", action="store_true",
                    help="re-run each plan at 1/2/8 threads with --pin-meta "
                    "and byte-compare the metrics files")
    ap.add_argument("--work-dir", default="soak_runner_out",
                    help="scratch directory for metrics files")
    ap.add_argument("--overload", action="store_true",
                    help="run the overload-contract phase instead of the "
                    "fault matrix")
    ap.add_argument("--chaos", action="store_true",
                    help="run the chaos-contract phase (full-seam recovery "
                    "sweep) instead of the fault matrix")
    ap.add_argument("--shards", type=int, default=0,
                    help="shard count passed to every fault-matrix soak run "
                    "(0 = the CLI default, unsharded)")
    ap.add_argument("--offered-x", type=float, default=4.0,
                    help="burst tenant's offered load as a multiple of "
                    "capacity (overload phase)")
    ap.add_argument("--shed-min", type=float, default=20.0,
                    help="minimum acceptable overload shed rate, percent")
    ap.add_argument("--shed-max", type=float, default=90.0,
                    help="maximum acceptable overload shed rate, percent")
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
    if args.overload and args.chaos:
        ap.error("--overload and --chaos are mutually exclusive")

    plans = DEFAULT_PLANS if args.plans is None else args.plans.split(",")
    os.makedirs(args.work_dir, exist_ok=True)

    if args.overload:
        ok = overload_phase(args)
        print("overload phase: OK" if ok else "overload phase: FAIL")
    elif args.chaos:
        ok = chaos_phase(args)
        print("chaos phase: OK" if ok else "chaos phase: FAIL")
    else:
        ok = matrix_phase(args, plans)
        print("soak matrix: all plans survived" if ok else "soak matrix: FAIL")
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
