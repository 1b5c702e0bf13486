#!/usr/bin/env python3
"""Build and run the gnnbridge host-performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fwd-trace --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest            # tiny-scale check of the benchmark
    python3 perfbench/run.py --record-reference    # rewrite perfbench/reference.json

The benchmark binary (perfbench.cpp) is built from source into $CARGO_TARGET_DIR
(default .bench_build) under the repository root, together with the library
it measures. Each run is one process running one workload with
GNNBRIDGE_THREADS pinned to min(4, nproc); the last line of stdout is the
result as one JSON object. Workloads, metrics and the layer predictions are
described in perfbench/predictions.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fwd-trace", "cold-graph", "train-full")
REFERENCE = os.path.join(HERE, "reference.json")
RUN_TIMEOUT_S = 175
# Inputs to the workloads come from the flags alone; these variables would
# change what the library runs or make it write files.
SCRUBBED_ENV = ("GNNBRIDGE_FAULT_PLAN", "GNNBRIDGE_SHARDS", "GNNBRIDGE_SCALE",
                "GNNBRIDGE_TRACE_JSON", "GNNBRIDGE_METRICS_JSON")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures once and builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no gnnbridge sources under {ROOT}/src")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed", 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return os.path.join(out, "perfbench")


def provenance():
    """Git SHA (when the checkout is a git repository) and a digest of src/."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return sha, h.hexdigest()[:16]


def child_env(extra=None):
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["GNNBRIDGE_THREADS"] = str(min(4, os.cpu_count() or 1))
    env.update(extra or {})
    return env


def run_binary(binary, args, env_extra=None, echo=True):
    """Runs the benchmark binary; returns (exit code, stdout lines, last-line JSON or None)."""
    sha, src = provenance()
    cmd = [binary] + args + ["--git", sha, "--src", src]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                           env=child_env(env_extra), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s", 1)
    lines = r.stdout.splitlines()
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return r.returncode, lines, result


def bench(args):
    binary = build()
    code, _, result = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--reference", REFERENCE])
    if result is None:
        fail("perfbench printed no result", code or 1)
    return code


def record_reference():
    binary = build()
    ref = {}
    for w in WORKLOADS:
        code, lines, _ = run_binary(binary, [
            "--workload", w, "--seed", "1", "--seconds", "0",
            "--setup-reps", "1", "--trace", "0", "--reference", "none"], echo=False)
        digests = dict(line.split()[:2] for line in lines if line.startswith("digest."))
        if code != 0 or "digest.round" not in digests:
            fail(f"{w}: reference run failed", 1)
        ref[w] = {"round": digests["digest.round"], "canary": digests["digest.canary"]}
        print(f"{w}: {ref[w]}")
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2)
        f.write("\n")
    return 0


def selftest():
    """One tiny pass of each workload: metric names and units, a tampered
    reference digest, and failed passes counted against passes attempted."""
    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tiny = ["--seed", "1", "--seconds", "0", "--scale", "0.02", "--passes", "1",
            "--setup-reps", "1"]
    problems = []

    def check(ok, what):
        print(f"selftest: {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for w in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, _, res = run_binary(binary, ["--workload", w, "--trace", str(trace),
                                               "--reference", REFERENCE] + tiny, echo=False)
            check(code == 0 and res is not None and res.get("correct") is True,
                  f"{w} trace={trace}: exit 0 and correct")
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{w} trace={trace}: result keys")
            check(isinstance(res["attempted"], int) and res["attempted"] >= 1,
                  f"{w} trace={trace}: attempted >= 1")
            metrics = res.get("metrics", {})
            for m in spec[group]:
                got = metrics.get(m["name"])
                check(got is not None and got.get("unit") == m["unit"]
                      and isinstance(got.get("value"), (int, float)),
                      f"{w} trace={trace}: {m['name']} printed in {m['unit']}")
            check(set(metrics) == {m["name"] for m in spec[group]},
                  f"{w} trace={trace}: no undeclared metrics")

    with open(REFERENCE) as f:
        ref = json.load(f)
    digest = ref["train-full"]["canary"]
    ref["train-full"]["canary"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    os.makedirs(build_dir(), exist_ok=True)
    tampered = os.path.join(build_dir(), "tampered_reference.json")
    with open(tampered, "w") as f:
        json.dump(ref, f)
    code, _, res = run_binary(binary, ["--workload", "train-full", "--trace", "0",
                                       "--reference", tampered] + tiny, echo=False)
    check(code != 0 and res is not None and res["correct"] is False and res["failed"] >= 1,
          "tampered reference digest fails the run")

    code, lines, res = run_binary(binary, ["--workload", "fwd-trace", "--trace", "0",
                                           "--reference", REFERENCE] + tiny,
                                  env_extra={"GNNBRIDGE_FAULT_PLAN": "las_cluster"}, echo=False)
    frac_line = [line for line in lines if line.startswith("failed_frac ")]
    ok = res is not None and frac_line and res["correct"] is False
    if ok:
        printed = float(frac_line[0].split()[1])
        ok = (0 < res["failed"] < res["attempted"]
              and abs(printed - res["failed"] / res["attempted"]) < 1e-6)
    check(bool(ok), "an injected LAS fault counts degraded passes in failed_frac "
                    "= failed / attempted")

    print("selftest: " + ("OK" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.record_reference:
        return record_reference()
    if not args.workload:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
