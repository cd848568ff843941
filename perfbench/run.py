#!/usr/bin/env python3
"""Benchmark entry point: builds the harness and runs one workload.

    python3 perfbench/run.py --workload serve_solve --seed 1 --seconds 45 --trace 0

Run from the repository root. The first run configures and builds the
libraries, the lsm_serve daemon and the lsmbench harness from source into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. The harness checks every output; this script adds the cross-run
determinism gate (counters that must repeat for the same seed and build)
and prints the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. --inject-fault arms the daemon's fault
injector on one serve_solve point (see perfbench/selfcheck.py).
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_solve", "sim_replicate")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    """Configures (once) and builds lsmbench + lsm_serve; returns their paths."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (run from a checkout)")
    cmake_dir = os.path.join(build_root, "cmake")
    log_path = os.path.join(build_root, "build.log")
    os.makedirs(build_root, exist_ok=True)
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                fail("cmake configure failed, see " + log_path)
        rc = subprocess.call(
            ["cmake", "--build", cmake_dir, "-j", "4",
             "--target", "lsmbench", "lsm_serve_bin"],
            stdout=log, stderr=subprocess.STDOUT)
        if rc != 0:
            fail("build failed, see " + log_path)
    return (os.path.join(cmake_dir, "lsmbench"),
            os.path.join(cmake_dir, "lsm", "serve", "lsm_serve"))


def build_id(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def metric_specs(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bench, serve = build(build_root)
    # Unix socket paths are short-limited: hand the harness a relative
    # work directory under the build root.
    work_dir = os.path.relpath(
        os.path.join(build_root, "run-%s-%d" % (args.workload, os.getpid())))
    cmd = [bench, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--serve-bin=" + serve, "--work-dir=" + work_dir]
    if args.inject_fault:
        cmd.append("--inject-fault")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 3:
        fail("lsmbench exited with %d" % proc.returncode)
    phases = json.loads(lines[-3])
    determinism = json.loads(lines[-2])["determinism"]
    result = json.loads(lines[-1])

    # Counters that must repeat exactly for this seed and build.
    if determinism:
        state_dir = os.path.join(build_root, "perfbench-state")
        os.makedirs(state_dir, exist_ok=True)
        state = os.path.join(state_dir, "%s-seed%d-%s.json" % (
            args.workload, args.seed, build_id([bench, serve])))
        if os.path.isfile(state):
            with open(state) as f:
                before = json.load(f)
            if before != determinism:
                print("perfbench: FAILED determinism %s != %s" % (
                    json.dumps(determinism), json.dumps(before)),
                    file=sys.stderr)
                result["correct"] = False
        else:
            with open(state, "w") as f:
                json.dump(determinism, f)

    # Every metric BENCHMARK.json names for this mode, and no other. A
    # per-layer metric of a layer this workload does not exercise reads 0.
    specs = metric_specs(args.trace == 1)
    metrics = result["metrics"]
    extra = sorted(set(metrics) - {spec["name"] for spec in specs})
    if extra:
        fail("harness reported metrics BENCHMARK.json does not name: " +
             ", ".join(extra))
    for spec in specs:
        name = spec["name"]
        if name not in metrics:
            if args.trace == 0:
                fail("harness did not report " + name)
            metrics[name] = {"value": 0, "unit": spec["unit"]}
        value = metrics[name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s is not a finite number: %r" % (name, value))
        if metrics[name]["unit"] != spec["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s" % (
                name, metrics[name]["unit"], spec["unit"]))

    print(json.dumps(phases))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
