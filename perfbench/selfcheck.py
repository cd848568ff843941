#!/usr/bin/env python3
"""Self-checks of the benchmark itself (not of a performance claim).

    python3 perfbench/selfcheck.py

Run from the repository root; takes about two minutes after the build.

1. Fault accounting: arms the daemon's fault injector on one point of one
   serve_solve request. Exactly that request must be counted as failed,
   and every end-to-end metric must still print.
2. Traced mode: every workload prints every per-layer metric;
   on serve_solve, exp.cache.hit_ratio reads 0 (the timed daemons) and
   exp.cache.replay_hit_ratio 1 (the prefilled replay daemon);
   core.fixed_point.rhs_evals and sim.events repeat exactly across two
   runs of one seed; the trace file is written.
3. Without the repository sources (a directory holding only
   BENCHMARK.json and perfbench/) the benchmark exits non-zero and prints
   no result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, seed, seconds, trace, *extra):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, timeout=300)
    if out.returncode != 0:
        check(False, "%s exited with %d" % (workload, out.returncode))
        return None, None
    lines = out.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]

    phases, result = run("serve_solve", 1, 2, 0, "--inject-fault")
    if result:
        check(result["correct"], "fault run passes its gates")
        check(result["failed"] == 1, "fault run counts exactly one failed request")
        failed = sum(p["failed"] for p in phases["phases"])
        check(failed == 1, "the phase line reports the failed request")
        check(sorted(result["metrics"]) == sorted(e2e),
              "fault run still prints every end-to-end metric")

    repeated = {"serve_solve": "core.fixed_point.rhs_evals",
                "sim_replicate": "sim.events"}
    for w in [w["name"] for w in bench["workloads"]]:
        seen = []
        for _ in range(2 if w in repeated else 1):
            _, result = run(w, 7, 6, 1)
            if not result:
                break
            m = result["metrics"]
            check(result["correct"], "%s traced run passes its gates" % w)
            check(sorted(m) == sorted(per_layer),
                  "%s traced run prints every per-layer metric" % w)
            if w in repeated:
                seen.append(m[repeated[w]]["value"])
        if w == "serve_solve" and result:
            check(result["metrics"]["exp.cache.hit_ratio"]["value"] == 0,
                  "serve_solve cache hit ratio is 0")
            check(result["metrics"]["exp.cache.replay_hit_ratio"]["value"] == 1,
                  "serve_solve replay cache hit ratio is 1")
        if w in repeated and len(seen) == 2:
            check(seen[0] == seen[1] and seen[0] > 0,
                  "%s repeats across runs (%s)" % (repeated[w], seen))
        check(os.path.isfile(os.path.join(BUILD, "trace-%s.json" % w)),
              "%s trace file written" % w)

    bare = os.path.join(BUILD, "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_solve",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    check(out.returncode != 0 and "metrics" not in out.stdout,
          "without sources the benchmark fails and prints no result")
    shutil.rmtree(bare)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
