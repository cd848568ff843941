#!/usr/bin/env bash
# Tier-1 gate: full build + test suite, the fixed-point property suite
# over its full λ grids, a ThreadSanitizer pass over the
# concurrency-sensitive pieces (work-stealing thread pool + experiment
# runner), UBSan and ASan+UBSan passes over the solver stack (plus
# parallel_map and the runner under ASan+UBSan), a warning-free build, the
# paper's Tables 1-4 rendered cold against their committed rows, the
# deterministic-counter gate against the committed BENCH files, and
# report-only perf smokes (reports under build/perf/) against the
# committed baselines.
#
#   scripts/check.sh               # everything (~4 min)
#   SKIP_TSAN=1 scripts/check.sh   # skip the thread-sanitizer pass
#   SKIP_UBSAN=1 scripts/check.sh  # skip the UB-sanitizer pass
#   SKIP_ASAN=1 scripts/check.sh   # skip the address+UB-sanitizer pass
#   SKIP_PERF=1 scripts/check.sh   # skip the perf smokes
#   SKIP_PROPERTIES=1 scripts/check.sh  # skip the full-grid property pass
#   SKIP_TABLES=1 scripts/check.sh     # skip the golden-table leg
#   SKIP_FAULTS=1 scripts/check.sh # skip the fault-injection leg
#   SKIP_PHASE_TYPE=1 scripts/check.sh  # skip the phase-type service leg
#   SKIP_LARGE_N=1 scripts/check.sh  # skip the 10^5-processor smoke leg
#   SKIP_SERVE=1 scripts/check.sh  # skip the sweep-daemon leg
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== tier 1: build + ctest"
# build/ is configured as the tier-1 command in ROADMAP.md configures it
# (the default generator), so the gate runs on that tree; only the fresh
# sanitizer trees below pick Ninja.
cmake -B build -S . >/dev/null
# The Release build of every target compiles warning-free; any compiler
# warning fails the gate so a new one cannot hide in the noise.
build_log="$(mktemp)"
cmake --build build -j "$jobs" 2>&1 | tee "$build_log"
if grep -q "warning:" "$build_log"; then
  echo "tier 1: the build printed compiler warnings (see above)" >&2
  rm -f "$build_log"
  exit 1
fi
rm -f "$build_log"
ctest --test-dir build --output-on-failure -j "$jobs"

if [ "${SKIP_PROPERTIES:-0}" != "1" ]; then
  # Tier 1 already ran the property suite on its fast default grids;
  # this leg re-runs just the `properties`-labelled binary with the
  # widened λ grids (0.50..0.95, full up/down bistable sweep).
  echo "== properties: fixed-point suite over the full λ grids"
  LSM_PROPERTIES_FULL=1 ctest --test-dir build --output-on-failure \
    -j "$jobs" -L properties
fi

if [ "${SKIP_TABLES:-0}" != "1" ]; then
  # Tables 1-4 at quick fidelity, each rendered with a fresh result cache
  # and artifact directory so that no cached job can answer, must print
  # exactly the table rows committed under bench/golden/. A change that
  # moves a row on purpose re-renders the file and names the move in
  # CHANGES.md.
  echo "== tables: table1-table4 rows against bench/golden/"
  tbl_tmp="$(mktemp -d)"
  tbl_failed=0
  for bench in table1_simple_ws table2_constant_service \
      table3_transfer_time table4_two_choices; do
    golden="bench/golden/${bench%%_*}.txt"
    LSM_CACHE_DIR="$tbl_tmp/$bench/cache" \
      LSM_ARTIFACTS="$tbl_tmp/$bench/artifacts" \
      "./build/bench/$bench" > "$tbl_tmp/$bench.out"
    if ! grep '^|' "$tbl_tmp/$bench.out" | diff "$golden" -; then
      echo "tables: $bench printed rows that differ from $golden" >&2
      tbl_failed=1
    fi
  done
  rm -rf "$tbl_tmp"
  [ "$tbl_failed" = 0 ]
fi

if [ "${SKIP_FAULTS:-0}" != "1" ]; then
  # Degrade-don't-die: the fault-injection suite, then a whole table bench
  # run under an armed injector in report mode — the table must still
  # render (with holes for the failed jobs) and the process must exit 0 —
  # and a budget-exhausted model_cli must fail with a structured JSON
  # error instead of looping.
  echo "== faults: injection suite + degraded table render + CLI budget error"
  ./build/tests/test_fault_injection
  fault_tmp="$(mktemp -d)"
  trap 'rm -rf "$fault_tmp"' EXIT
  LSM_FAULT_SEED=20260807 LSM_FAULT_PROFILE="io=0.1,job=0.5,slow=0.2" \
    LSM_ON_FAILURE=report \
    LSM_CACHE_DIR="$fault_tmp/cache" LSM_ARTIFACTS="$fault_tmp/artifacts" \
    ./build/bench/table1_simple_ws | tee "$fault_tmp/table1.out"
  grep -q "lambda" "$fault_tmp/table1.out"
  if ./build/examples/model_cli simple --lambda=0.97 --max-evals=40 \
      --json > "$fault_tmp/cli.json"; then
    echo "model_cli should have failed under an exhausted budget" >&2
    exit 1
  fi
  grep -q '"error"' "$fault_tmp/cli.json"
  grep -q '"kind": "solver-budget"' "$fault_tmp/cli.json"
  # That run takes the default Krylov route (Anderson warmup, Newton
  # finish). The explicit Anderson path keeps the same contract.
  if ./build/examples/model_cli simple --lambda=0.97 --max-evals=40 \
      --solver=anderson --json > "$fault_tmp/cli_anderson.json"; then
    echo "anderson model_cli should have failed under an exhausted budget" >&2
    exit 1
  fi
  grep -q '"kind": "solver-budget"' "$fault_tmp/cli_anderson.json"
  # Same contract for an explicit --solver=krylov at 5000 unknowns, where
  # the Newton finish preconditions with the banded chord: an exhausted
  # budget inside the Newton-Krylov solve and an injected divergence must
  # both surface as structured errors.
  if ./build/examples/model_cli no-stealing --lambda=0.99 --L=4999 \
      --solver=krylov --max-evals=500 --json > "$fault_tmp/cli_krylov.json"; then
    echo "krylov model_cli should have failed under an exhausted budget" >&2
    exit 1
  fi
  grep -q '"kind": "solver-budget"' "$fault_tmp/cli_krylov.json"
  if LSM_FAULT_SEED=20260810 LSM_FAULT_PROFILE="solver=1" \
      ./build/examples/model_cli simple --lambda=0.9 --solver=krylov \
      --json > "$fault_tmp/cli_krylov_fault.json"; then
    echo "krylov model_cli should have failed under an armed solver fault" >&2
    exit 1
  fi
  grep -q '"kind": "solver-diverged"' "$fault_tmp/cli_krylov_fault.json"
fi

if [ "${SKIP_PHASE_TYPE:-0}" != "1" ]; then
  # The phase-type service axis: the closed-form/reduction suite, then
  # the SCV-sweep bench on its smoke grid (2 SCVs x 2 lambdas,
  # mean-field only) under an armed fault injector — the table and the
  # flip/agreement summary must still render and the process exit 0.
  echo "== phase-type: closed-form suite + SCV sweep smoke under faults"
  ./build/tests/test_phase_type
  pt_tmp="$(mktemp -d)"
  LSM_SCV_SMOKE=1 \
    LSM_FAULT_SEED=20260808 LSM_FAULT_PROFILE="io=0.1,job=0.5,slow=0.2" \
    LSM_ON_FAILURE=report \
    LSM_CACHE_DIR="$pt_tmp/cache" LSM_ARTIFACTS="$pt_tmp/artifacts" \
    ./build/bench/fig_scv_flip | tee "$pt_tmp/scv.out"
  grep -q "lambda" "$pt_tmp/scv.out"
  grep -q "flip:" "$pt_tmp/scv.out"
  rm -rf "$pt_tmp"
fi

if [ "${SKIP_LARGE_N:-0}" != "1" ]; then
  # Scale-out smoke: the convergence-rate bench's tiny grid tops out at
  # n = 10^5, exercising the sharded SoA engine well past the old
  # per-processor-heap scale — under an armed fault injector in report
  # mode, so failure isolation is checked on the same path. Both tables
  # (per-point gaps and the decay-fit summary) must render and the
  # process must exit 0.
  echo "== large-n: 10^5-processor convergence smoke under faults"
  ln_tmp="$(mktemp -d)"
  LSM_FS_SMOKE=1 \
    LSM_FAULT_SEED=20260809 LSM_FAULT_PROFILE="io=0.1,job=0.5,slow=0.2" \
    LSM_ON_FAILURE=report \
    LSM_CACHE_DIR="$ln_tmp/cache" LSM_ARTIFACTS="$ln_tmp/artifacts" \
    ./build/bench/fig_finite_size | tee "$ln_tmp/fs.out"
  grep -q "100000" "$ln_tmp/fs.out"
  grep -q "beta" "$ln_tmp/fs.out"
  rm -rf "$ln_tmp"
fi

if [ "${SKIP_SERVE:-0}" != "1" ]; then
  # The always-on sweep daemon (docs/SERVING.md), end-to-end over the
  # real binaries: a cold sweep, the same grid replayed (must be all
  # cache hits from the shared cache), a status round-trip, an armed
  # fault filtered to one request id (its points must fail with the
  # structured job-fault payload and the client must propagate a
  # nonzero exit — while the other requests on the same daemon stay
  # clean), an unknown-model error, then a clean drain-and-exit.
  echo "== serve: lsm_serve daemon smoke (cache replay, armed fault, shutdown)"
  srv_tmp="$(mktemp -d)"
  srv_sock="$srv_tmp/lsm.sock"
  srv_client=./build/src/serve/lsm_serve_client
  LSM_FAULT_SEED=20260811 LSM_FAULT_PROFILE="job=1" \
    LSM_FAULT_ONLY="doomed@0.7" LSM_CACHE_DIR="$srv_tmp/cache" \
    ./build/src/serve/lsm_serve --socket="$srv_sock" --threads=4 \
    > "$srv_tmp/daemon.out" &
  srv_pid=$!
  "$srv_client" --socket="$srv_sock" sweep --id=cold --model=simple \
    --lambdas=0.5,0.7,0.9 | tee "$srv_tmp/cold.out"
  grep -q '"type":"done"' "$srv_tmp/cold.out"
  grep -q '"failed":0' "$srv_tmp/cold.out"
  "$srv_client" --socket="$srv_sock" sweep --id=replay --model=simple \
    --lambdas=0.5,0.7,0.9 | tee "$srv_tmp/replay.out"
  grep -q '"cache_hits":3' "$srv_tmp/replay.out"
  "$srv_client" --socket="$srv_sock" status | grep -q '"type":"status"'
  # The armed fault dooms exactly the λ=0.7 point of id "doomed": the
  # stream must carry the per-point payload and the client must exit 2
  # ("done, but some points failed").
  if "$srv_client" --socket="$srv_sock" sweep --id=doomed --model=threshold \
      --lambdas=0.5,0.7,0.9 > "$srv_tmp/doomed.out"; then
    echo "serve client should have propagated the failed point" >&2
    exit 1
  fi
  grep -q '"kind":"job-fault"' "$srv_tmp/doomed.out"
  if "$srv_client" --socket="$srv_sock" sweep --id=bad --model=nope \
      --lambdas=0.5 > "$srv_tmp/bad.out"; then
    echo "serve client should have failed on an unknown model" >&2
    exit 1
  fi
  grep -q '"kind":"invalid-argument"' "$srv_tmp/bad.out"
  "$srv_client" --socket="$srv_sock" shutdown | grep -q '"type":"shutting_down"'
  wait "$srv_pid"  # the daemon must drain and exit 0
  rm -rf "$srv_tmp"
fi

if [ "${SKIP_TSAN:-0}" != "1" ]; then
  echo "== tsan: work-stealing pool + runner determinism under -fsanitize=thread"
  cmake -B build-tsan -G Ninja -DLSM_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-tsan -j "$jobs" \
    --target test_parallel test_exp_runner test_fault_injection
  cmake --build build-tsan -j "$jobs" \
    --target test_phase_type test_sim_shards test_krylov
  cmake --build build-tsan -j "$jobs" \
    --target test_serve_concurrency test_serve_lifecycle test_serve_fault
  # Unfiltered: the pool tests and every ParallelMap test (in-order
  # cursor claims, drain-before-rethrow).
  ./build-tsan/tests/test_parallel
  # The Krylov/batched-RHS suite: single-threaded by design, run under
  # TSan to catch unsynchronized shared workspace state.
  ./build-tsan/tests/test_krylov
  # Sharded-engine replications across the pool: shard-count independence
  # must hold with the SoA engines running on pool threads.
  ./build-tsan/tests/test_sim_shards \
    --gtest_filter='ShardIndependence.PooledReplicationsMatchSerial'
  # Replicated phase-type sampling fans the new alias-table sampler
  # across the pool.
  ./build-tsan/tests/test_phase_type \
    --gtest_filter='PhaseTypeSimulation.*:ServiceDistribution.*'
  # The one experiment engine: every job's replications run as separate
  # pool units (the last one to finish assembles the job's result), next
  # to one estimate chain per entry, and the halves merge per job.
  ./build-tsan/tests/test_exp_runner \
    --gtest_filter='Runner.ManifestIsIdenticalAcrossPoolWidths:Runner.ExternalPoolIsUsable:Runner.ReplicationUnitsMatchSerialReplicate:Runner.JobWallNeverExceedsRunWall:SweepRunner.ManifestIsIdenticalAcrossPoolWidths:SweepRunner.MixedSimAndEstimateEntriesMergeIntoOneReport'
  # Faulted runs add retry/backoff + failure merging on the pool paths.
  ./build-tsan/tests/test_fault_injection --gtest_filter='FaultRunner.*:FaultSweep.*'
  # The sweep daemon: session threads, dispatcher threads, the solver
  # pool, and the shared cache all interleave — concurrent clients,
  # cancel/drain/disconnect races, and faulted streams must be clean.
  ./build-tsan/tests/test_serve_concurrency
  ./build-tsan/tests/test_serve_lifecycle
  ./build-tsan/tests/test_serve_fault
fi

if [ "${SKIP_UBSAN:-0}" != "1" ]; then
  echo "== ubsan: ODE solvers + core fixed-point engine under -fsanitize=undefined"
  cmake -B build-ubsan -G Ninja -DLSM_SANITIZE=undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-ubsan -j "$jobs" \
    --target test_ode test_linalg test_banded test_anderson test_krylov \
    test_hot_loop_alloc test_model_fixed_point test_phase_type \
    test_serve_protocol
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  ./build-ubsan/tests/test_ode
  # Band + border LU: index arithmetic over row windows.
  ./build-ubsan/tests/test_linalg
  ./build-ubsan/tests/test_banded
  ./build-ubsan/tests/test_anderson
  ./build-ubsan/tests/test_krylov
  ./build-ubsan/tests/test_hot_loop_alloc
  ./build-ubsan/tests/test_model_fixed_point
  ./build-ubsan/tests/test_phase_type
  # The daemon's protocol suite: socket I/O, JSON parsing of hostile
  # input, and the size_t/double counter plumbing in responses.
  ./build-ubsan/tests/test_serve_protocol
fi

if [ "${SKIP_ASAN:-0}" != "1" ]; then
  # The LU's row windows are addressed by offsets into one arena; an
  # out-of-bounds write there corrupts a neighbouring row silently, so the
  # LU and its users run under AddressSanitizer (with UBSan and the
  # libstdc++ container assertions). The lane kernels, which are every
  # model's right-hand side, index raw pointers (x + (i +- 1) * nb) with
  # no container check, so the model suites run here too: the composed
  # stealing kernel's rows reach i + k and j + T by offset
  # (test_model_reduction, test_model_variants); the Erlang kernel reads
  # i +- c, re-balancing reads the correlation rows 2i - j and 2i - j - 1,
  # and the staged-transfer, K-class and spawning kernels walk per-segment
  # rows of the packed state (test_krylov's oracle test covers all of
  # them at 1 and 8 lanes, test_multi_class the K-class model); the
  # phase-type kernels stage exit sums one row ahead in each class and
  # read p segments per row (test_phase_type). The banded LU and its FD
  # band assembly (pointer walks down and across the column-major band;
  # the Krylov path's banded chord is their only user, test_banded their
  # suite) run here too, as do Anderson's fused, blocked history passes
  # (raw column pointers) with their bit-for-bit oracle tests.
  # parallel_map's cursor writes result slots from pool threads, and the
  # runner's replication units write per-job slots the last unit then
  # reads, so test_parallel and test_exp_runner run here too. The daemon's protocol suite parses
  # hostile input into JSON trees and answers over sockets, so
  # test_serve_protocol joins it from the UBSan leg. The transfer kernels
  # also run under the integrator (test_trajectory) and through the
  # Table 3 golden solves (test_golden_values).
  # test_hot_loop_alloc replaces operator new and stays on the UBSan leg.
  echo "== asan: LUs, ODE solvers, Anderson, lane kernels (phase-type included), the K-class model, the property suite, parallel_map, the runner and the daemon protocol under -fsanitize=address,undefined"
  cmake -B build-asan -G Ninja -DLSM_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS >/dev/null
  cmake --build build-asan -j "$jobs" \
    --target test_linalg test_ode test_krylov test_fixed_point_properties \
    test_model_basic test_multi_class test_model_registry_sweep \
    test_banded test_anderson test_parallel test_exp_runner \
    test_model_reduction test_model_variants test_serve_protocol \
    test_phase_type test_trajectory test_golden_values
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  ./build-asan/tests/test_linalg
  ./build-asan/tests/test_ode
  ./build-asan/tests/test_krylov
  ./build-asan/tests/test_banded
  ./build-asan/tests/test_anderson
  ./build-asan/tests/test_fixed_point_properties
  ./build-asan/tests/test_model_basic
  ./build-asan/tests/test_multi_class
  ./build-asan/tests/test_model_registry_sweep
  ./build-asan/tests/test_model_reduction
  ./build-asan/tests/test_model_variants
  ./build-asan/tests/test_parallel
  ./build-asan/tests/test_exp_runner
  ./build-asan/tests/test_serve_protocol
  ./build-asan/tests/test_phase_type
  ./build-asan/tests/test_trajectory
  ./build-asan/tests/test_golden_values
fi

# The counter gate: evaluation counts, truncations, solver paths, sojourn
# and residual bits of the fixed-point grids, and the simulator's event
# counts, must equal the committed BENCH files exactly. Each grid runs
# once: with the perf smokes on, that run also writes its report-only
# numbers (wall time, events/sec, speedup vs the committed baseline files)
# under build/perf/, never over the committed files. A change that moves a
# counter must regenerate the committed file itself (run perf_ode or
# perf_sim without --check, with the committed path as the out path) and
# name the move in CHANGES.md.
echo "== counters: perf_ode and perf_sim against the committed BENCH files"
cmake --build build -j "$jobs" --target perf_ode perf_sim  # tier-1 build is Release
if [ "${SKIP_PERF:-0}" != "1" ]; then
  # Report-only: wall times on shared machines are too noisy for a hard
  # threshold. A simulator regression shows as a shrinking speedup column
  # against BENCH_sim.baseline.json (the pre-overhaul engine); a solver
  # regression as a shrinking "eval redux" against BENCH_ode.baseline.json;
  # a continuation regression as a shrinking warm-vs-cold eval_reduction
  # or a growing max_sojourn_dev in the sweep report.
  echo "== perf smoke: reports in build/perf/ (report-only beyond the counters)"
  mkdir -p build/perf
  ./build/bench/perf/perf_sim build/perf/BENCH_sim.json \
    bench/perf/BENCH_sim.baseline.json --check=bench/perf/BENCH_sim.json
  ./build/bench/perf/perf_ode build/perf/BENCH_ode.json \
    bench/perf/BENCH_ode.baseline.json --check=bench/perf/BENCH_ode.json
  ./build/bench/perf/perf_ode build/perf/BENCH_ode_sweep.json \
    --mode=sweep-warm --check=bench/perf/BENCH_ode_sweep.json
  # Anderson's cost per iteration, its least-squares window step alone
  # (solve, extrapolate, drop, push at depth 10), and two whole solves,
  # polish included (simple and transfer at lambda = 0.9), report-only.
  cmake --build build -j "$jobs" --target micro_perf
  ./build/bench/micro_perf \
    --benchmark_filter='BM_AndersonIteration|BM_HistoryQrStep|BM_FixedPointSolve|BM_TransferFixedPointSolve' \
    --benchmark_out=build/perf/micro_perf_smoke.json \
    --benchmark_out_format=json
else
  ./build/bench/perf/perf_sim --check=bench/perf/BENCH_sim.json
  ./build/bench/perf/perf_ode --check=bench/perf/BENCH_ode.json
  ./build/bench/perf/perf_ode --mode=sweep-warm \
    --check=bench/perf/BENCH_ode_sweep.json
fi

echo "check: all green"
