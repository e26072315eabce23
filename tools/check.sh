#!/usr/bin/env bash
# Correctness gate: builds and runs the full test suite under several
# compiler/runtime instrumentation configurations, plus a lint pass.
#
#   tools/check.sh              run every stage
#   tools/check.sh plain asan   run only the named stages
#
# Stages:
#   plain  RelWithDebInfo, promoted warnings as errors (SS_WERROR=ON); after
#          ctest (one process per test) the suite runs once more as a single
#          ss_tests process, so state that bleeds from one test into the
#          next (metrics, msgpath counters, process-wide hooks) fails it
#   asan   AddressSanitizer + UndefinedBehaviorSanitizer
#   tsan   ThreadSanitizer over the full suite (the realtime backend runs
#          N event lanes plus a crypto worker pool; this is the primary
#          data-race gate for that code)
#   tidy   clang-tidy over src/ (skipped with a notice if clang-tidy is not
#          installed locally; under CI (the CI env var is set) a missing
#          clang-tidy is a hard failure so the stage can never silently
#          degrade to a no-op)
#   bench  data-path smoke test: builds and runs bench_msg_path once (the
#          binary self-asserts the zero-copy contract: 0 payload copies per
#          local multicast, <= 1 across daemons, and with --baseline every
#          scenario counter must equal BENCH_msgpath.json exactly), then
#          bench_parallel_rekey against the recorded BENCH_rekey.json
#          baseline (exponentiation counts must match within 10% — a drift
#          means the rekey protocol started doing more or less crypto work;
#          latency has a loose 30x band so shared CI boxes don't flake),
#          then bench_ablation_rekey
#          (cliques vs CKD vs TGDH at n=50,500 against
#          BENCH_rekey_ablation.json, asserting TGDH stays O(log n) per
#          member while Cliques' controller is O(n)), then
#          bench_ablation_cipher (exits nonzero if a group never keys or a
#          burst never fully arrives); any binary exiting nonzero fails the
#          stage
#   obs    observability gate: runs the Obs* test suites (metrics math,
#          trace span balance, golden cluster trace), then captures a live
#          bench_fig3 trace and validates it with obs_report --check
#   netd   real-network gate: builds the spreadd daemon and the multi-process
#          cluster harness, then forks 3 spreadd processes on localhost UDP
#          and drives join/leave/crash/rekey through their client gates; the
#          harness self-asserts the membership/key-epoch transcript against
#          the sim backend and the transport's zero-copy counters. A hard
#          timeout plus an orphan sweep guarantee no stray daemons outlive
#          the stage even when the harness is killed mid-run
#   rt     runtime-seam gate: builds and runs examples/realtime_demo under a
#          wall-clock budget; the demo self-asserts that the realtime
#          backend reproduces the sim backend's membership and key-epoch
#          transcript (the old "no sim headers in protocol code" grep now
#          lives in sslint's layer-dag/layer-reach rules, stage `lint`);
#          then re-runs the lane/worker-pool suites (Parallel*, WorkerPool*)
#          under ThreadSanitizer so a race in the offload seam fails this
#          stage even when the full `tsan` stage was not selected
#   lint   static enforcement: builds and runs tools/sslint over the tree
#          (layering DAG, banned APIs, include hygiene, orphan sources —
#          see tools/sslint.rules), then builds the whole tree under
#          Clang's -Wthread-safety promoted to an error (skipped with a
#          notice if clang++ is not installed locally; under CI a missing
#          clang++ is a hard failure so the stage can never silently
#          degrade to a no-op)
set -u

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] && STAGES=(plain asan tsan tidy lint bench obs netd rt)
FAILED=()

# The plain stage's single-process pass (see the stage list above).
single_process() {
  local name=$1 dir=$2
  [ "$name" != plain ] || "./$dir/tests/ss_tests" --gtest_brief=1
}

run_stage() {
  local name=$1 dir=$2
  shift 2
  echo "==== stage: $name ===="
  if cmake -B "$dir" -S . "$@" \
      && cmake --build "$dir" -j "$JOBS" \
      && ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
      && single_process "$name" "$dir"; then
    echo "==== stage $name: OK ===="
  else
    echo "==== stage $name: FAILED ===="
    FAILED+=("$name")
  fi
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    plain)
      run_stage plain build-check -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSS_WERROR=ON
      ;;
    asan)
      ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1} \
      UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1} \
      run_stage asan build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSS_SANITIZE=address,undefined
      ;;
    tsan)
      run_stage tsan build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSS_SANITIZE=thread
      ;;
    tidy)
      if command -v clang-tidy >/dev/null 2>&1; then
        echo "==== stage: tidy ===="
        cmake -B build-check -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
        if find src -name '*.cpp' -print0 \
            | xargs -0 -n 8 -P "$JOBS" clang-tidy -p build-check --quiet; then
          echo "==== stage tidy: OK ===="
        else
          echo "==== stage tidy: FAILED ===="
          FAILED+=(tidy)
        fi
      elif [ -n "${CI:-}" ]; then
        # Under CI the image must provide clang-tidy; a silent skip would
        # let lint regressions through unnoticed.
        echo "==== stage tidy: FAILED (clang-tidy not installed but CI is set) ===="
        FAILED+=(tidy)
      else
        echo "==== stage tidy: SKIPPED (clang-tidy not installed) ===="
      fi
      ;;
    bench)
      echo "==== stage: bench ===="
      # bench_msg_path's overhead A/B defaults (10 reps, 15% band) already
      # tolerate single-core shared boxes; SS_BENCH_OVERHEAD_* still
      # overrides for local experiments.
      # The rekey ablation (cliques/ckd/tgdh at n=50,500) asserts TGDH's
      # O(log n) per-member cost against Cliques' O(n) and compares per-member
      # exp counts with the recorded baseline; its cliques n=500 bootstrap
      # dominates the stage (~3 min).
      if cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null \
          && cmake --build build-check \
              --target bench_msg_path bench_parallel_rekey bench_ablation_rekey \
                       bench_ablation_cipher -j "$JOBS" \
          && ./build-check/bench/bench_msg_path --baseline BENCH_msgpath.json > /dev/null \
          && ./build-check/bench/bench_parallel_rekey \
              --baseline BENCH_rekey.json > /dev/null \
          && ./build-check/bench/bench_ablation_rekey \
              --baseline BENCH_rekey_ablation.json > /dev/null \
          && ./build-check/bench/bench_ablation_cipher > /dev/null; then
        echo "==== stage bench: OK ===="
      else
        echo "==== stage bench: FAILED ===="
        FAILED+=(bench)
      fi
      ;;
    obs)
      echo "==== stage: obs ===="
      TRACE=build-check/fig3_trace.json
      if cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null \
          && cmake --build build-check \
              --target ss_tests obs_report bench_fig3_membership_time -j "$JOBS" \
          && ctest --test-dir build-check --output-on-failure -R '^Obs' -j "$JOBS" \
          && SS_TRACE="$TRACE" SS_BENCH_SIZES=2,3 SS_BENCH_BATCH=1 \
              SS_BENCH_GROUP=tiny64 \
              ./build-check/bench/bench_fig3_membership_time > /dev/null \
          && ./build-check/tools/obs_report --check "$TRACE"; then
        echo "==== stage obs: OK ===="
      else
        echo "==== stage obs: FAILED ===="
        FAILED+=(obs)
      fi
      ;;
    netd)
      echo "==== stage: netd ===="
      # The harness owns its children (PDEATHSIG + waitpid), but if it is
      # itself killed by the timeout the daemons can outlive it — sweep any
      # spreadd started from this checkout's build dir afterwards.
      if cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null \
          && cmake --build build-check \
              --target spreadd netd_cluster_check -j "$JOBS" \
          && ( cd build-check/tests \
               && timeout --signal=KILL 300 \
                    ./netd_cluster_check ../src/netd/spreadd ); then
        echo "==== stage netd: OK ===="
      else
        echo "==== stage netd: FAILED ===="
        FAILED+=(netd)
      fi
      pkill -KILL -f "$(pwd)/build-check/src/netd/spreadd --conf" 2>/dev/null
      rm -f build-check/tests/netd_cluster_*.conf
      ;;
    rt)
      echo "==== stage: rt ===="
      if cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null \
          && cmake --build build-check --target realtime_demo -j "$JOBS" \
          && timeout 120 ./build-check/examples/realtime_demo \
          && cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
              -DSS_SANITIZE=thread >/dev/null \
          && cmake --build build-tsan --target ss_tests -j "$JOBS" \
          && ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
              -R 'Parallel|WorkerPool'; then
        echo "==== stage rt: OK ===="
      else
        echo "==== stage rt: FAILED ===="
        FAILED+=(rt)
      fi
      ;;
    lint)
      echo "==== stage: lint ===="
      LINT_OK=1
      # Prong 1: the project linter (layering DAG + banned APIs + hygiene).
      if cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null \
          && cmake --build build-check --target sslint -j "$JOBS" \
          && ./build-check/tools/sslint --check --root . -p build-check; then
        echo "---- sslint: OK ----"
      else
        echo "---- sslint: FAILED ----"
        LINT_OK=0
      fi
      # Prong 2: Clang thread-safety analysis over the capability
      # annotations (util/thread_safety.h), promoted to an error.
      if command -v clang++ >/dev/null 2>&1; then
        if cmake -B build-tsafety -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
              -DCMAKE_CXX_COMPILER=clang++ -DSS_THREAD_SAFETY=ON >/dev/null \
            && cmake --build build-tsafety -j "$JOBS"; then
          echo "---- thread-safety: OK ----"
        else
          echo "---- thread-safety: FAILED ----"
          LINT_OK=0
        fi
      elif [ -n "${CI:-}" ]; then
        # Under CI the image must provide clang++; a silent skip would let
        # locking-discipline regressions through unnoticed.
        echo "---- thread-safety: FAILED (clang++ not installed but CI is set) ----"
        LINT_OK=0
      else
        echo "---- thread-safety: SKIPPED (clang++ not installed) ----"
      fi
      if [ "$LINT_OK" -eq 1 ]; then
        echo "==== stage lint: OK ===="
      else
        echo "==== stage lint: FAILED ===="
        FAILED+=(lint)
      fi
      ;;
    *)
      echo "unknown stage: $stage (expected plain|asan|tsan|tidy|lint|bench|obs|netd|rt)" >&2
      exit 2
      ;;
  esac
done

if [ ${#FAILED[@]} -gt 0 ]; then
  echo "FAILED stages: ${FAILED[*]}" >&2
  exit 1
fi
echo "all stages passed"
