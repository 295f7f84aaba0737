#!/usr/bin/env bash
# Full verification matrix: Release build + tests, then the thread pool and
# nn kernels under ThreadSanitizer, AddressSanitizer and UBSan, plus a
# serve-path fault-injection lane that re-runs the serving suite with every
# probe point armed via OMNIMATCH_FAULTS.
#
#   scripts/check.sh            # everything
#   scripts/check.sh release    # just the Release build + full ctest
#   scripts/check.sh portable   # portable-forced dispatch lane (reuses build/)
#   scripts/check.sh tsan       # just the TSan config
#   scripts/check.sh asan       # just the ASan config
#   scripts/check.sh ubsan      # just the UBSan config
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-all}"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Arms every serve-path probe point (common/fault.h): one rejected
# admission, forced cached-only and global-mean batches, two slow batches,
# and a failing snapshot swap. ServeFaultEnvTest asserts the server answers
# every request with an explicit status and keeps serving throughout.
SERVE_FAULTS="queue_admit@2:count=2;executor_score@3:mag=1,count=2;executor_score@8:mag=2,count=2;serve_slow@5:mag=20,count=2;snapshot_load@0"

run_release() {
  echo "=== Release build + full test suite ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure -j "${JOBS}"
  echo "=== Serve fault-injection lane (release) ==="
  OMNIMATCH_FAULTS="${SERVE_FAULTS}" ./build/tests/serve_fault_test \
    --gtest_filter='ServeFaultEnvTest.*'
  echo "=== Algorithm-1 index smoke benchmark ==="
  # Self-checking: fails unless the CSR like-minded path at least matches
  # the retired scan path's throughput at 10^5 users (their bit-identity is
  # pinned by AuxReviewTest.CsrPathBitIdenticalToReferenceScanOnTable2Config).
  # The 1.0 floor (vs the >=10x a quiet machine shows) keeps the gate
  # meaningful on loaded CI runners.
  ./build/bench/bench_auxgen --check --check_speedup_min=1.0 --reps=2 \
    --out=build/BENCH_auxgen.json
  echo "=== Million-user out-of-core smoke (RSS-capped) ==="
  # Streams a million-user world to OMDS files, maps them back, and drives
  # split + parallel auxiliary generation + checkpoint + serve scoring
  # entirely against the mapped files. Fails if peak RSS exceeds the fixed
  # 1 GB budget.
  local smoke_dir="${TMPDIR:-/tmp}/omnimatch_million_smoke"
  ./build/bench/bench_auxgen --million_smoke --users=1000000 \
    --max_rss_mb=1024 --workdir="${smoke_dir}" \
    --out=build/BENCH_auxgen_million.json
  rm -rf "${smoke_dir}"
  echo "=== End-to-end benchmark smoke (BENCHMARK.json workloads) ==="
  # Builds perfbench/ against the libraries' public calls and runs every
  # workload briefly, traced and untraced; fails unless each metric named
  # in BENCHMARK.json is emitted with its unit.
  python3 perfbench/run.py --smoke
}

# Portable lane: same (portable-flags) Release binaries, but with the
# runtime dispatcher pinned to the portable GEMM and text-CNN flavors via
# OMNIMATCH_ISA. This is what the build does on a CPU with no AVX2, so it
# proves the portability story end to end: the kernel and serving suites
# must pass, and so must the determinism suite and the training
# trajectory whose losses and RMSE are pinned bit for bit — a flavor that
# drifts by one bit fails an end-to-end run here, not only a kernel test.
run_portable() {
  echo "=== Portable lane: portable-forced dispatch ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build -j "${JOBS}" --target nn_test serve_test core_test
  OMNIMATCH_ISA=scalar ./build/tests/nn_test
  OMNIMATCH_ISA=scalar ./build/tests/serve_test
  OMNIMATCH_ISA=scalar ./build/tests/core_test \
    --gtest_filter='ReviewTokensTest.TrainingStepsMatchPinnedDraws:DeterminismTest.*'
}

# Sanitizer configs only build the test tree (benchmarks and examples add
# nothing to coverage and double the build time). TSan exercises the thread
# pool and its serial-work rule, the blocked GEMM, every parallel op (the
# miniature training step of nn_test's EagerStepTest dispatches some kernels
# and runs others inline), the sharded metrics / trace-ring
# concurrency tests through common_test/nn_test/obs_test, and the inference
# server's request-thread/executor-pool/cache/hot-swap handoffs through
# serve_test + serve_fault_test (the concurrent-submitter bit-identity test,
# the overload-plus-swap test and the swap-under-traffic version-consistency
# test are the interesting ones — the last swaps A->B->A->B through the
# SnapshotManager, so a frozen corpus shared by several snapshots outlives
# the one that built it while executors still read it), and the synthetic
# world's domains, built
# on first read, through data_test (threads racing to that first read);
# ASan and UBSan additionally run the
# trainer-level suites —
# including the fault-injection tests and the checkpoint resume tests, so
# every guard rollback/retry path and checkpoint validation are walked
# under instrumentation — plus data_test, so the
# OMDS validator meets its corrupted images (every flipped byte of a small
# one included) under instrumentation, and text_test, so the token table's
# offset arithmetic and the span document builder run instrumented. Each
# sanitizer lane then re-runs the serving suite's env-fault test with every
# serve probe point armed, so the degraded/rollback paths themselves run
# instrumented.
run_sanitizer() {
  local kind="$1" dir="build-$1" ; shift
  echo "=== ${kind} build (${dir}) ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DOMNIMATCH_SANITIZE="${kind}" \
    -DOMNIMATCH_BUILD_BENCHMARKS=OFF -DOMNIMATCH_BUILD_EXAMPLES=OFF \
    > /dev/null
  cmake --build "${dir}" -j "${JOBS}" --target "$@"
  for t in "$@"; do
    echo "--- ${kind}: ${t} ---"
    "./${dir}/tests/${t}"
  done
  echo "--- ${kind}: serve fault-injection lane ---"
  OMNIMATCH_FAULTS="${SERVE_FAULTS}" "./${dir}/tests/serve_fault_test" \
    --gtest_filter='ServeFaultEnvTest.*'
}

case "${MODE}" in
  release)  run_release ;;
  portable) run_portable ;;
  tsan)    run_sanitizer thread common_test nn_test data_test obs_test serve_test serve_fault_test ;;
  asan)    run_sanitizer address common_test nn_test core_test data_test text_test obs_test serve_test serve_fault_test ;;
  ubsan)   run_sanitizer undefined common_test nn_test core_test data_test text_test obs_test serve_test serve_fault_test ;;
  all)
    run_release
    run_portable
    run_sanitizer thread common_test nn_test data_test obs_test serve_test serve_fault_test
    run_sanitizer address common_test nn_test core_test data_test text_test obs_test serve_test serve_fault_test
    run_sanitizer undefined common_test nn_test core_test data_test text_test obs_test serve_test serve_fault_test
    ;;
  *) echo "usage: $0 [all|release|portable|tsan|asan|ubsan]" >&2 ; exit 2 ;;
esac

echo "OK (${MODE})"
