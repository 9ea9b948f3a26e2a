#!/usr/bin/env bash
# Tier-2 correctness gate.  Slower than the tier-1 `cmake && ctest` loop;
# run before merging anything that touches storage, Rete, or the strategies.
#
#   1. AddressSanitizer build + full test suite
#   2. UndefinedBehaviorSanitizer build + full test suite
#   3. Deep-audit build (PROCSIM_AUDIT=ON) + focused structural tests.
#      Audit hooks re-validate whole structures after every mutation, so the
#      full suite under audit would be quadratic on bulk loads; the focused
#      list exercises every validator without that blowup.
#   4. ThreadSanitizer build + the concurrent-engine, observability and
#      threaded lock tests (latch-rank checker, multi-session stress,
#      metrics-registry hammering, parked R1 lock waiters; zero reports
#      allowed)
#   5. Crash-recovery gate: the crash-point fuzzing harness plus the
#      recovery-idempotence suite (label `recovery` in the relwithdebinfo
#      preset) — every WAL record boundary is a simulated crash, recovery
#      is oracle-checked, and the planted-bug self-test must still trip
#   6. Bench smoke: every figure/table/ablation binary in --quick mode
#      (label `bench-smoke` in the relwithdebinfo preset)
#   7. Golden-figure gate: full-mode analytic bench snapshots diffed
#      against bench/goldens/ at 2% tolerance (tools/bench_json.sh)
#   8. Thread-safety gate: Clang build under -Werror=thread-safety (the
#      `thread-safety` preset), including the expected-to-fail
#      negative-compile fixture; skipped gracefully when clang++ is absent
#   9. procsim_lint gate: all four static-analysis passes (latch-rank,
#      layering DAG, metrics consistency, annotation coverage) over src/ —
#      the --json report must be byte-identical to the empty-findings
#      golden (tools/procsim_lint/goldens/clean.json)
#  10. Static-analysis gate (tools/check.sh)
#  11. Format gate (tools/format.sh --check; no-op without clang-format)
#  12. Release build (build-only): the whole tree at -O3 under
#      PROCSIM_WERROR, whose inlining raises warnings the other presets
#      never see
set -eu -o pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

run_preset() {
  local preset="$1"
  shift
  echo "=== ci.sh: preset ${preset} ==="
  cmake --preset "${preset}" >/dev/null
  cmake --build --preset "${preset}" -j "${JOBS}"
  ctest --preset "${preset}" "$@"
}

run_preset asan
run_preset ubsan
run_preset audit -R 'Audit|Validate|BTree|HeapFile|Page|BufferCache|Rete|TupleStore|ILock|Invalidation|Avm|DeltaSet|Executor'
run_preset tsan -R 'Concurrent|LatchRank|Obs|TxnLock|TxnEngineRun'

echo "=== ci.sh: crash-recovery gate (crash-point fuzz + idempotence) ==="
cmake --preset relwithdebinfo >/dev/null
cmake --build --preset relwithdebinfo -j "${JOBS}"
ctest --preset relwithdebinfo -L recovery

echo "=== ci.sh: bench smoke (quick mode) ==="
ctest --preset relwithdebinfo -L bench-smoke

echo "=== ci.sh: golden-figure gate ==="
bash tools/bench_json.sh build

echo "=== ci.sh: thread-safety analysis ==="
if command -v clang++ >/dev/null 2>&1; then
  # Full tree under -Werror=thread-safety, plus the negative-compile fixture
  # (tests/CMakeLists.txt aborts the configure if the fixture compiles).
  run_preset thread-safety -R 'ThreadAnnotations|LatchRank'
else
  echo "ci.sh: clang++ not found; skipping thread-safety preset" >&2
  echo "ci.sh: (the annotations compile to no-ops under this toolchain;" >&2
  echo "ci.sh:  the procsim_lint gate below still enforces the rank order)" >&2
fi

echo "=== ci.sh: procsim_lint (latch-rank, layering, metrics, annotations) ==="
cmake --build --preset relwithdebinfo -j "${JOBS}" --target procsim_lint
./build/tools/procsim_lint --root . --json > build/procsim_lint.json || true
diff -u tools/procsim_lint/goldens/clean.json build/procsim_lint.json || {
  echo "ci.sh: procsim_lint findings (full report follows)" >&2
  ./build/tools/procsim_lint --root . >&2 || true
  exit 1
}

echo "=== ci.sh: static analysis ==="
bash tools/check.sh build-asan

echo "=== ci.sh: format check ==="
bash tools/format.sh --check

echo "=== ci.sh: release build (build-only) ==="
cmake -S . -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "${JOBS}"

echo "ci.sh: ALL GATES PASSED"
