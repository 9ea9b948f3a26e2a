#!/usr/bin/env bash
# Golden-figure regression driver.
#
# Runs the deterministic (analytic-model) bench binaries in FULL mode,
# collects their BENCH_<name>.json snapshots into a scratch directory, and
# diffs each against the committed golden in bench/goldens/ with
# tools/bench_diff (2% relative tolerance on numeric leaves, exact match on
# structure and strings, "metrics" and "timings" ignored).  Goldens are
# written without those two keys.
#
#   tools/bench_json.sh [build-dir]                  # gate (default: build)
#   tools/bench_json.sh [build-dir] --update-goldens # re-baseline
#   tools/bench_json.sh --list                       # the gated benches
#
# Two kinds of bench are gated, both bit-stable across runs:
#   - the analytic benches, pure closed-form cost-model evaluations;
#   - measured benches whose figures are simulated costs or counts from a
#     fixed seed (fig20_memory_pressure, fig21_group_commit,
#     micro_row_paths, abl_adaptive, abl_hybrid, abl_join_shape,
#     abl_buffer_cache, abl_clustering_drift, sim_vs_analytic).  Their
#     wall-clock numbers, where any, sit under "timings", which
#     tools/bench_diff ignores and goldens omit.
# Every bench also runs as a `bench-smoke` ctest case (quick mode).
# micro_substrate, a wall-clock-only Google Benchmark, is not gated and
# runs only there.
set -eu -o pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="build"
UPDATE=0
LIST=0
for arg in "$@"; do
  case "${arg}" in
    --update-goldens) UPDATE=1 ;;
    --list) LIST=1 ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done

GOLDEN_DIR="bench/goldens"
BENCH_DIR="${BUILD_DIR}/bench"
DIFF_BIN="${BUILD_DIR}/tools/bench_diff"

# The golden set.  Keep in sync with bench/CMakeLists.txt and
# bench/goldens/.
GOLDEN_BENCHES=(
  fig04_inval_high
  fig05_default
  fig06_large_objects
  fig07_small_objects
  fig08_single_tuple
  fig09_high_locality
  fig10_many_objects
  fig11_sharing_m1
  fig12_regions_m1
  fig13_regions_locality
  fig14_closeness
  fig15_closeness_f2_1
  fig17_default_m2
  fig18_sharing_m2
  fig19_regions_m2
  tbl_cost_components
  tbl_params
  tbl_summary_speedups
  abl_cinval_sweep
  abl_sharing_arity
  abl_yao_exact
  fig20_memory_pressure
  fig21_group_commit
  micro_row_paths
  abl_adaptive
  abl_hybrid
  abl_join_shape
  abl_buffer_cache
  abl_clustering_drift
  sim_vs_analytic
)

if [[ "${LIST}" -eq 1 ]]; then
  printf '%s\n' "${GOLDEN_BENCHES[@]}"
  exit 0
fi

if [[ ! -x "${DIFF_BIN}" && "${UPDATE}" -eq 0 ]]; then
  echo "bench_json.sh: ${DIFF_BIN} not built (cmake --build ${BUILD_DIR})" >&2
  exit 2
fi

SCRATCH="$(mktemp -d)"
trap 'rm -rf "${SCRATCH}"' EXIT

echo "=== bench_json.sh: generating snapshots into ${SCRATCH} ==="
for bench in "${GOLDEN_BENCHES[@]}"; do
  bin="${BENCH_DIR}/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "bench_json.sh: missing bench binary ${bin}" >&2
    exit 2
  fi
  PROCSIM_BENCH_OUT="${SCRATCH}" "${bin}" >/dev/null
  if [[ ! -f "${SCRATCH}/BENCH_${bench}.json" ]]; then
    echo "bench_json.sh: ${bench} did not write BENCH_${bench}.json" >&2
    exit 2
  fi
done

if [[ "${UPDATE}" -eq 1 ]]; then
  mkdir -p "${GOLDEN_DIR}"
  # A golden keeps only what tools/bench_diff gates.  The "timings" and
  # "metrics" keys (always the last ones a bench writes) are cut, so no
  # wall-clock number and no stale copy of a counter added or deleted later
  # is committed.  The rest keeps the bench's own formatting.
  for bench in "${GOLDEN_BENCHES[@]}"; do
    python3 - "${SCRATCH}/BENCH_${bench}.json" \
        "${GOLDEN_DIR}/BENCH_${bench}.json" <<'EOF'
import json
import re
import sys

text = open(sys.argv[1]).read()
head = re.split(r'\n  "(?:timings|metrics)": ', text, maxsplit=1)[0]
golden = head.rstrip(",") + "\n}\n"
expected = json.loads(text)
expected.pop("timings", None)
if expected.pop("metrics", None) is None or json.loads(golden) != expected:
    sys.exit("bench_json.sh: cannot cut the metrics from " + sys.argv[1])
open(sys.argv[2], "w").write(golden)
EOF
  done
  echo "bench_json.sh: updated ${#GOLDEN_BENCHES[@]} goldens in ${GOLDEN_DIR}"
  exit 0
fi

echo "=== bench_json.sh: diffing against ${GOLDEN_DIR} ==="
FAILURES=0
for bench in "${GOLDEN_BENCHES[@]}"; do
  golden="${GOLDEN_DIR}/BENCH_${bench}.json"
  if [[ ! -f "${golden}" ]]; then
    echo "bench_json.sh: missing golden ${golden} (run with --update-goldens)" >&2
    FAILURES=$((FAILURES + 1))
    continue
  fi
  if ! "${DIFF_BIN}" "${golden}" "${SCRATCH}/BENCH_${bench}.json"; then
    FAILURES=$((FAILURES + 1))
  fi
done

if [[ "${FAILURES}" -gt 0 ]]; then
  echo "bench_json.sh: ${FAILURES} bench snapshot(s) drifted from goldens" >&2
  exit 1
fi
echo "bench_json.sh: all ${#GOLDEN_BENCHES[@]} snapshots match goldens"
