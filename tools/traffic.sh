#!/usr/bin/env bash
# Which src/ functions does the benchmark traffic never execute?
#
# Usage:
#
#   tools/traffic.sh [out-dir]
#
# Builds two --coverage trees under [out-dir] (default: a new directory under
# $TMPDIR), both configured from the command line:
#   main/       the repository, bench_diff and the golden benches only;
#   perfbench/  perfbench/CMakeLists.txt, the tree perfbench/run.py uses.
# Then runs the traffic:
#   - the golden benches, in full mode, through tools/bench_json.sh (which
#     also diffs them against bench/goldens/ and owns the list);
#   - each workload BENCHMARK.json declares, through perfbench/run.py with
#     --trace 0 and with --trace 1, seed 1, 2 seconds each.
# Finally merges the gcov -j counts of both trees per function and prints
# every function defined under src/ that no run executed, then a count.  The
# list is also written to [out-dir]/unexecuted.txt.  Only functions the
# compiler emitted are counted: an inline function no translation unit uses
# has no record.  [out-dir] is kept; a run takes 6-7 minutes on a
# 4-vCPU VM, most of it the two builds.
#
# A check behind simplicity work (code no workload reaches), not a gate.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$(mktemp -d "${TMPDIR:-/tmp}/traffic.XXXXXX")}
mkdir -p "$out"
out=$(cd "$out" && pwd)
jobs=$(($(nproc) < 4 ? $(nproc) : 4))
coverage=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=--coverage
  -DCMAKE_EXE_LINKER_FLAGS=--coverage)
echo "traffic: coverage builds and counts under $out" >&2

mapfile -t benches < <("$root/tools/bench_json.sh" --list)
cmake -S "$root" -B "$out/main" "${coverage[@]}" >/dev/null
cmake --build "$out/main" -j "$jobs" --target bench_diff "${benches[@]}" \
  >/dev/null
# run.py configures its tree only when it has no CMakeCache.txt, so this one
# (coverage flags included) is the one it builds and runs.
cmake -S "$root/perfbench" -B "$out/perfbench/perfbench" "${coverage[@]}" \
  >/dev/null
find "$out" \( -name '*.gcda' -o -name '*.gcov.json.gz' \) -delete

"$root/tools/bench_json.sh" "$out/main" >&2
mapfile -t workloads < <(python3 -c '
import json, sys
for workload in json.load(open(sys.argv[1]))["workloads"]:
    print(workload["name"])' "$root/BENCHMARK.json")
for workload in "${workloads[@]}"; do
  for trace in 0 1; do
    echo "traffic: perfbench $workload --trace $trace" >&2
    CARGO_TARGET_DIR="$out/perfbench" python3 "$root/perfbench/run.py" \
      --workload "$workload" --seed 1 --seconds 2 --trace "$trace" \
      >/dev/null
  done
done

# One gcov -j report per object directory, written beside its objects.
find "$out" -name '*.gcda' -printf '%h\n' | sort -u | while read -r dir; do
  (cd "$dir" && gcov -j ./*.gcda >/dev/null 2>&1)
done

python3 - "$root/src" "$out" <<'EOF'
import gzip
import json
import os
import sys
from pathlib import Path

src = os.path.realpath(sys.argv[1]) + os.sep
out = Path(sys.argv[2])
# (file, line, mangled name) -> summed execution count over every object
# file and both trees; a header function emitted in many objects is one.
counts = {}
names = {}
for report in out.rglob("*.gcov.json.gz"):
    data = json.load(gzip.open(report))
    cwd = data.get("current_working_directory", "")
    for entry in data["files"]:
        path = os.path.realpath(os.path.join(cwd, entry["file"]))
        if not path.startswith(src):
            continue
        for function in entry["functions"]:
            key = (path[len(src):], function["start_line"], function["name"])
            counts[key] = counts.get(key, 0) + function["execution_count"]
            names[key] = function.get("demangled_name", function["name"])

unexecuted = sorted(key for key, count in counts.items() if count == 0)
lines = [f"src/{path}:{line} {names[(path, line, name)]}"
         for path, line, name in unexecuted]
(out / "unexecuted.txt").write_text("".join(line + "\n" for line in lines))
print("\n".join(lines))
print(f"traffic: {len(unexecuted)} of {len(counts)} src/ functions unexecuted")
EOF
