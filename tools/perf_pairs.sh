#!/usr/bin/env bash
# Paired perfbench runs: a parent commit against this checkout.
#
# Usage, from anywhere inside the repository:
#
#   tools/perf_pairs.sh <parent-ref> <workload> <pairs> [seconds]
#
# Exports <parent-ref> into a temporary directory (git archive, so nothing is
# registered in the repository) and runs perfbench/run.py there and in this
# checkout, working-tree edits included.  Each side builds into its own
# CARGO_TARGET_DIR inside the temporary directory, which is removed on exit.
# Pair i uses seed i, for i = 1..<pairs>; odd pairs run the parent first and
# even pairs the change first.  [seconds] defaults to BENCHMARK.json's
# run_seconds.
#
# Prints every run, then, for each end-to-end metric BENCHMARK.json declares,
# each side's median and quartiles, how many pairs the change wins (ties count
# for neither), and whether the gap between the medians exceeds the parent's
# interquartile range in the better direction.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
  echo "usage: $0 <parent-ref> <workload> <pairs> [seconds]" >&2
  exit 2
fi
parent_ref=$1
workload=$2
pairs=$3
root=$(git rev-parse --show-toplevel)
seconds=${4:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}
parent_sha=$(git -C "$root" rev-parse --verify "$parent_ref^{commit}")

work=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent"
git -C "$root" archive "$parent_sha" | tar -x -C "$work/parent"
echo "perf_pairs: parent $parent_sha vs the checkout at $root;" \
  "$workload, $pairs pairs, ${seconds}s runs" >&2

# run <side> <pair> <seed>: one perfbench run, its result line tagged.
run() {
  local side=$1 pair=$2 seed=$3 dir
  if [[ $side == parent ]]; then dir=$work/parent; else dir=$root; fi
  local line
  line=$(cd "$dir" && CARGO_TARGET_DIR="$work/build-$side" \
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0 2>>"$work/$side.log" | tail -n 1) || {
    echo "perf_pairs: $side run (seed $seed) failed; see its log:" >&2
    tail -n 20 "$work/$side.log" >&2
    exit 1
  }
  printf '{"side": "%s", "pair": %d, "seed": %d, "result": %s}\n' \
    "$side" "$pair" "$seed" "$line" >>"$work/runs.jsonl"
}

for ((pair = 1; pair <= pairs; ++pair)); do
  if ((pair % 2 == 1)); then order=(parent change); else order=(change parent); fi
  for side in "${order[@]}"; do run "$side" "$pair" "$pair"; done
done

python3 - "$root/BENCHMARK.json" "$work/runs.jsonl" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
metrics = spec["end_to_end"]
names = [m["name"] for m in metrics]

print("pair seed side   " + " ".join(f"{n:>14}" for n in names) +
      "  correct failed")
for run in runs:
    result = run["result"]
    values = " ".join(f"{result['metrics'][n]['value']:>14.4f}" for n in names)
    print(f"{run['pair']:>4} {run['seed']:>4} {run['side']:<6} {values}  "
          f"{str(result['correct']).lower():>7} {result['failed']:>6}")


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


by_pair = {}
for run in runs:
    by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
print()
for metric in metrics:
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [by_pair[p]["parent"]["metrics"][name]["value"] for p in sorted(by_pair)]
    change = [by_pair[p]["change"]["metrics"][name]["value"] for p in sorted(by_pair)]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gap = (pmed - cmed) if lower else (cmed - pmed)
    iqr = pq3 - pq1
    delta = (cmed - pmed) / pmed * 100 if pmed else 0.0
    print(f"{name} ({metric['unit']}, {metric['better']} is better)")
    print(f"  parent median {pmed:.4f}  quartiles {pq1:.4f}-{pq3:.4f}")
    print(f"  change median {cmed:.4f}  quartiles {cq1:.4f}-{cq3:.4f}  "
          f"({delta:+.2f}%)")
    print(f"  change wins {wins}/{len(parent)} pairs ({ties} ties); "
          f"gap {gap:+.4f} vs parent IQR {iqr:.4f}: "
          f"{'clears' if gap > iqr else 'does not clear'} it")
failed = sum(r["result"]["failed"] for r in runs)
correct = all(r["result"]["correct"] for r in runs)
print(f"\nall runs correct: {str(correct).lower()}; failed ops: {failed}")
EOF
