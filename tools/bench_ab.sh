#!/usr/bin/env bash
# Same-host A/B of the repository benchmark: a parent commit against the
# working tree.
#
#   tools/bench_ab.sh [--pairs N] [--base REV] [--workloads "W1 W2"]
#                     [--json FILE]
#
# Run from anywhere inside the repository. The parent side is REV
# (default HEAD^, the parent of the last commit; pass --base HEAD to
# measure an uncommitted change), exported with `git archive` into a
# temporary directory and removed again on exit. The change side
# is the working tree the script lives in. Workloads default to every
# workload in BENCHMARK.json.
#
# Each side builds perfbench/ under its own CARGO_TARGET_DIR before any
# timing starts. Then N pairs (default 10) run, each pair running every
# workload once per side as
#
#   python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0
#
# with S the run_seconds of BENCHMARK.json, alternating which side goes
# first (odd pairs: parent first). The summary prints, per workload and
# for every end-to-end metric that BENCHMARK.json declares, the median
# and quartiles of each side, the pairs the change wins, the
# parent/change median ratio, and whether the change is a gain (wins >=
# 90% of pairs and the median gap exceeds the parent's interquartile
# range). It also checks that both sides print the same report digests
# and that every run was correct with 0 failed ops. --json FILE writes
# the results in the dilu-ab/1 shape of the BENCH_*.json files.
# Exit status: 0 on success, 1 when a digest differs or a run failed,
# 2 on usage errors. perfbench/ itself is not modified.
set -euo pipefail

pairs=10
base_rev="HEAD^"
workloads=""
json_out=""

usage() {
  sed -n '2,/^set -euo/p' "$0" | sed -e '$d' -e 's/^# \{0,1\}//'
  exit 2
}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --base) base_rev="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    --json) json_out="$2"; shift 2 ;;
    -h|--help) usage ;;
    *) echo "bench_ab: unknown argument '$1'" >&2; usage ;;
  esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "bench_ab: --pairs wants N >= 1" >&2; exit 2; }

change_tree="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
bench_json="$change_tree/BENCHMARK.json"
seconds="$(python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench_json")"
if [[ -z "$workloads" ]]; then
  workloads="$(python3 -c 'import json,sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$bench_json")"
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")"
parent_tree="$work/parent"
trap 'rm -rf "$work"' EXIT

parent_label="$(git -C "$change_tree" rev-parse --short "$base_rev")"
mkdir -p "$parent_tree"
git -C "$change_tree" archive "$base_rev" | tar -x -C "$parent_tree"
change_label="$(git -C "$change_tree" rev-parse --short HEAD)"
if [[ -n "$(git -C "$change_tree" status --porcelain --untracked-files=no)" ]]; then
  change_label="$change_label+dirty"
fi
# The title is the subject of the first commit after the parent.
title="$(git -C "$change_tree" log --reverse --format=%s "$base_rev..HEAD" \
  | head -n 1)"
title="${title:-uncommitted change}"
logs="$work/logs"
mkdir -p "$logs"
echo "bench_ab: parent $parent_label vs change $change_label;" \
     "$pairs pairs of [$workloads], seed 1, ${seconds}s per run"

tree_of() { if [[ "$1" == parent ]]; then echo "$parent_tree"; else echo "$change_tree"; fi; }

# Build both sides first (the same commands perfbench/run.py runs, so its
# own build step is a no-op during the timed runs).
for side in parent change; do
  target="$work/target-$side/perfbench"
  echo "bench_ab: building $side"
  cmake -S "$(tree_of "$side")/perfbench" -B "$target" \
      -DCMAKE_BUILD_TYPE=Release > "$logs/build-$side.log" 2>&1
  cmake --build "$target" -j "$(( $(nproc) < 4 ? $(nproc) : 4 ))" \
      --target dilu_perfbench >> "$logs/build-$side.log" 2>&1 \
    || { tail -40 "$logs/build-$side.log" >&2; exit 1; }
done

run_side() {  # side workload pair
  local side="$1" w="$2" i="$3" log="$logs/$2-$1-$3.txt"
  (cd "$(tree_of "$side")" \
    && CARGO_TARGET_DIR="$work/target-$side" python3 perfbench/run.py \
         --workload "$w" --seed 1 --seconds "$seconds" --trace 0) \
    > "$log" 2>&1 \
    || { echo "bench_ab: $side $w pair $i exited non-zero:" >&2
         tail -20 "$log" >&2; }
}

for ((i = 1; i <= pairs; ++i)); do
  if (( i % 2 )); then order="parent change"; else order="change parent"; fi
  for w in $workloads; do
    for side in $order; do run_side "$side" "$w" "$i"; done
    echo "bench_ab: pair $i/$pairs $w done"
  done
done

python3 - "$bench_json" "$logs" "$pairs" "$parent_label" "$change_label" \
    "$title" "$seconds" "$json_out" $workloads <<'EOF'
import json
import os
import platform
import statistics
import sys

bench_path, logs, pairs, parent_label, change_label, title, seconds, \
    json_out = sys.argv[1:9]
workloads = sys.argv[9:]
pairs = int(pairs)
metrics = json.load(open(bench_path))["end_to_end"]


def parse(path):
    """(result JSON, report digests) of one run.py output."""
    lines = open(path).read().splitlines()
    result = None
    for line in reversed(lines):
        if line.startswith("{"):
            result = json.loads(line)
            break
    digests = [l.split()[1] for l in lines if l.startswith("report_digest ")]
    return result, digests


def quartiles(xs):
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q = statistics.quantiles(xs, n=4)
    return [q[0], q[2]]


def r7(x):
    return round(x, 7)


ok = True
summary = {"schema": "dilu-ab/1", "title": title,
           "machine": f"{platform.system()} {platform.release()} "
                      f"{platform.machine()}",
           "hw_threads": os.cpu_count(), "build": "Release",
           "parent": parent_label, "change": change_label,
           "method": f"tools/bench_ab.sh --pairs {pairs}: same-host "
                     f"interleaved A/B, python3 perfbench/run.py --workload "
                     f"W --seed 1 --seconds {seconds} --trace 0, parent "
                     "exported with git archive, each side under "
                     "its own CARGO_TARGET_DIR, odd pairs parent first.",
           "perfbench": {}}
for w in workloads:
    runs = {side: [parse(f"{logs}/{w}-{side}-{i}.txt")
                   for i in range(1, pairs + 1)]
            for side in ("parent", "change")}
    all_runs = runs["parent"] + runs["change"]
    correct = all(r is not None and r["correct"] and r["failed"] == 0
                  for r, _ in all_runs)
    digest_sets = {side: {tuple(d) for _, d in runs[side]}
                   for side in runs}
    digests_match = (len(digest_sets["parent"] | digest_sets["change"]) == 1
                     and () not in digest_sets["parent"])
    ok &= correct and digests_match
    print(f"\n== {w}: every run correct with 0 failed: {correct}; "
          f"report digests match: {digests_match}")
    if not correct:
        summary["perfbench"][w] = {"correct_all_runs": False}
        continue
    print(f"   {'metric':<12} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'wins':>6} {'par/chg':>9} gain")
    entry, outcomes = {}, {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r, _ in runs["parent"]]
        c = [r["metrics"][name]["value"] for r, _ in runs["change"]]
        wins = sum((ci < pi) if lower else (ci > pi) for pi, ci in zip(p, c))
        pm, cm = statistics.median(p), statistics.median(c)
        pq, cq = quartiles(p), quartiles(c)
        ratio = pm / cm if cm else float("nan")
        gap = (pm - cm) if lower else (cm - pm)
        gain = wins >= 0.9 * pairs and gap > pq[1] - pq[0]
        side = [f"{x:.6g} [{q[0]:.6g}, {q[1]:.6g}]" for x, q in
                ((pm, pq), (cm, cq))]
        print(f"   {name:<12} {side[0]:<36} {side[1]:<36} "
              f"{wins:>3}/{pairs} {ratio:>9.4f} {'yes' if gain else 'no'}")
        if len(set(p) | set(c)) == 1:
            # One value in every run (the simulated outcomes): write it once.
            outcomes[name] = {"value": p[0], "identical_all_runs": True}
            continue
        entry[name] = {"parent": p, "change": c, "parent_median": r7(pm),
                       "parent_iqr": [r7(x) for x in pq],
                       "change_median": r7(cm),
                       "change_iqr": [r7(x) for x in cq],
                       "change_wins": wins,
                       "ratio_parent_over_change": round(ratio, 4),
                       "gain": gain}
    entry["outcomes"] = outcomes
    entry["report_digests_match"] = digests_match
    entry["correct_all_runs"] = correct
    entry["failed"] = 0
    summary["perfbench"][w] = entry

if json_out:
    with open(json_out, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
print("\nbench_ab:", "OK" if ok else "FAILED (digest mismatch or failed run)")
sys.exit(0 if ok else 1)
EOF
