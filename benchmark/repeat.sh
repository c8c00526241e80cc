#!/usr/bin/env bash
# Runs the benchmark N times, each with another seed (17, 18, ...), and
# judges its steadiness against the bounds in BENCHMARK.json:
#   repeat.sh N [run.sh arguments other than --seed]
# Per (metric, workload) it prints min / median / max, the spread the
# driver computes (first to third quartile as a share of the median) and the
# medians of the first and second half of the runs. Exits non-zero if a run
# fails, or if a gated metric's second half is worse than its first by more
# than the metric's bound.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
n="${1:?usage: repeat.sh N [run.sh arguments]}"
shift

mkdir -p "$here/out"
runs="$(mktemp -d "$here/out/repeat.XXXXXX")"
trap 'rm -rf "$runs"' EXIT
for ((i = 0; i < n; i++)); do
  echo "repeat.sh: run $((i + 1)) of $n (seed $((17 + i)))" >&2
  "$here/run.sh" --seed $((17 + i)) "$@" >/dev/null
  cp "$here/out/summary.json" "$runs/$i.json"
done

python3 - "$here/../BENCHMARK.json" "$runs" "$n" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
runs = [json.load(open(f"{sys.argv[2]}/{i}.json")) for i in range(int(sys.argv[3]))]
half = len(runs) // 2
disagree = []
print(f"{'workload':<12} {'metric':<15} {'min':>10} {'median':>10} {'max':>10} {'spread':>7} {'bound':>6} {'half 1':>10} {'half 2':>10} {'worse':>7}")
for workload in runs[0]["workloads"]:
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["workloads"][workload]["end_to_end"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = worse = float("nan")
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            first, second = statistics.median(values[:half]), statistics.median(values[half:])
            change = (second - first) / first
            worse = change if metric["better"] == "lower" else -change
            if worse > bound:
                disagree.append(f"{workload} {name}: second half worse by {worse:.1%} (bound {bound:.0%})")
        else:
            first = second = median
        print(f"{workload:<12} {name:<15} {min(values):>10.4f} {median:>10.4f} {max(values):>10.4f} "
              f"{spread:>7.1%} {bound:>6.0%} {first:>10.4f} {second:>10.4f} {worse:>+7.1%}")
for line in disagree:
    print("repeat.sh:", line, file=sys.stderr)
sys.exit(1 if disagree else 0)
EOF
