#!/usr/bin/env bash
# repeat.sh N: runs N full sets (every workload once per set, set k with
# seed k, run_seconds from BENCHMARK.json, through run.sh as the driver
# does) and prints, for every end-to-end metric of every workload, the
# median, the quartiles as Python's statistics.quantiles(values, n=4) gives
# them, and their distance as a share of the median against the bound.
# N must be at least 2; the contract's own check is N = 10.
#
# Raw result lines are kept in .bench_build/repeat/<workload>.jsonl.
set -euo pipefail
n="${1:?usage: repeat.sh N}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
raw="$root/.bench_build/repeat"
rm -rf "$raw"
mkdir -p "$raw"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"
for seed in $(seq 1 "$n"); do
  for w in $workloads; do
    echo "set $seed: $w" >&2
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >>"$raw/$w.jsonl"
  done
done
python3 - "$root/BENCHMARK.json" "$raw" <<'PY'
import json, statistics, sys
spec = json.load(open(sys.argv[1]))
print(f"{'workload':<26} {'metric':<20} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}  verdict")
for w in spec["workloads"]:
    runs = [json.loads(line) for line in open(f"{sys.argv[2]}/{w['name']}.jsonl")]
    bad = sum(1 for r in runs if not r["correct"] or r["failed"])
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        verdict = "steady" if spread <= m["bound"] / 3 else "within bound" if spread <= m["bound"] else "TOO WIDE"
        if m["name"] == "setup_s" and verdict == "TOO WIDE":
            verdict = "wide (not gated)"
        print(f"{w['name']:<26} {m['name']:<20} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {spread:>7.1%} {m['bound']:>6.0%}  {verdict}")
    if bad:
        print(f"{w['name']}: {bad} of {len(runs)} runs were incorrect or had failed requests")
PY
