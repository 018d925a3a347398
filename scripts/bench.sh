#!/usr/bin/env bash
# Tier-3 (opt-in) wall-clock gate: paired runs of a parent commit and the
# working tree on one host, judged by one rule (scripts/paired.py).
#
#   [CLAIM='row[,row...]'] scripts/bench.sh [REF] [op-regexp | workload]
#   UPDATE=1 scripts/bench.sh   # re-record BENCH_BASELINE.json
#
# REF (default HEAD) is exported with `git archive` into a temporary
# directory, removed on exit. With an op regexp (default: the whole suite)
# `texbench -suite` is built from both trees; with the name of a
# BENCHMARK.json workload each tree's own benchmark/run.sh runs it for
# run_seconds. Either way exactly ten pairs run, alternating which side goes
# first, and pair i of a workload uses seed i on both sides.
#
# For every gated row — an op row with a tolerance, an end-to-end metric
# with a bound — paired.py prints the parent median and IQR, the change
# median, the pairs won and lost, and a verdict: faster or slower when one
# side wins at least 9 of 10 pairs and the medians differ by more than the
# parent's IQR (and, for slower, by more than the row's tolerance or the
# metric's bound), same otherwise. CLAIM names the rows the change claims a
# gain on — a suite op, one of its rows ("op/ns_per_op", or "op/ns_per_op
# (N)" at one GOMAXPROCS) or an end-to-end metric — before the runs:
# only a claimed row can read faster, and a win on any other row reads
# unclaimed and fails nothing. The script exits 1 on a slower verdict,
# on a CLAIM entry that names no gated row, on a change-side result check
# that failed, on a change median past a row's absolute limit, and on a
# change-side benchmark run that was incorrect or had failed requests; it
# exits 2 when a run could not measure.
# An op that only the change has (the parent's texbench matches no op of
# the filter) prints "(not in the parent)" with its change median, is never
# faster or slower, and still fails on its own limit and result check.
#
# Wall rows are not committed: a wall time is a fact about the host and the
# minute it was taken on, so it is only compared with the parent measured
# beside it. BENCH_BASELINE.json holds the sim and count rows, which
# `texbench -suite -portable -baseline BENCH_BASELINE.json` gates on any
# machine (scripts/check.sh runs it). UPDATE=1 re-records exactly those. The
# committed count rows are the AVX2/F16C kernels' (DESIGN.md, count rows):
# re-record them on an AVX2 host without AVX-512.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# A built binary, not `go run`, so texbench's exit status is the script's.
if [[ "${UPDATE:-0}" == 1 ]]; then
  go build -o "$tmp/texbench" ./cmd/texbench
  echo "==> texbench -suite -portable (writing BENCH_BASELINE.json)"
  "$tmp/texbench" -suite -portable -out BENCH_BASELINE.json
  exit
fi

ref=${1:-HEAD}
sel=${2:-}
claim=${CLAIM:-}
pairs=10
mkdir "$tmp/parent" "$tmp/runs"
git archive "$(git rev-parse --verify "$ref^{commit}")" | tar -x -C "$tmp/parent"

is_workload=$(python3 -c 'import json, sys; print(int(sys.argv[2] in {w["name"] for w in json.load(open(sys.argv[1]))["workloads"]}))' BENCHMARK.json "$sel")
if [[ $is_workload == 1 ]]; then
  seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)
  echo "==> $sel: $pairs pairs of $ref and the working tree, ${seconds}s each${claim:+; claimed: $claim}"
else
  echo "==> texbench -suite${sel:+ -op '$sel'}: $pairs pairs of $ref and the working tree${claim:+; claimed: $claim}"
  # -trimpath keeps the two checkouts' paths out of the binaries: a path of
  # another length shifts the data section, and with it every global's
  # cache-line placement, between the sides.
  (cd "$tmp/parent" && go build -trimpath -o "$tmp/parent.texbench" ./cmd/texbench)
  go build -trimpath -o "$tmp/change.texbench" ./cmd/texbench
fi

# run SIDE PAIR writes one run's output to $tmp/runs/SIDE.PAIR.
run() {
  local side=$1 i=$2 tree=$root status=0
  [[ $side == parent ]] && tree=$tmp/parent
  local out="$tmp/runs/$side.$i" log="$tmp/$side.$i.log"
  if [[ $is_workload == 1 ]]; then
    # run.sh exits 1 on an incorrect run; its result line, the last one,
    # says so, and paired.py judges that.
    bash "$tree/benchmark/run.sh" --workload "$sel" --seed "$i" --seconds "$seconds" --trace 0 >"$out" 2>"$log" || status=$?
    [[ $(tail -n 1 "$out") == "{"* ]] && status=0
  else
    # texbench exits 1 on a failed result check or a breached limit (the rows
    # are written first, and paired.py judges them) and 2 when it could not
    # measure.
    "$tmp/$side.texbench" -suite ${sel:+-op "$sel"} -out "$out" >"$log" 2>&1 || status=$?
    ((status == 1)) && status=0
    # A parent without any op the filter names is the parent of a change
    # that adds them: its rows are an empty set. A filter that matches
    # nothing on the change side still fails the run.
    if ((status == 2)) && [[ $side == parent ]] && grep -q 'matched no suite ops' "$log"; then
      echo '[]' >"$out"
      status=0
    fi
  fi
  if ((status != 0)); then
    echo "bench.sh: the $side run of pair $i failed (exit $status):" >&2
    tail -n 20 "$log" >&2
    exit 2
  fi
}

for i in $(seq 1 "$pairs"); do
  echo "pair $i/$pairs" >&2
  if ((i % 2)); then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
done

if [[ $is_workload == 1 ]]; then
  CLAIM=$claim python3 scripts/paired.py workload "$tmp/runs" BENCHMARK.json
else
  CLAIM=$claim python3 scripts/paired.py suite "$tmp/runs"
fi
echo "OK"
