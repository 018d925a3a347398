#!/usr/bin/env bash
# Tier-3 (opt-in) measurement gate: one suite, one baseline, one rule set.
#
# `texbench -suite` runs the op table of internal/bench — host kernels and
# open-loop soak scenarios on the wall clock (at GOMAXPROCS 1 and NumCPU),
# the serving levels and the sim-clock soak on the simulated clock, and the
# allocation probes — and gates every row against BENCH_BASELINE.json by the
# gate the row itself carries: a relative tolerance against its baseline
# row, an absolute limit (the FP16/pruning ns/op ceilings, the 3x serving
# floor, achieved >= 0.8x offered QPS), or a result check (`verified`).
# Absolute limits and result checks need no baseline, so all three flows
# enforce them.
#
#   scripts/bench.sh                            # gate against the committed baseline
#   COUNT=5 scripts/bench.sh                    # more runs per host op (less noise)
#   UPDATE=1 scripts/bench.sh                   # re-measure and rewrite the baseline
#   TEXID_BENCH_BASELINE=skip scripts/bench.sh  # measure only, no baseline comparison
#
# A missing or malformed baseline is a hard error (exit 2) raised before any
# slow op runs, never a silent re-measure. Wall rows are machine-dependent:
# they gate relative regressions on the machine that recorded the baseline,
# so treat failures on very different hardware as a signal to re-baseline.
# Sim and count rows have no such caveat; CI gates them with -portable.
set -euo pipefail
cd "$(dirname "$0")/.."

# A built binary, not `go run`, so texbench's exit status (1 regression,
# 2 unusable baseline) is the script's.
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/texbench" ./cmd/texbench

if [[ "${UPDATE:-0}" == 1 ]]; then
  echo "==> texbench -suite (writing BENCH_BASELINE.json)"
  "$bin/texbench" -suite -count "${COUNT:-3}" -out BENCH_BASELINE.json
elif [[ "${TEXID_BENCH_BASELINE:-}" == skip ]]; then
  echo "==> texbench -suite (baseline comparison skipped: TEXID_BENCH_BASELINE=skip)"
  "$bin/texbench" -suite -count "${COUNT:-3}"
else
  echo "==> texbench -suite (vs committed BENCH_BASELINE.json)"
  "$bin/texbench" -suite -count "${COUNT:-3}" -baseline BENCH_BASELINE.json
fi
echo "OK"
