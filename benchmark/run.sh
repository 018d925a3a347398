#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source into
# .bench_build/ at the root of the checkout (Go's caches included, so nothing
# is written outside the checkout) and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# Fails without printing a result when the repository's own packages are
# missing, as in a directory that holds only BENCHMARK.json and benchmark/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/texid-benchmark" .)
cd "$root"
exec "$out/texid-benchmark" "$@"
