#!/usr/bin/env bash
# Tier-2 verification gate: build, vet (root module, root module for arm64
# and the nested benchmark module), the benchmark module's tests, gofmt, texlint (errcheck: no dropped
# error results; every other project invariant is held by a test or by the
# type system, see DESIGN.md "Correctness invariants & texlint"), import
# hygiene of the serving binaries, a build and run of the four examples
# (quickstart, traceability, tuning, distributed; a non-zero exit fails),
# the serving core's tests at GOMAXPROCS
# 1, 2 and 4, the kernel-tier equivalence tests of all twelve blas, binq
# and sift families (no tier the host's CPU flags advertise may skip), the
# blas/half/binq/knn/sift tests, the engine's pruning tests and the
# accuracy experiments' shape tests on the portable (no-assembly) kernels, SIFT's goldens and tier tests built for
# GOAMD64=v3, a texbench CLI smoke (a size flag below 1, a negative
# -jitter and a -difficulty outside [0, 1] each exit 2, an id list runs),
# a texgen/texeval smoke (a texgen size flag below 1 and a -difficulty
# outside [0, 1] each exit 2 and write nothing; texeval identifies every
# query of a small generated dataset in process — its -server mode, which
# needs a running texsearchd, is not exercised),
# the portable rows of the measurement suite against
# BENCH_BASELINE.json from the same texbench binary, a syntax check of scripts/bench.sh (the
# wall-clock gate) and the doctests of scripts/paired.py (its verdict rule),
# the fuzz smoke, and the race-detector test suite, whose interleaving tests
# hold the lock contracts and whose reuse rows hold the pooled-object
# lifetimes. Any diagnostic or failure
# exits non-zero.
# Works from a clean checkout with no network access (texlint type-checks
# against the source importer; nothing is downloaded).
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d) # the kernel-tier log, the example, texbench, texgen and texeval binaries and the smoke dataset
trap 'rm -rf "$tmp"' EXIT

echo "==> go build"
go build ./...

echo "==> go vet"
go vet ./...

# Every other step builds for the host's amd64, so the !amd64 stub files
# (each family's asm declarations with a panicking body) would otherwise
# never compile; vetting for arm64 type-checks them against their callers.
echo "==> go vet (GOARCH=arm64)"
GOARCH=arm64 go vet ./...

# benchmark/ is its own module, so the root ./... pattern skips it; vetting
# it type-checks it against this tree, which is what catches a deleted or
# renamed symbol it compiles against.
echo "==> go vet (benchmark module)"
(cd benchmark && go vet ./...)

# Its tests run every workload once with the answer self-check
# (TestSmokeEveryWorkload), which reads the search reports the serving tree
# hands back: a change to their shape or meaning fails here, not only in the
# benchmark's own run.
echo "==> go test (benchmark module)"
(cd benchmark && go test ./...)

echo "==> gofmt"
unformatted=$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l) # its own statement: a gofmt failure must not read as "all formatted"
if [[ -n "$unformatted" ]]; then
  echo "check.sh: gofmt -l flags these files:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "==> texlint (errcheck)"
go run ./cmd/texlint ./...

# The serving binaries (the library and texsearchd) must not link the
# paper-experiment descriptors or the measurement tooling.
echo "==> import hygiene"
deps=$(go list -deps . ./cmd/texsearchd) # its own statement: a go list failure must not read as "no leak"
if grep -E '^texid/internal/(cbir|orb|surf|bench|soak)$' <<<"$deps"; then
  echo "check.sh: the packages above leaked into the serving import graph" >&2
  exit 1
fi

# The examples drive the public API end to end; distributed exits non-zero
# when its Go API answer and its REST answer (best id, score, accepted)
# disagree. Together they take a few seconds.
echo "==> examples (build and run)"
for ex in quickstart traceability tuning distributed; do
  go build -o "$tmp/$ex" "./examples/$ex"
  "$tmp/$ex" >/dev/null
done

# Tier-1 on more than one core on purpose: the serving core's concurrency
# tests (atomic Update, churn under search, the write-path agreement
# checker) only bite with real interleavings, and a single-core runner would
# otherwise hide that class of bug; two cores is the schedule that exposed
# the coordinator's Update/Remove ghost most often. -cpu sets GOMAXPROCS, so
# this holds on any host.
echo "==> go test -cpu 1,2,4 (engine, serve, cluster)"
go test -cpu 1,2,4 ./internal/engine/... ./internal/serve/... ./internal/cluster/...

# Kernel tiers, twelve families picked from CPUID, each bit-identical to its
# fallback: the half-precision GEMM runs AccumFP16 on one of three tiers —
# AVX512-FP16 (native binary16 arithmetic), F16C (float32 round trips),
# portable Go — the FP32 GEMM + top-2 on one of three — AVX-512 with the
# top-2 folded into the tile, AVX2 GemmTN + Top2AddRows, portable — the
# FP16 GEMM + top-2 on the AVX512-FP16 tile with the top-2 folded in or
# HGemmTNBlocks + Top2AddRows, the float32→binary16 conversion on one of
# two, AVX-512 VCVTPS2PH or the scalar loop, the Hamming prefilter scan on
# one of two, AVX-512 VPOPCNTQ or the scalar loop, the prefilter's code
# encode on one of two, AVX-512 compares or the scalar loop, the SIFT
# scale-space blur on one of
# two, AVX-512 taps or the portable loops, SIFT's atan2 and exp on one
# of two, eight AVX-512 lanes or Go's math, SIFT's DoG extremum scan on one
# of two, sixteen AVX-512 lanes or the scalar compare chain, the SIFT
# descriptor scatter's per-pixel prep on one of two, eight AVX-512 lanes or
# the scalar prep, the SIFT orientation and descriptor window gathers on
# one of two, eight AVX-512 lanes or the Go loops, and the SIFT orientation
# histogram's per-pixel prep on one of two, eight AVX-512 lanes or the
# scalar prep. The equivalence tests
# skip a tier the host lacks (hosted CI runners have no AVX512-FP16), so
# they run verbose: the log names every tier test that ran and every one
# that skipped, and a green run is never mistaken for coverage of a tier
# the host does not have. Top2AddRowsSemantics states the rules the fused
# tier is held to.
echo "==> kernel tiers: blas, binq, sift (go test -v)"
tierlog=$tmp/tiers.log
go test -count=1 -v -run '^Test(HGemmTNMatchesReference|HGemmTNStagedGatherMatchesFullRows|HGemmAsmMatchesPortable|HGemmTiersMatch|NativeAddIsDoubleRounded|WidenColAsmMatchesTable|GemmTop2TiersMatch|HGemmTop2TiersMatch|Top2AddRowsSemantics|HalfConvertTiersMatch)$' ./internal/blas | tee "$tierlog"
go test -count=1 -v -run '^Test(ScanTiersMatch|EncodeTiersMatch)$' ./internal/binq | tee -a "$tierlog"
go test -count=1 -v -run '^Test(BlurTiersMatch|EvalTiersMatch|ExtremaTiersMatch|DescBinsTiersMatch|GatherTiersMatch|OrientBinsTiersMatch)$' ./internal/sift | tee -a "$tierlog"
# A tier the host has may not skip: when /proc/cpuinfo lists the CPU flag
# and the tier's test still skipped, the CPUID or XCR0 probe, a build tag
# or the useAVX2 gate is wrong. Hosts without /proc/cpuinfo skip the gate.
if [[ -r /proc/cpuinfo ]]; then
  cpuflags=" $(grep -m1 '^flags' /proc/cpuinfo | cut -d: -f2) "
  for tier in avx512f:TestGemmTop2TiersMatch avx512_fp16:TestHGemmTiersMatch \
              avx512_fp16:TestNativeAddIsDoubleRounded avx512_fp16:TestHGemmTop2TiersMatch \
              avx512_vpopcntdq:TestScanTiersMatch avx512f:TestBlurTiersMatch \
              avx512f:TestHalfConvertTiersMatch avx512f:TestEncodeTiersMatch \
              avx512f:TestEvalTiersMatch avx512f:TestExtremaTiersMatch \
              avx512f:TestDescBinsTiersMatch avx512f:TestGatherTiersMatch \
              avx512f:TestOrientBinsTiersMatch; do
    flag=${tier%%:*} test=${tier#*:}
    if [[ $cpuflags == *" $flag "* ]] && grep -q -- "--- SKIP: $test (" "$tierlog"; then
      echo "check.sh: this host has $flag but $test skipped its tier" >&2
      exit 1
    fi
  done
fi

# Portable-kernel pass: every other run exercises the host's assembly tiers
# (AVX512-FP16 and/or F16C, the fused FP32 GEMM + top-2, the AVX-512
# binary16 conversion, VPOPCNTQ, the AVX-512 code encode, the AVX-512 blur, atan2/exp, extremum scan, descriptor prep, window gathers
# and orientation prep); this rerun
# pins the pure-Go fallback kernels
# (and the bit-identity tests that compare the tiers) with every assembly
# tier disabled, the knn matches on blas.GemmTop2's GemmTN + Top2AddRows
# route, SIFT extraction, its golden digests and its determinism tests on
# the portable blur, math, extremum, descriptor, gather and orientation
# loops, plus the
# whole pruned search on the scalar scan and the accuracy experiments, which
# search through the engine's kernels.
echo "==> go test, portable kernels (TEXID_NOASM=1: blas, half, binq, knn, sift, engine Prune*, bench accuracy shapes)"
TEXID_NOASM=1 go test ./internal/blas/... ./internal/half/... ./internal/binq/... ./internal/knn/... ./internal/sift/...
TEXID_NOASM=1 go test -run 'Prune' ./internal/engine
TEXID_NOASM=1 go test -run '^Test(Table2Shape|Table7Shape|CBIRShape|AblateDescriptorShape|DifficultySweepShape|AblateGeometricShape|PruneSweepShape)$' ./internal/bench

# The same SIFT goldens and tier tests built for GOAMD64=v3: the compiler
# may pick other instructions for the scalar oracles at that level (it
# still fuses no multiply-add on amd64), and the goldens must not move.
echo "==> go test, GOAMD64=v3 (sift Golden|TiersMatch)"
GOAMD64=v3 go test -count=1 -run 'Golden|TiersMatch' ./internal/sift

# One texbench binary serves the CLI smoke and the measurement gate. The
# smoke drives the experiment flags' checks (a size below 1, a negative
# jitter CoV and a difficulty outside [0, 1] each exit 2 before any
# experiment runs) and the registry's dispatch of an id list.
echo "==> texbench CLI smoke"
go build -o "$tmp/texbench" ./cmd/texbench
for flags in "-refs 0" "-jitter -1" "-difficulty 5"; do
  status=0
  # $flags is unquoted on purpose: it splits into the flag and its value
  "$tmp/texbench" $flags >/dev/null 2>&1 || status=$?
  if [[ $status != 2 ]]; then
    echo "check.sh: texbench $flags exited $status, want 2" >&2
    exit 1
  fi
done
"$tmp/texbench" -experiment table1,table3 -markdown >/dev/null

# The dataset pair: texgen's flag checks (an empty dataset or image and a
# difficulty outside [0, 1] exit 2 before anything is written), then
# texeval in process over a small generated dataset, which must identify
# every query.
echo "==> texgen/texeval smoke"
go build -o "$tmp/texgen" ./cmd/texgen
go build -o "$tmp/texeval" ./cmd/texeval
for flags in "-refs 0" "-queries 0" "-size 0" "-difficulty 5"; do
  status=0
  # $flags is unquoted on purpose: it splits into the flag and its value
  "$tmp/texgen" -out "$tmp/rejected" $flags >/dev/null 2>&1 || status=$?
  if [[ $status != 2 || -e $tmp/rejected ]]; then
    echo "check.sh: texgen $flags exited $status (want 2) or wrote output" >&2
    exit 1
  fi
done
"$tmp/texgen" -out "$tmp/dataset" -refs 4 -queries 3 -size 128 -difficulty 0.3 2>/dev/null
eval_out=$("$tmp/texeval" -dataset "$tmp/dataset" 2>/dev/null)
if ! grep -q '^top-1 accuracy: 3/3 ' <<<"$eval_out"; then
  echo "check.sh: texeval did not identify 3/3 queries:" >&2
  echo "$eval_out" >&2
  exit 1
fi

# Measurement gate, portable half: the sim-clock ops (serving levels, sim
# soak) and the allocation probes gate on any machine. Fails on lost result
# identity or determinism, a sub-3x speedup at concurrency 16, a >10%
# batched-QPS drop, or any upward allocs/op drift vs the committed
# BENCH_BASELINE.json (the probe rows are the host search path's
# allocation contract); a missing or malformed baseline fails before any
# op runs. Wall rows have no committed values: scripts/bench.sh compares them
# with the parent commit run beside them on one host.
echo "==> measurement gate (portable rows)"
"$tmp/texbench" -suite -portable -baseline BENCH_BASELINE.json

# The wall-clock gate runs only on request (tier 3 below), so its script is
# at least parsed here, and its verdict rule held to its doctests.
echo "==> wall-clock gate: bash -n scripts/bench.sh, doctests of scripts/paired.py"
bash -n scripts/bench.sh
python3 -m doctest scripts/paired.py

# Fuzz smoke: every Fuzz* target replays its committed corpus and fuzzes
# live for FUZZTIME (default 10s each). The decode seams' bounds are pinned
# by hostile-input table rows in tier-1, and the kernel tiers by the
# *TiersMatch tests above; this is the part that looks for an input nobody
# wrote a row for.
echo "==> fuzz smoke"
scripts/fuzz.sh

# The race suite also runs as its own CI job; TEXID_SKIP_RACE lets that
# job's sibling skip the duplicate run. Local runs always include it.
if [[ "${TEXID_SKIP_RACE:-0}" != 1 ]]; then
  echo "==> go test -race"
  go test -race ./...
fi

# Tier 3 (opt-in): the wall-clock gate, ten paired runs of the whole suite
# built from HEAD and from the working tree. It takes about 40 minutes on a
# 2-vCPU host, so it is not part of the default gate.
if [[ "${TEXID_BENCH:-0}" == 1 ]]; then
  scripts/bench.sh
fi

echo "OK"
