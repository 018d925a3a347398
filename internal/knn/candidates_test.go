package knn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"texid/internal/blas"
	"texid/internal/gpusim"
)

// slotFixture stages B reference images and Bq queries of n columns each.
func slotFixture(t *testing.T, seed int64, prec gpusim.Precision, d, m, n, B, Bq int) (*gpusim.Stream, *RefBatch, []*Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dev := newTestDevice()
	refs := make([]*blas.Matrix, B)
	ids := make([]int, B)
	for i := range refs {
		refs[i] = rootSIFTFeatures(rng, d, m)
		ids[i] = 100 + i
	}
	rb, err := NewRefBatch(dev, ids, refs, prec, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rb.Free)
	queries := make([]*Query, Bq)
	for i := range queries {
		queries[i], err = NewQuery(dev, rootSIFTFeatures(rng, d, n), prec, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(queries[i].Free)
	}
	return dev.NewStream(), rb, queries
}

// copyPairs deep-copies results out of the scratch they alias.
func copyPairs(res [][]Pair2NN) [][]Pair2NN {
	out := make([][]Pair2NN, len(res))
	for qi := range res {
		out[qi] = make([]Pair2NN, len(res[qi]))
		for b, p := range res[qi] {
			out[qi][b] = Pair2NN{
				RefID:   p.RefID,
				Best:    append([]float32(nil), p.Best...),
				Second:  append([]float32(nil), p.Second...),
				BestIdx: append([]int32(nil), p.BestIdx...),
			}
		}
	}
	return out
}

// requireSameBits fails unless got is, bit for bit, want.
func requireSameBits(t *testing.T, what string, got, want Pair2NN) {
	t.Helper()
	if got.RefID != want.RefID || len(got.Best) != len(want.Best) {
		t.Fatalf("%s: ref %d with %d columns, want ref %d with %d", what, got.RefID, len(got.Best), want.RefID, len(want.Best))
	}
	for j := range got.Best {
		if math.Float32bits(got.Best[j]) != math.Float32bits(want.Best[j]) ||
			math.Float32bits(got.Second[j]) != math.Float32bits(want.Second[j]) ||
			got.BestIdx[j] != want.BestIdx[j] {
			t.Fatalf("%s column %d: (%x,%x,%d) != full (%x,%x,%d)", what, j,
				math.Float32bits(got.Best[j]), math.Float32bits(got.Second[j]), got.BestIdx[j],
				math.Float32bits(want.Best[j]), math.Float32bits(want.Second[j]), want.BestIdx[j])
		}
	}
}

// slotSets are the slot-set shapes the engine produces: a strict subset of
// the batch, and every slot (PruneC >= N), which still takes the per-slot
// GEMM views rather than the whole-batch call.
func slotSets(B int) map[string][]int32 {
	all := make([]int32, B)
	for i := range all {
		all[i] = int32(i)
	}
	return map[string][]int32{"subset": {0, 2, 3, int32(B - 1)}, "every-slot": all}
}

// TestCandidatesBitwiseEqualFullMatch is the determinism contract of the
// pruned rerank through the single-query entries: for every precision and
// slot-set shape, the slot-restricted match must produce, slot for slot,
// the exact bits the whole-batch match produced for those references — not
// merely close values.
func TestCandidatesBitwiseEqualFullMatch(t *testing.T) {
	for _, prec := range []gpusim.Precision{gpusim.FP32, gpusim.FP16} {
		for name, slots := range slotSets(7) {
			t.Run(prec.String()+"/"+name, func(t *testing.T) {
				stream, rb, queries := slotFixture(t, 11, prec, 64, 48, 24, 7, 1)
				opts := Options{Algorithm: RootSIFT, Precision: prec, Scale: 1}
				full, err := MatchBatchScratch(stream, rb, queries[0], opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				var sc Scratch
				got, err := MatchCandidatesScratch(stream, rb, queries[0], slots, opts, &sc)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(slots) {
					t.Fatalf("%d results, want %d", len(got), len(slots))
				}
				for si, slot := range slots {
					requireSameBits(t, fmt.Sprintf("slot %d", slot), got[si], full[slot])
				}
			})
		}
	}
}

// TestMultiQueryCandidatesBitwiseEqual pins the same contract on the
// kernel's general entry: Match with a slot set against Match over the
// whole batch, for lone and multi-query panels, at serial and parallel
// GOMAXPROCS (the top-2 sweep fans out over (query, block) cells).
func TestMultiQueryCandidatesBitwiseEqual(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, prec := range []gpusim.Precision{gpusim.FP32, gpusim.FP16} {
		for _, Bq := range []int{1, 3} {
			for name, slots := range slotSets(6) {
				t.Run(fmt.Sprintf("%v/Bq=%d/%s", prec, Bq, name), func(t *testing.T) {
					stream, rb, queries := slotFixture(t, 12, prec, 32, 40, 16, 6, Bq)
					opts := Options{Algorithm: RootSIFT, Precision: prec, Scale: 1}
					var sc Scratch
					mq, err := BuildMultiQuery(queries, prec, &sc)
					if err != nil {
						t.Fatal(err)
					}
					if Bq == 1 && (mq.catF32 != queries[0].F32 || mq.catF16 != queries[0].F16) {
						t.Fatal("a lone query's panel must alias the query's matrices, not copy them")
					}
					runtime.GOMAXPROCS(1)
					whole, err := MatchMultiQueryInto(stream, rb, mq, opts, &sc)
					if err != nil {
						t.Fatal(err)
					}
					want := copyPairs(whole) // the scratch is reused below
					for _, procs := range []int{1, 4} {
						runtime.GOMAXPROCS(procs)
						again, err := Match(stream, rb, mq, nil, nil, opts, &sc)
						if err != nil {
							t.Fatal(err)
						}
						for qi := range want {
							for b := range want[qi] {
								requireSameBits(t, fmt.Sprintf("GOMAXPROCS=%d query %d ref %d", procs, qi, b), again[qi][b], want[qi][b])
							}
						}
						got, err := Match(stream, rb, mq, slots, nil, opts, &sc)
						if err != nil {
							t.Fatal(err)
						}
						for qi := 0; qi < Bq; qi++ {
							if len(got[qi]) != len(slots) {
								t.Fatalf("query %d: %d results, want %d", qi, len(got[qi]), len(slots))
							}
							for si, slot := range slots {
								requireSameBits(t, fmt.Sprintf("GOMAXPROCS=%d query %d slot %d", procs, qi, slot), got[qi][si], want[qi][slot])
							}
						}
						// A need mask: every result it names is still the
						// whole-batch one.
						for mi, need := range needMasks(len(slots), Bq) {
							got, err := Match(stream, rb, mq, slots, need, opts, &sc)
							if err != nil {
								t.Fatal(err)
							}
							for si, slot := range slots {
								for qi := 0; qi < Bq; qi++ {
									if need[si*Bq+qi] {
										requireSameBits(t, fmt.Sprintf("GOMAXPROCS=%d mask %d query %d slot %d", procs, mi, qi, slot), got[qi][si], want[qi][slot])
									}
								}
							}
						}
					}
				})
			}
		}
	}
}

// needMasks are [slot][query] masks over slots × Bq results: every cell,
// one query's cells only, and a checkerboard.
func needMasks(slots, Bq int) [][]bool {
	full, first, checker := make([]bool, slots*Bq), make([]bool, slots*Bq), make([]bool, slots*Bq)
	for i := range full {
		full[i], first[i], checker[i] = true, i%Bq == 0, (i/Bq+i%Bq)%2 == 0
	}
	return [][]bool{full, first, checker}
}

// TestMatchRejectsBadNeedMask: a need mask must have one cell per (slot,
// query) and only the RootSIFT path takes one.
func TestMatchRejectsBadNeedMask(t *testing.T) {
	stream, rb, queries := slotFixture(t, 14, gpusim.FP32, 32, 40, 16, 6, 2)
	mq, err := BuildMultiQuery(queries, gpusim.FP32, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Algorithm: RootSIFT, Precision: gpusim.FP32}
	if _, err := Match(stream, rb, mq, []int32{0, 2}, make([]bool, 3), opts, nil); err == nil {
		t.Fatal("a 3-cell mask over 2 slots × 2 queries was accepted")
	}
	lone, err := BuildMultiQuery(queries[:1], gpusim.FP32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Match(stream, rb, lone, nil, make([]bool, rb.Count()), Options{Algorithm: Eq1Top2}, nil); err == nil {
		t.Fatal("a need mask on the Algorithm-1 path was accepted")
	}
}

// TestCandidatesRejectsNonRootSIFT: slot sets and multi-query panels exist
// for the production Algorithm 2 path only; an empty slot set matches
// nothing rather than the whole batch.
func TestCandidatesRejectsNonRootSIFT(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dev := newTestDevice()
	stream := dev.NewStream()
	rb, _ := NewRefBatch(dev, []int{0}, []*blas.Matrix{rootSIFTFeatures(rng, 16, 8)}, gpusim.FP32, 1, true)
	q, _ := NewQuery(dev, rootSIFTFeatures(rng, 16, 4), gpusim.FP32, 1)
	if _, err := MatchCandidatesScratch(stream, rb, q, []int32{0}, Options{Algorithm: Eq1Top2}, nil); err == nil {
		t.Fatal("non-RootSIFT candidate match accepted")
	}
	if res, err := MatchCandidatesScratch(stream, rb, q, nil, Options{Algorithm: RootSIFT}, nil); err != nil || res != nil {
		t.Fatalf("empty slot set = %v, %v; want no results", res, err)
	}
}
