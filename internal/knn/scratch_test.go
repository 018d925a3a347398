package knn

import (
	"fmt"
	"math/rand"
	"testing"

	"texid/internal/blas"
	"texid/internal/gpusim"
)

// scratchRun is one scratch API under test: it answers input in (0 = A,
// 1 = B) through the given scratches and returns results that may alias
// them.
type scratchRun func(sc *Scratch, qs *QueryScratch, in int) ([][]Pair2NN, error)

// TestScratchReuseMatchesSolo is the scratch-aliasing contract, one row
// per scratch API: answering A, then B, then A again through one Scratch
// (and one QueryScratch) must give each answer, bit for bit, the answer a
// fresh scratch gives it alone. A buffer that carries A's state into B — a
// stale column, a slab not re-sized, a panel header not reset — or a result
// that is built from something the previous call still owned shows up as
// an answer that differs from its solo run. A and B differ in shape (query
// width, panel size, slot set), so a stale tail cannot hide.
func TestScratchReuseMatchesSolo(t *testing.T) {
	for _, prec := range []gpusim.Precision{gpusim.FP32, gpusim.FP16} {
		t.Run(prec.String(), func(t *testing.T) {
			stream, rb, queries := slotFixture(t, 21, prec, 64, 48, 24, 7, 3)
			opts := Options{Algorithm: RootSIFT, Precision: prec, Scale: 1}

			// Algorithm 1 (Eq. 1 norms) runs on a batch that carries them.
			rng := rand.New(rand.NewSource(22))
			dev := newTestDevice()
			normRefs := make([]*blas.Matrix, 5)
			for i := range normRefs {
				normRefs[i] = rootSIFTFeatures(rng, 64, 40)
			}
			rbNorms, err := NewRefBatch(dev, []int{1, 2, 3, 4, 5}, normRefs, prec, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rbNorms.Free)
			eq1 := Options{Algorithm: Eq1Top2, Precision: prec, Scale: 1}

			// Raw query features of different widths for the staging rows,
			// both padded to 28 columns: B is narrower than A, so Padded
			// must clear the columns A filled.
			mats := []*blas.Matrix{rootSIFTFeatures(rng, 64, 24), rootSIFTFeatures(rng, 64, 17)}
			slots := [][]int32{{0, 2, 3, 6}, {1, 5}}
			panels := [][]*Query{queries, {queries[2], queries[0]}}
			one := func(res []Pair2NN, err error) ([][]Pair2NN, error) { return [][]Pair2NN{res}, err }

			rows := []struct {
				name string
				run  scratchRun
			}{
				{"MatchBatchScratch", func(sc *Scratch, _ *QueryScratch, in int) ([][]Pair2NN, error) {
					return one(MatchBatchScratch(stream, rb, queries[in], opts, sc))
				}},
				{"MatchBatchScratch/Eq1Top2", func(sc *Scratch, _ *QueryScratch, in int) ([][]Pair2NN, error) {
					return one(MatchBatchScratch(stream, rbNorms, queries[in], eq1, sc))
				}},
				{"MatchCandidatesScratch", func(sc *Scratch, _ *QueryScratch, in int) ([][]Pair2NN, error) {
					return one(MatchCandidatesScratch(stream, rb, queries[in], slots[in], opts, sc))
				}},
				{"BuildMultiQuery+MatchMultiQueryInto", func(sc *Scratch, _ *QueryScratch, in int) ([][]Pair2NN, error) {
					mq, err := BuildMultiQuery(panels[in], prec, sc)
					if err != nil {
						return nil, err
					}
					return MatchMultiQueryInto(stream, rb, mq, opts, sc)
				}},
				{"BuildMultiQuery+Match/slots", func(sc *Scratch, _ *QueryScratch, in int) ([][]Pair2NN, error) {
					mq, err := BuildMultiQuery(panels[in], prec, sc)
					if err != nil {
						return nil, err
					}
					return Match(stream, rb, mq, slots[in], nil, opts, sc)
				}},
				{"Padded+NewQueryScratch", func(sc *Scratch, qs *QueryScratch, in int) ([][]Pair2NN, error) {
					q, err := NewQueryScratch(dev, qs.Padded(mats[in], 28), prec, 1, qs)
					if err != nil {
						return nil, err
					}
					defer q.Free()
					return one(MatchBatchScratch(stream, rb, q, opts, sc))
				}},
			}
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					var solo [2][][]Pair2NN
					for in := range solo {
						res, err := row.run(new(Scratch), new(QueryScratch), in)
						if err != nil {
							t.Fatal(err)
						}
						solo[in] = copyPairs(res)
					}
					var sc Scratch
					var qs QueryScratch
					for step, in := range []int{0, 1, 0} {
						res, err := row.run(&sc, &qs, in)
						if err != nil {
							t.Fatal(err)
						}
						if len(res) != len(solo[in]) {
							t.Fatalf("step %d: %d result rows, solo %d", step, len(res), len(solo[in]))
						}
						for qi := range res {
							if len(res[qi]) != len(solo[in][qi]) {
								t.Fatalf("step %d query %d: %d results, solo %d", step, qi, len(res[qi]), len(solo[in][qi]))
							}
							for b := range res[qi] {
								requireSameBits(t, fmt.Sprintf("step %d (input %c) query %d result %d vs solo", step, "AB"[in], qi, b), res[qi][b], solo[in][qi][b])
							}
						}
					}
				})
			}
		})
	}
}

// TestDistanceMatrixOnlyOnFallback pins the heap half of the fused top-2:
// where blas.Top2Fused holds — FP32 on AVX-512, FP16 with AccumFP16 on
// AVX512-FP16 — warm RootSIFT (whole batch and slot set) and Algorithm-1
// matches leave Scratch.c unallocated, because the distance matrix is never
// written. AccumFP32, hosts without the tier and TEXID_NOASM=1 take the
// fallback, which writes it into Scratch.c, so there it must be allocated.
func TestDistanceMatrixOnlyOnFallback(t *testing.T) {
	for _, tc := range []struct {
		prec  gpusim.Precision
		accum blas.AccumMode
	}{{gpusim.FP32, blas.AccumFP16}, {gpusim.FP16, blas.AccumFP16}, {gpusim.FP16, blas.AccumFP32}} {
		fused := blas.Top2Fused(tc.prec == gpusim.FP16, tc.accum)
		t.Run(fmt.Sprintf("%v/%v/fused=%v", tc.prec, tc.accum, fused), func(t *testing.T) {
			stream, rb, queries := slotFixture(t, 23, tc.prec, 64, 48, 24, 5, 1)
			rng := rand.New(rand.NewSource(24))
			refs := []*blas.Matrix{rootSIFTFeatures(rng, 64, 40), rootSIFTFeatures(rng, 64, 40)}
			rbNorms, err := NewRefBatch(newTestDevice(), []int{1, 2}, refs, tc.prec, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rbNorms.Free)
			opts := Options{Algorithm: RootSIFT, Precision: tc.prec, Scale: 1, Accum: tc.accum}
			eq1 := opts
			eq1.Algorithm = Eq1Top2
			var sc Scratch
			for warm := 0; warm < 2; warm++ {
				for _, run := range []func() ([]Pair2NN, error){
					func() ([]Pair2NN, error) { return MatchBatchScratch(stream, rb, queries[0], opts, &sc) },
					func() ([]Pair2NN, error) {
						return MatchCandidatesScratch(stream, rb, queries[0], []int32{1, 3}, opts, &sc)
					},
					func() ([]Pair2NN, error) { return MatchBatchScratch(stream, rbNorms, queries[0], eq1, &sc) },
				} {
					if _, err := run(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if allocated := cap(sc.c.Data) > 0; allocated == fused {
				t.Fatalf("distance matrix allocated = %v with the fused tier %v", allocated, fused)
			}
		})
	}
}
