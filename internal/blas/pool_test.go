package blas

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestPooledScratchReuseAcrossGoroutines is the pooled-lifetime contract of
// every sync.Pool in blas (f32Pool's users, stagingPool, panelPool):
// goroutines run the kernels that draw from them at once, so a buffer
// one call puts back is taken out again by a call on another goroutine and
// overwritten. A call that still reads its buffer after the put, or lets it
// escape into its output, races with that writer under -race and, without
// -race, returns bits that differ from the serial answer. Each kernel runs
// on the tiers this host has; the FP32-accumulate HGEMM takes the F16C or
// portable path (stagingPool, and f32Pool in hgemmOctAsm) and the
// FP16-accumulate one the AVX512-FP16 tiles (panelPool) where present, and
// the fused top-2s their native tiers, each run on a Panel of its own.
func TestPooledScratchReuseAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const k, width, n = 64, 40, 24
	A, B := randomMatrix(rng, k, 2*width, 1), randomMatrix(rng, k, n, 1)
	HA, _ := HalfFromMatrix(A, 1)
	HB, _ := HalfFromMatrix(B, 1)
	bits := func(vs []float32) []uint32 {
		out := make([]uint32, len(vs))
		for i, v := range vs {
			out[i] = math.Float32bits(v)
		}
		return out
	}
	kernels := []struct {
		name string
		run  func() []uint32
	}{
		{"GemmTN", func() []uint32 {
			C := NewMatrix(A.Cols, n)
			GemmTN(1, A, B, 0, C)
			return bits(C.Data)
		}},
		{"GemmTop2", func() []uint32 {
			best, second, idx := make([]float32, 2*n), make([]float32, 2*n), make([]int32, 2*n)
			pk := new(Panel)
			pk.Pack(B)
			GemmTop2(-2, A, width, nil, B, pk, Need{}, nil, best, second, idx, nil)
			out := append(bits(best), bits(second)...)
			for _, i := range idx {
				out = append(out, uint32(i))
			}
			return out
		}},
		{"HGemmTop2", func() []uint32 {
			best, second, idx := make([]float32, 2*n), make([]float32, 2*n), make([]int32, 2*n)
			pk := new(Panel)
			pk.PackHalf(HB)
			HGemmTop2(-2, 1, HA, width, nil, HB, pk, Need{}, AccumFP16, nil, best, second, idx, nil, nil)
			out := append(bits(best), bits(second)...)
			for _, i := range idx {
				out = append(out, uint32(i))
			}
			return out
		}},
		{"HGemmTNBlocks/AccumFP16", func() []uint32 {
			C := NewMatrix(A.Cols, n)
			HGemmTNBlocks(1, HA, 0, nil, HB, AccumFP16, C, nil)
			return bits(C.Data)
		}},
		{"HGemmTNBlocks/AccumFP32", func() []uint32 {
			C := NewMatrix(A.Cols, n)
			HGemmTNBlocks(1, HA, 0, nil, HB, AccumFP32, C, nil)
			return bits(C.Data)
		}},
	}
	for _, kern := range kernels {
		t.Run(kern.name, func(t *testing.T) {
			want := kern.run()
			var wg sync.WaitGroup
			bad := make(chan int, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for it := 0; it < 50; it++ {
						got := kern.run()
						for i := range got {
							if got[i] != want[i] {
								bad <- i
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(bad)
			for i := range bad {
				t.Errorf("a concurrent run differs from the serial one at element %d", i)
			}
		})
	}
}
