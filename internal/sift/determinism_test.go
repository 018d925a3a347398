package sift

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"texid/internal/texture"
)

// gomaxprocsVariants is the GOMAXPROCS sweep the determinism tests run
// under: serial, minimal parallelism, and everything the machine has.
func gomaxprocsVariants() []int {
	vs := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		vs = append(vs, n)
	}
	return vs
}

// TestExtractBitwiseAcrossGOMAXPROCS verifies that the parallel pyramid,
// detection, orientation, and descriptor stages keep extraction bitwise
// reproducible no matter how many workers run the blocks.
func TestExtractBitwiseAcrossGOMAXPROCS(t *testing.T) {
	im := testImage(11)
	cfg := testConfig()
	cfg.RootSIFT = true
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var want *Features
	for _, procs := range gomaxprocsVariants() {
		runtime.GOMAXPROCS(procs)
		f := Extract(im, cfg)
		if want == nil {
			want = f
			continue
		}
		if !reflect.DeepEqual(want.Keypoints, f.Keypoints) {
			t.Fatalf("GOMAXPROCS=%d: keypoints differ from serial run", procs)
		}
		for i, v := range f.Descriptors.Data {
			if v != want.Descriptors.Data[i] {
				t.Fatalf("GOMAXPROCS=%d: descriptor word %d = %x, want %x",
					procs, i, v, want.Descriptors.Data[i])
			}
		}
	}
}

// TestExtractBatchMatchesExtract verifies that the batched entry point is
// exactly per-image extraction: same keypoints, same descriptor bits, nil
// images passed through as nil.
func TestExtractBatchMatchesExtract(t *testing.T) {
	cfg := testConfig()
	ims := []*texture.Image{testImage(21), nil, testImage(22), testImage(23)}
	got := ExtractBatch(ims, cfg)
	if len(got) != len(ims) {
		t.Fatalf("ExtractBatch returned %d entries for %d images", len(got), len(ims))
	}
	for i, im := range ims {
		if im == nil {
			if got[i] != nil {
				t.Fatalf("entry %d: non-nil features for nil image", i)
			}
			continue
		}
		want := Extract(im, cfg)
		if !reflect.DeepEqual(want.Keypoints, got[i].Keypoints) {
			t.Fatalf("entry %d: keypoints differ from Extract", i)
		}
		for j, v := range got[i].Descriptors.Data {
			if v != want.Descriptors.Data[j] {
				t.Fatalf("entry %d: descriptor word %d differs from Extract", i, j)
			}
		}
	}
}

// TestArenaReuseAcrossGoroutines is the pooled-lifetime contract of
// arenaPool: an arena one Extract puts back is taken out again by another
// goroutine's Extract and overwritten. The row runs two goroutines at
// GOMAXPROCS 1 that yield to each other after every extraction, so the one
// P's pool slot hands each put-back arena to the other goroutine's next
// Get, and the two share no other synchronization (blas.Parallel runs
// inline). An Extract that still reads or writes its arena after the put,
// or returns keypoints that alias it, then races with the arena's next
// owner under -race and, without -race, can return features that differ
// from the serial ones. The two images differ in size, so a reused arena
// also changes shape.
func TestArenaReuseAcrossGoroutines(t *testing.T) {
	cfg := testConfig()
	ims := make([]*texture.Image, 2)
	for i, size := range []int{32, 24} {
		p := texture.DefaultGenParams()
		p.Size, p.Flakes = size, 30
		ims[i] = texture.Generate(int64(31+i), p)
	}
	want := make([]*Features, len(ims))
	for i, im := range ims {
		want[i] = Extract(im, cfg)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 64; it++ {
				i := (g + it) % len(ims)
				f := Extract(ims[i], cfg)
				if !reflect.DeepEqual(f.Keypoints, want[i].Keypoints) || !reflect.DeepEqual(f.Descriptors.Data, want[i].Descriptors.Data) {
					t.Errorf("a concurrent Extract of image %d differs from the serial one", i)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
}
