package gpusim

import (
	"sync"
	"testing"
)

// TestConcurrentStreamsAndObservers mixes per-stream enqueues with the
// observer surface (Synchronize, TailUS, Profile, memory accounting) the
// engine touches from other goroutines. Under -race this is the
// simulator's thread-safety gate; the count assertions catch lost updates
// regardless of the detector.
func TestConcurrentStreamsAndObservers(t *testing.T) {
	d := NewDevice(TeslaV100(true))
	const streams, ops = 6, 50
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		st := d.NewStream()
		wg.Add(1)
		go func(st *Stream) {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				st.CopyH2D(1<<14, true)
				st.Gemm(32, 32, 32, FP16)
				st.CopyD2H(1<<12, false)
				_ = st.TailUS()
			}
		}(st)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			_ = d.Synchronize()
			_ = d.Profile()
			if err := d.Alloc(1 << 10); err == nil {
				d.Free(1 << 10)
			}
			_ = d.Allocated()
		}
	}()
	wg.Wait()

	p := d.Profile()
	want := streams * ops
	for _, name := range []string{"copy/h2d", "gemm/fp16", "copy/d2h"} {
		if p[name].Count != want {
			t.Fatalf("%s: %d ops recorded, want %d", name, p[name].Count, want)
		}
	}
	if d.Synchronize() <= 0 {
		t.Fatal("device clock did not advance")
	}
	if d.Allocated() != d.Spec.RuntimeOverhead {
		t.Fatalf("leaked %d bytes of device memory beyond the runtime overhead",
			d.Allocated()-d.Spec.RuntimeOverhead)
	}
}
