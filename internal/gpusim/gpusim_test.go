package gpusim

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// within checks a simulated time against a paper anchor with a relative
// tolerance: the model is calibrated, not copied, so small residuals are
// expected.
func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if math.Abs(got-want)/want > relTol {
		t.Errorf("%s = %.2f, paper anchor %.2f (tolerance %.0f%%)", name, got, want, relTol*100)
	} else {
		t.Logf("%s = %.2f (paper %.2f)", name, got, want)
	}
}

func TestP100CalibrationAnchorsTable1(t *testing.T) {
	s := TeslaP100()
	// Table 1: m=n=768, d=128, batch 1.
	within(t, "FP32 GEMM", s.GemmTimeUS(768, 768, 128, FP32), 35.22, 0.10)
	within(t, "FP16 GEMM", s.GemmTimeUS(768, 768, 128, FP16), 24.92, 0.10)
	within(t, "FP32 top-2 scan", s.Top2ScanTimeUS(768, 768, 1, FP32), 40.20, 0.10)
	within(t, "FP16 top-2 scan", s.Top2ScanTimeUS(768, 768, 1, FP16), 68.32, 0.10)
	within(t, "FP32 insertion sort", s.InsertionSortTimeUS(768, 768, 1, FP32), 221.5, 0.10)
	// Step 4 (add N_R): read+write of the 768×768 FP32 matrix.
	within(t, "add N_R", s.ElementwiseTimeUS(2*768*768*4), 8.94, 0.15)
	// Step 8 (D2H copy of the 2×768 result + indices), pageable memory.
	within(t, "D2H result copy", s.CopyTimeUS(2*768*(4+4), pageable), 47.32, 0.15)
	// Baseline monolithic kernel ≈ total minus D2H and post-processing.
	within(t, "baseline kernel", s.BaselineMatchTimeUS(768, 768, 128), 437, 0.10)
}

const pageable = false

func TestP100CalibrationAnchorsTable3(t *testing.T) {
	s := TeslaP100()
	// Table 3: batch 1024, per-image times.
	within(t, "batched HGEMM/img", s.GemmTimeUS(768*1024, 768, 128, FP16)/1024, 11.58, 0.10)
	within(t, "batched top-2/img", s.Top2ScanTimeUS(768, 768, 1024, FP16)/1024, 3.82, 0.10)
}

func TestTable4Efficiencies(t *testing.T) {
	// Table 4: achieved TFLOPS at batch 1024.
	p100 := TeslaP100()
	v100 := TeslaV100(false)
	v100tc := TeslaV100(true)
	effP := p100.GemmTFLOPS(768*1024, 768, 128, FP16) / p100.PeakTFLOPS(FP16)
	effV := v100.GemmTFLOPS(768*1024, 768, 128, FP16) / v100.PeakTFLOPS(FP16)
	effTC := v100tc.GemmTFLOPS(768*1024, 768, 128, FP16) / v100tc.PeakTFLOPS(FP16)
	within(t, "P100 HGEMM efficiency", effP, 0.679, 0.05)
	within(t, "V100 HGEMM efficiency", effV, 0.657, 0.05)
	within(t, "V100-TC HGEMM efficiency", effTC, 0.282, 0.08)
	if !(effTC < effV && effV < 0.75) {
		t.Errorf("tensor core efficiency should be lowest at this matrix shape")
	}
}

func TestGemmEfficiencyGrowsWithBatch(t *testing.T) {
	s := TeslaP100()
	prev := 0.0
	for _, b := range []int{1, 4, 16, 64, 256, 1024} {
		tf := s.GemmTFLOPS(768*b, 768, 128, FP16)
		if tf <= prev {
			t.Fatalf("TFLOPS not monotonic at batch %d: %.2f <= %.2f", b, tf, prev)
		}
		prev = tf
	}
}

func TestMemoryAccounting(t *testing.T) {
	d := NewDevice(TeslaP100())
	base := d.Allocated()
	if base != TeslaP100().RuntimeOverhead {
		t.Fatalf("fresh device allocated %d, want runtime overhead", base)
	}
	if err := d.Alloc(1 << 30); err != nil {
		t.Fatal(err)
	}
	if d.Allocated() != base+1<<30 {
		t.Fatalf("allocated = %d", d.Allocated())
	}
	if err := d.Alloc(16 << 30); err == nil {
		t.Fatal("over-allocation should fail")
	}
	d.Free(1 << 30)
	if d.Allocated() != base {
		t.Fatalf("after free allocated = %d", d.Allocated())
	}
	if d.PeakAllocated() != base+1<<30 {
		t.Fatalf("peak = %d", d.PeakAllocated())
	}
}

func TestStreamSerializesWithinStream(t *testing.T) {
	d := NewDevice(TeslaP100())
	s := d.NewStream()
	t1 := s.Gemm(768, 768, 128, FP32)
	t2 := s.CopyD2H(1<<20, false)
	if t2 <= t1 {
		t.Fatalf("in-stream ops must serialize: %f then %f", t1, t2)
	}
	want := d.Spec.GemmTimeUS(768, 768, 128, FP32) + d.Spec.CopyTimeUS(1<<20, false)
	if math.Abs(d.Synchronize()-want) > 1e-6 {
		t.Fatalf("device clock %.3f, want %.3f", d.Synchronize(), want)
	}
}

func TestStreamsOverlapCopyAndCompute(t *testing.T) {
	// Two streams: one long copy, one long kernel. They should overlap
	// almost perfectly because they use different engines.
	d := NewDevice(TeslaP100())
	s1 := d.NewStream()
	s2 := d.NewStream()
	copyUS := d.Spec.CopyTimeUS(100<<20, true)
	gemmUS := d.Spec.GemmTimeUS(768*256, 768, 128, FP16)
	s1.CopyH2D(100<<20, true)
	s2.Gemm(768*256, 768, 128, FP16)
	got := d.Synchronize()
	want := math.Max(copyUS, gemmUS)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("overlapped makespan %.1f, want max(%.1f, %.1f)", got, copyUS, gemmUS)
	}
}

func TestEngineContentionSerializes(t *testing.T) {
	// Two streams issuing kernels contend for the single compute engine.
	d := NewDevice(TeslaP100())
	s1 := d.NewStream()
	s2 := d.NewStream()
	g := d.Spec.GemmTimeUS(768, 768, 128, FP32)
	s1.Gemm(768, 768, 128, FP32)
	s2.Gemm(768, 768, 128, FP32)
	if got := d.Synchronize(); math.Abs(got-2*g) > 1e-6 {
		t.Fatalf("contended makespan %.2f, want %.2f", got, 2*g)
	}
}

func TestPipelineApproachesBottleneck(t *testing.T) {
	// Classic software pipelining: with enough streams alternating
	// copy→compute chunks, throughput approaches the slower engine's rate
	// (Table 6's schedule-efficiency climb).
	d := NewDevice(TeslaP100())
	const chunks = 32
	copyBytes := int64(50 << 20)
	copyUS := d.Spec.CopyTimeUS(copyBytes, true)
	gemmUS := d.Spec.GemmTimeUS(768*256, 768, 128, FP16)

	// Serial (one stream).
	s := d.NewStream()
	for i := 0; i < chunks; i++ {
		s.CopyH2D(copyBytes, true)
		s.Gemm(768*256, 768, 128, FP16)
	}
	serial := d.Synchronize()

	// Pipelined (four streams, round-robin).
	d2 := NewDevice(TeslaP100())
	streams := make([]*Stream, 4)
	for i := range streams {
		streams[i] = d2.NewStream()
	}
	for i := 0; i < chunks; i++ {
		st := streams[i%4]
		st.CopyH2D(copyBytes, true)
		st.Gemm(768*256, 768, 128, FP16)
	}
	pipelined := d2.Synchronize()

	bottleneck := math.Max(copyUS, gemmUS) * chunks
	if pipelined >= serial {
		t.Fatalf("pipelining did not help: %.0f >= %.0f", pipelined, serial)
	}
	if (pipelined-bottleneck)/bottleneck > 0.10 {
		t.Fatalf("pipelined %.0f should be within 10%% of bottleneck %.0f", pipelined, bottleneck)
	}
	t.Logf("serial %.0f us, pipelined %.0f us, bottleneck bound %.0f us", serial, pipelined, bottleneck)
}

func TestHostPostDoesNotBlockDevice(t *testing.T) {
	d := NewDevice(TeslaP100())
	s1 := d.NewStream()
	s2 := d.NewStream()
	s1.HostPost(1024, FP16)
	s2.Gemm(768, 768, 128, FP32)
	// The device compute engine is free during s1's host work.
	want := math.Max(d.Spec.HostPostTimeUS(1024, FP16), d.Spec.GemmTimeUS(768, 768, 128, FP32))
	if got := d.Synchronize(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("makespan %.2f, want %.2f", got, want)
	}
}

func TestProfileAccumulates(t *testing.T) {
	d := NewDevice(TeslaP100())
	s := d.NewStream()
	s.Gemm(10, 10, 10, FP32)
	s.Gemm(10, 10, 10, FP32)
	p := d.Profile()
	if p["gemm/fp32"].Count != 2 {
		t.Fatalf("profile count = %d", p["gemm/fp32"].Count)
	}
	if want := 2 * d.Spec.GemmTimeUS(10, 10, 10, FP32); p["gemm/fp32"].TotalUS != want || len(p) != 1 {
		t.Fatalf("profile = %+v, want one gemm/fp32 bucket of %g us", p, want)
	}
	d.ResetClock()
	if len(d.Profile()) != 0 {
		t.Fatal("ResetClock should clear the profile")
	}
}

// TestStreamOpsTakeNoFunc keeps gpusim a cost ledger: a Stream op prices
// work, it never runs any, so no method of *Stream may take a function.
func TestStreamOpsTakeNoFunc(t *testing.T) {
	typ := reflect.TypeOf((*Stream)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		for j := 1; j < m.Type.NumIn(); j++ {
			if m.Type.In(j).Kind() == reflect.Func {
				t.Errorf("Stream.%s takes a func parameter (%v): callers compute, streams only charge", m.Name, m.Type.In(j))
			}
		}
	}
}

func TestConcurrentEnqueueSafe(t *testing.T) {
	d := NewDevice(TeslaP100())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		st := d.NewStream()
		wg.Add(1)
		go func(st *Stream) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				st.Gemm(64, 64, 64, FP16)
				st.CopyH2D(1<<16, true)
			}
		}(st)
	}
	wg.Wait()
	p := d.Profile()
	if p["gemm/fp16"].Count != 800 || p["copy/h2d"].Count != 800 {
		t.Fatalf("lost operations under concurrency: %+v", p)
	}
}

func TestPrecisionHelpers(t *testing.T) {
	if FP32.ElemBytes() != 4 || FP16.ElemBytes() != 2 {
		t.Fatal("ElemBytes wrong")
	}
	if FP32.String() != "fp32" || FP16.String() != "fp16" {
		t.Fatal("String wrong")
	}
}

func TestV100FasterThanP100(t *testing.T) {
	p := TeslaP100()
	v := TeslaV100(false)
	if v.GemmTimeUS(768*1024, 768, 128, FP16) >= p.GemmTimeUS(768*1024, 768, 128, FP16) {
		t.Fatal("V100 should beat P100 on batched HGEMM")
	}
	vtc := TeslaV100(true)
	if vtc.GemmTimeUS(768*1024, 768, 128, FP16) >= v.GemmTimeUS(768*1024, 768, 128, FP16) {
		t.Fatal("tensor cores should beat plain FP16 at batch 1024")
	}
}

func TestJitterMeanOne(t *testing.T) {
	j := Jitter{CopyCoV: 0.45, Seed: 9}
	var sum, sumSq float64
	const n = 20000
	for i := uint64(1); i <= n; i++ {
		f := j.factor(i, 0.45)
		if f <= 0 {
			t.Fatalf("non-positive jitter factor %g", f)
		}
		sum += f
		sumSq += f * f
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("jitter mean %g, want ~1 (durations must be unbiased)", mean)
	}
	cov := math.Sqrt(sumSq/n-mean*mean) / mean
	if cov < 0.35 || cov > 0.55 {
		t.Fatalf("jitter CoV %g, want ~0.45", cov)
	}
}

func TestJitterDeterministic(t *testing.T) {
	spec := WithJitter(TeslaP100(), 0.45, 7)
	run := func() float64 {
		d := NewDevice(spec)
		s := d.NewStream()
		for i := 0; i < 50; i++ {
			s.CopyH2D(1<<20, true)
			s.Gemm(768, 768, 128, FP16)
		}
		return d.Synchronize()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("jittered simulation not reproducible: %f vs %f", a, b)
	}
}

func TestJitterZeroIsExact(t *testing.T) {
	spec := TeslaP100() // zero jitter
	d := NewDevice(spec)
	s := d.NewStream()
	s.Gemm(768, 768, 128, FP32)
	want := spec.GemmTimeUS(768, 768, 128, FP32)
	if got := d.Synchronize(); got != want {
		t.Fatalf("zero jitter changed duration: %f vs %f", got, want)
	}
}

func TestHostPostFP16PenaltyOnlyAtBatch1(t *testing.T) {
	s := TeslaP100()
	b1fp32 := s.HostPostTimeUS(1, FP32)
	b1fp16 := s.HostPostTimeUS(1, FP16)
	if b1fp16 <= b1fp32 {
		t.Fatal("FP16 widening penalty missing at batch 1")
	}
	bNfp32 := s.HostPostTimeUS(1024, FP32)
	bNfp16 := s.HostPostTimeUS(1024, FP16)
	if bNfp16 != bNfp32 {
		t.Fatal("batched post-processing should not pay the FP16 penalty (Table 3)")
	}
}

func TestA100Projection(t *testing.T) {
	a100 := TeslaA100()
	v100 := TeslaV100(true)
	if a100.GemmTimeUS(768*1024, 768, 128, FP16) >= v100.GemmTimeUS(768*1024, 768, 128, FP16) {
		t.Fatal("A100 tensor GEMM should beat V100")
	}
	if a100.MemBytes != 40<<30 {
		t.Fatal("A100 memory wrong")
	}
}

// Allocated returns the currently reserved device memory in bytes.
func (d *Device) Allocated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocated
}

// ResetClock rewinds the device timeline (between experiments). Memory
// accounting is unaffected.
func (d *Device) ResetClock() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.compute.freeAtUS = 0
	d.h2d.freeAtUS = 0
	d.d2h.freeAtUS = 0
	for _, s := range d.streams {
		s.tailUS = 0
	}
	d.prof = make(map[string]*OpStats)
}

// TailUS returns the stream's current completion horizon.
func (s *Stream) TailUS() float64 {
	s.dev.mu.Lock()
	defer s.dev.mu.Unlock()
	return s.tailUS
}

// GemmTFLOPS returns the achieved TFLOPS of such a kernel, used by the
// GPU-efficiency experiments (Table 4).
func (s *DeviceSpec) GemmTFLOPS(m, n, k int, prec Precision) float64 {
	flops := 2 * float64(m) * float64(n) * float64(k)
	return flops / (s.GemmTimeUS(m, n, k, prec) * 1e-6) / 1e12
}
