package gpusim

import (
	"fmt"
	"sync"
)

// Device is one simulated GPU. All scheduling state is protected by a
// single mutex, so multiple host goroutines (one per stream, as in the
// paper's design) can enqueue work concurrently.
//
// The timing model is a resource-occupancy discrete-event simulation:
// a device owns three engines — compute, H2D copy, D2H copy — that each
// process one operation at a time, plus any number of streams. An operation
// enqueued on a stream starts at max(stream tail, engine free time), which
// yields exactly the semantics the paper exploits in Sec. 6.2: operations
// within one stream serialize, while copies on one stream overlap kernels
// on another until the shared engine saturates.
type Device struct {
	Spec DeviceSpec

	// mu owns allocated, peakAlloc, streams, prof, opSeq, every stream's
	// tailUS, and the three engines' free times.
	mu        sync.Mutex
	allocated int64
	peakAlloc int64
	// The three engines are mutated only inside schedule/Synchronize (and
	// the tests' ResetClock) under mu, but the Stream kernel wrappers take
	// their addresses unlocked to tell schedule which engine an op
	// occupies, so the contract is kept by confining engine mutation to
	// those methods.
	compute engine
	h2d     engine
	d2h     engine
	streams []*Stream
	prof    map[string]*OpStats
	opSeq   uint64
}

// engine is a serially-reusable resource on the device timeline.
type engine struct {
	freeAtUS float64
}

// OpStats accumulates simulated time per operation kind.
type OpStats struct {
	Count   int
	TotalUS float64
}

// NewDevice creates a device and charges the CUDA runtime overhead against
// its memory.
func NewDevice(spec DeviceSpec) *Device {
	d := &Device{Spec: spec, prof: make(map[string]*OpStats)}
	d.allocated = spec.RuntimeOverhead
	d.peakAlloc = d.allocated
	return d
}

// Alloc reserves device memory, failing when the capacity would be
// exceeded — the condition that forces the hybrid host-memory cache.
func (d *Device) Alloc(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("gpusim: negative allocation %d", bytes)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.allocated+bytes > d.Spec.MemBytes {
		return fmt.Errorf("gpusim: out of device memory: %d + %d > %d",
			d.allocated, bytes, d.Spec.MemBytes)
	}
	d.allocated += bytes
	if d.allocated > d.peakAlloc {
		d.peakAlloc = d.allocated
	}
	return nil
}

// Free releases device memory.
func (d *Device) Free(bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.allocated -= bytes
	if d.allocated < 0 {
		panic("gpusim: double free")
	}
}

// PeakAllocated returns the high-water mark of device memory usage.
func (d *Device) PeakAllocated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peakAlloc
}

// FreeBytes returns the remaining device memory.
func (d *Device) FreeBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Spec.MemBytes - d.allocated
}

// NewStream creates an asynchronous command stream. Each stream also models
// the dedicated host CPU thread the paper pairs with it.
func (d *Device) NewStream() *Stream {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &Stream{dev: d}
	d.streams = append(d.streams, s)
	return s
}

// Synchronize waits for all streams and returns the device clock in
// simulated microseconds.
func (d *Device) Synchronize() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := 0.0
	for _, s := range d.streams {
		if s.tailUS > now {
			now = s.tailUS
		}
	}
	if d.compute.freeAtUS > now {
		now = d.compute.freeAtUS
	}
	if d.h2d.freeAtUS > now {
		now = d.h2d.freeAtUS
	}
	if d.d2h.freeAtUS > now {
		now = d.d2h.freeAtUS
	}
	return now
}

// Profile returns a copy of the per-operation time accounting.
func (d *Device) Profile() map[string]OpStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]OpStats, len(d.prof))
	for k, v := range d.prof {
		out[k] = *v
	}
	return out
}

// schedule places an operation of the given duration on a stream and
// engine and returns its completion time. A nil engine means the operation
// only occupies the stream (host-side work on the stream's CPU thread).
// cov is the jitter coefficient of variation for this operation class.
func (d *Device) schedule(s *Stream, e *engine, name string, durUS float64, cov float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.opSeq++
	durUS *= d.Spec.Jitter.factor(d.opSeq, cov)
	start := s.tailUS
	if e != nil && e.freeAtUS > start {
		start = e.freeAtUS
	}
	end := start + durUS
	s.tailUS = end
	if e != nil {
		e.freeAtUS = end
	}
	st, ok := d.prof[name]
	if !ok {
		st = d.newOpStats(name)
	}
	st.Count++
	st.TotalUS += durUS
	return end
}

// newOpStats creates and registers the profile bucket for an op name.
func (d *Device) newOpStats(name string) *OpStats {
	st := &OpStats{}
	d.prof[name] = st
	return st
}

// Stream is an in-order command queue plus its paired host CPU thread.
type Stream struct {
	dev    *Device
	tailUS float64
}

// opName returns the precomputed profile key "<family>/<precision>".
// Keeping these as constants (rather than concatenating per call) keeps the
// per-op scheduling path allocation-free.
func opName(fp32, fp16 string, prec Precision) string {
	if prec == FP16 {
		return fp16
	}
	return fp32
}

// Gemm enqueues a C = AᵀB kernel (A: k×m, B: k×n) on the compute engine.
func (s *Stream) Gemm(m, n, k int, prec Precision) float64 {
	return s.dev.schedule(s, &s.dev.compute, opName("gemm/fp32", "gemm/fp16", prec), s.dev.Spec.GemmTimeUS(m, n, k, prec), s.dev.kernelCoV())
}

// Top2Scan enqueues the register-resident top-2 selection over a
// (rows)×(cols·batch) distance matrix.
func (s *Stream) Top2Scan(rows, cols, batch int, prec Precision) float64 {
	return s.dev.schedule(s, &s.dev.compute, opName("top2scan/fp32", "top2scan/fp16", prec), s.dev.Spec.Top2ScanTimeUS(rows, cols, batch, prec), s.dev.kernelCoV())
}

// InsertionSort enqueues the reference implementation's modified insertion
// sort (the pre-optimization Algorithm 1 step 5).
func (s *Stream) InsertionSort(rows, cols, batch int, prec Precision) float64 {
	return s.dev.schedule(s, &s.dev.compute, opName("insertionsort/fp32", "insertionsort/fp16", prec), s.dev.Spec.InsertionSortTimeUS(rows, cols, batch, prec), s.dev.kernelCoV())
}

// Elementwise enqueues a streaming kernel touching the given bytes. op is
// the full profile key (e.g. "elementwise/addNR"); callers pass constants
// so the scheduling path performs no string concatenation.
func (s *Stream) Elementwise(op string, bytes int64) float64 {
	return s.dev.schedule(s, &s.dev.compute, op, s.dev.Spec.ElementwiseTimeUS(bytes), s.dev.kernelCoV())
}

// BinaryScan enqueues the Hamming prefilter scan (codes packed binary
// codes × probes query codes) on the compute engine.
func (s *Stream) BinaryScan(codes, probes, words int) float64 {
	return s.dev.schedule(s, &s.dev.compute, "binscan", s.dev.Spec.BinaryScanTimeUS(codes, probes, words), s.dev.kernelCoV())
}

// BaselineMatch enqueues the monolithic OpenCV-CUDA brute-force 2-NN
// kernel for one image pair.
func (s *Stream) BaselineMatch(m, n, k int) float64 {
	return s.dev.schedule(s, &s.dev.compute, "baseline-match", s.dev.Spec.BaselineMatchTimeUS(m, n, k), s.dev.kernelCoV())
}

// CopyH2D enqueues a host-to-device transfer on the H2D DMA engine.
func (s *Stream) CopyH2D(bytes int64, pinned bool) float64 {
	return s.dev.schedule(s, &s.dev.h2d, "copy/h2d", s.dev.Spec.CopyTimeUS(bytes, pinned), s.dev.Spec.Jitter.CopyCoV)
}

// CopyD2H enqueues a device-to-host transfer on the D2H DMA engine.
// Result copies use pageable host memory, as in the paper's measurement.
func (s *Stream) CopyD2H(bytes int64, pinned bool) float64 {
	return s.dev.schedule(s, &s.dev.d2h, "copy/d2h", s.dev.Spec.CopyTimeUS(bytes, pinned), s.dev.Spec.Jitter.CopyCoV)
}

// HostPost enqueues CPU post-processing (ratio test, edge removal) on the
// stream's dedicated host thread: it occupies the stream but no device
// engine.
func (s *Stream) HostPost(batch int, prec Precision) float64 {
	return s.dev.schedule(s, nil, "host/post", s.dev.Spec.HostPostTimeUS(batch, prec), 0)
}

// kernelCoV is the jitter coefficient of variation for compute kernels:
// one quarter of the copy CoV (kernel times are far more stable than PCIe
// transfers in a shared VM).
func (d *Device) kernelCoV() float64 { return d.Spec.Jitter.CopyCoV / 4 }
