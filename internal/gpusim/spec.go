// Package gpusim is the timing half of a functional-plus-timing simulation
// of the CUDA devices the paper runs on (Tesla P100 and V100). It is a cost
// ledger: callers (internal/knn, the engine's prefilter) really execute
// their kernels — pure-Go math on actual data, as ordinary statements —
// and then charge the matching op to a simulated stream, which runs
// nothing and only advances a discrete-event timeline of per-device clocks
// using an analytical cost model (compute-efficiency curves for GEMM,
// occupancy/bandwidth curves for the top-2 scan, DMA engines for PCIe
// transfers). Streams contend for shared engines (compute, H2D copy, D2H
// copy), which is what makes copy/compute overlap and the PCIe bottleneck
// emergent behaviours rather than hard-coded answers.
//
// Calibration: the per-curve constants below are fitted to the paper's
// anchor measurements (Table 1 step times at batch 1, Table 3 at batch
// 1024, Table 4 HGEMM efficiencies, and the measured 9.4–9.6 GB/s effective
// PCIe bandwidth). Every experiment then *runs* against the model; nothing
// outside this file stores paper numbers.
package gpusim

import (
	"fmt"
	"math"
)

// Precision selects the arithmetic path of a simulated kernel.
type Precision int

const (
	FP32 Precision = iota
	FP16
)

func (p Precision) String() string {
	if p == FP32 {
		return "fp32"
	}
	return "fp16"
}

// ElemBytes returns the storage size of one element.
func (p Precision) ElemBytes() int {
	if p == FP32 {
		return 4
	}
	return 2
}

// gemmCurve is a saturating efficiency curve: at total FLOP count w the
// achieved fraction of peak is EffMax·w/(w+WHalf). Small matrices (batch 1)
// sit far below saturation; batched matrices approach EffMax, reproducing
// the data-reuse argument of Sec. 5.2.
type gemmCurve struct {
	PeakTFLOPS float64
	EffMax     float64
	WHalf      float64 // FLOPs at which efficiency reaches EffMax/2
}

func (c gemmCurve) timeUS(flops float64) float64 {
	eff := c.EffMax * flops / (flops + c.WHalf)
	if eff <= 0 {
		return 0
	}
	return flops / (c.PeakTFLOPS * 1e12 * eff) * 1e6
}

// scanCurve models the single-pass top-2 selection: one thread per output
// column scans m candidates. Throughput in elements/s is EMax·occ with
// occ = threads/(threads+THalf): a batch-1 launch (n threads) cannot hide
// memory latency, a batched launch (batch·n threads) saturates the device.
// The result is additionally capped by memory bandwidth.
type scanCurve struct {
	EMaxGElems float64 // saturated element throughput, 1e9 elems/s
	THalf      float64 // threads at which throughput reaches EMax/2
}

func (c scanCurve) timeUS(elems, threads float64, bytes float64, bwGBs float64) float64 {
	occ := threads / (threads + c.THalf)
	t := elems / (c.EMaxGElems * 1e9 * occ) * 1e6
	if bw := bytes / (bwGBs * 1e9) * 1e6; bw > t {
		t = bw
	}
	return t
}

// DeviceSpec describes one GPU model plus the calibrated cost-model
// constants.
type DeviceSpec struct {
	Name string

	// Memory system.
	MemBytes        int64   // device memory capacity
	MemBWGBs        float64 // peak DRAM bandwidth
	MemBWEff        float64 // achievable fraction for streaming elementwise kernels
	RuntimeOverhead int64   // CUDA context + library workspace resident in device memory

	// PCIe link (effective, as measured in the paper's cloud VMs).
	PCIePinnedGBs   float64 // host->device with pinned host memory
	PCIePageableGBs float64 // host->device or device->host with pageable memory
	PCIeLatencyUS   float64 // per-transfer fixed cost (driver + DMA setup)

	// Compute curves.
	GemmFP32   gemmCurve
	GemmFP16   gemmCurve
	TensorCore bool
	GemmTC     gemmCurve // used for FP16 GEMM when TensorCore is true

	// Top-2 selection curves (per element scanned).
	ScanFP32 scanCurve
	ScanFP16 scanCurve
	// InsertionSortFactor is the slowdown of the modified insertion sort
	// used by the reference cuBLAS KNN implementation [Garcia et al.]
	// relative to the single-pass scan: it repeatedly loads and stores the
	// candidate window in device memory instead of keeping it in registers.
	InsertionSortFactor float64

	// BaselineEff is the fraction of FP32 peak achieved by the monolithic
	// OpenCV-CUDA brute-force match kernel (the paper measured 4.4% device
	// utilization for the whole pipeline).
	BaselineEff float64

	// KernelFloorUS is the minimum wall time of any kernel launch
	// (driver + launch latency), applied to small elementwise kernels.
	KernelFloorUS float64

	// HostPostUSPerImage is the CPU-side post-processing time (ratio test,
	// edge removal) per image at batch 1; batching amortizes it by
	// HostPostBatchFactor.
	HostPostUSPerImage  float64
	HostPostBatchFactor float64
	// HostPostFP16Extra multiplies post-processing when results arrive in
	// FP16 and must be widened on the CPU (Table 1 measured +36%).
	HostPostFP16Extra float64

	// Jitter models cloud-VM execution-time variance; zero disables it
	// (micro-benchmark experiments run jitter-free, streaming experiments
	// enable it via WithJitter).
	Jitter Jitter
}

// TeslaP100 returns the 16 GB PCIe Tesla P100 model the paper's single-GPU
// experiments use.
func TeslaP100() DeviceSpec {
	return DeviceSpec{
		Name:            "Tesla P100/16GB",
		MemBytes:        16 << 30,
		MemBWGBs:        732,
		MemBWEff:        0.72,
		RuntimeOverhead: 300 << 20,
		PCIePinnedGBs:   9.4,
		PCIePageableGBs: 5.6,
		PCIeLatencyUS:   40,

		GemmFP32: gemmCurve{PeakTFLOPS: 9.3, EffMax: 0.75, WHalf: 9.46e7},
		GemmFP16: gemmCurve{PeakTFLOPS: 18.7, EffMax: 0.68, WHalf: 1.66e8},

		ScanFP32: scanCurve{EMaxGElems: 264, THalf: 13000},
		ScanFP16: scanCurve{EMaxGElems: 157, THalf: 13000},

		InsertionSortFactor: 5.5,
		BaselineEff:         0.0374,
		KernelFloorUS:       4.5,

		HostPostUSPerImage:  12.6,
		HostPostBatchFactor: 0.305,
		HostPostFP16Extra:   1.36,
	}
}

// TeslaV100 returns the 16 GB Tesla V100 model; withTensorCore selects the
// HMMA path for FP16 GEMM (Table 4's third row).
func TeslaV100(withTensorCore bool) DeviceSpec {
	s := DeviceSpec{
		Name:            "Tesla V100/16GB",
		MemBytes:        16 << 30,
		MemBWGBs:        900,
		MemBWEff:        0.72,
		RuntimeOverhead: 300 << 20,
		PCIePinnedGBs:   9.6,
		PCIePageableGBs: 5.8,
		PCIeLatencyUS:   40,

		GemmFP32: gemmCurve{PeakTFLOPS: 14.0, EffMax: 0.75, WHalf: 1.42e8},
		GemmFP16: gemmCurve{PeakTFLOPS: 28.0, EffMax: 0.66, WHalf: 2.49e8},
		GemmTC:   gemmCurve{PeakTFLOPS: 112.0, EffMax: 0.29, WHalf: 5.54e8},

		ScanFP32: scanCurve{EMaxGElems: 330, THalf: 13000},
		ScanFP16: scanCurve{EMaxGElems: 220, THalf: 13000},

		InsertionSortFactor: 5.5,
		BaselineEff:         0.0374,
		KernelFloorUS:       4.5,

		HostPostUSPerImage:  12.6,
		HostPostBatchFactor: 0.305,
		HostPostFP16Extra:   1.36,
	}
	s.TensorCore = withTensorCore
	if withTensorCore {
		s.Name = "Tesla V100/16GB (tensor core)"
	}
	return s
}

// TeslaA100 returns a 40 GB SXM A100 model — the third FP16-capable card
// the paper names ("such as Tesla P100, V100, and A100"). No paper
// measurements exist for it, so its curves are projected: peak numbers
// from the datasheet (312 TFLOPS FP16 tensor, 1555 GB/s HBM2e, PCIe Gen4),
// achievable-efficiency shapes scaled from the V100 fits (WHalf grows with
// peak: more parallelism needs more work to saturate). The device-projection
// experiment uses it to ask how the pipeline would scale on newer hardware.
func TeslaA100() DeviceSpec {
	return DeviceSpec{
		Name:            "Tesla A100/40GB (projected)",
		MemBytes:        40 << 30,
		MemBWGBs:        1555,
		MemBWEff:        0.75,
		RuntimeOverhead: 300 << 20,
		PCIePinnedGBs:   22, // Gen4 x16 effective
		PCIePageableGBs: 12,
		PCIeLatencyUS:   35,

		GemmFP32: gemmCurve{PeakTFLOPS: 19.5, EffMax: 0.75, WHalf: 1.98e8},
		GemmFP16: gemmCurve{PeakTFLOPS: 78, EffMax: 0.62, WHalf: 6.9e8},
		GemmTC:   gemmCurve{PeakTFLOPS: 312, EffMax: 0.27, WHalf: 1.54e9},

		ScanFP32: scanCurve{EMaxGElems: 560, THalf: 13000},
		ScanFP16: scanCurve{EMaxGElems: 380, THalf: 13000},

		InsertionSortFactor: 5.5,
		BaselineEff:         0.0374,
		KernelFloorUS:       4.0,

		HostPostUSPerImage:  12.6,
		HostPostBatchFactor: 0.305,
		HostPostFP16Extra:   1.36,
		TensorCore:          true,
	}
}

// Validate reports the first rate the cost formulas divide by that is
// not finite and positive, naming its field: a zero, NaN or infinite one
// would bill +Inf, NaN or zero device time without an error. GemmTC counts
// only when TensorCore selects it.
func (s *DeviceSpec) Validate() error {
	type rate struct {
		name string
		v    float64
	}
	rates := []rate{
		{"MemBWGBs", s.MemBWGBs}, {"MemBWEff", s.MemBWEff},
		{"PCIePinnedGBs", s.PCIePinnedGBs}, {"PCIePageableGBs", s.PCIePageableGBs},
		{"GemmFP32.PeakTFLOPS", s.GemmFP32.PeakTFLOPS}, {"GemmFP32.EffMax", s.GemmFP32.EffMax},
		{"GemmFP16.PeakTFLOPS", s.GemmFP16.PeakTFLOPS}, {"GemmFP16.EffMax", s.GemmFP16.EffMax},
		{"ScanFP32.EMaxGElems", s.ScanFP32.EMaxGElems}, {"ScanFP16.EMaxGElems", s.ScanFP16.EMaxGElems},
		{"BaselineEff", s.BaselineEff},
	}
	if s.TensorCore {
		rates = append(rates, rate{"GemmTC.PeakTFLOPS", s.GemmTC.PeakTFLOPS}, rate{"GemmTC.EffMax", s.GemmTC.EffMax})
	}
	for _, r := range rates {
		if !(r.v > 0) || math.IsInf(r.v, 1) {
			return fmt.Errorf("%s %g must be finite and positive", r.name, r.v)
		}
	}
	return nil
}

// GemmTimeUS returns the simulated duration of a C = AᵀB kernel with
// A: k×m, B: k×n (2·m·n·k FLOPs).
func (s *DeviceSpec) GemmTimeUS(m, n, k int, prec Precision) float64 {
	flops := 2 * float64(m) * float64(n) * float64(k)
	switch {
	case prec == FP32:
		return s.GemmFP32.timeUS(flops)
	case s.TensorCore:
		return s.GemmTC.timeUS(flops)
	default:
		return s.GemmFP16.timeUS(flops)
	}
}

// PeakTFLOPS returns the theoretical peak for the precision (Table 4's
// denominator).
func (s *DeviceSpec) PeakTFLOPS(prec Precision) float64 {
	switch {
	case prec == FP32:
		return s.GemmFP32.PeakTFLOPS
	case s.TensorCore:
		return s.GemmTC.PeakTFLOPS
	default:
		return s.GemmFP16.PeakTFLOPS
	}
}

// Top2ScanTimeUS returns the simulated duration of the register-resident
// top-2 selection over a (rows·batch)×cols distance matrix: one thread per
// output column (cols·batch threads), each scanning rows elements.
func (s *DeviceSpec) Top2ScanTimeUS(rows, cols, batch int, prec Precision) float64 {
	elems := float64(rows) * float64(cols) * float64(batch)
	threads := float64(cols) * float64(batch)
	bytes := elems * float64(prec.ElemBytes())
	c := s.ScanFP32
	if prec == FP16 {
		c = s.ScanFP16
	}
	t := c.timeUS(elems, threads, bytes, s.MemBWGBs)
	if t < s.KernelFloorUS {
		t = s.KernelFloorUS
	}
	return t
}

// InsertionSortTimeUS models the reference implementation's modified
// insertion sort (Algorithm 1 step 5 before our optimization), which loads
// and stores from device memory on every comparison.
func (s *DeviceSpec) InsertionSortTimeUS(rows, cols, batch int, prec Precision) float64 {
	return s.Top2ScanTimeUS(rows, cols, batch, prec) * s.InsertionSortFactor
}

// ElementwiseTimeUS returns the simulated duration of a streaming
// elementwise kernel touching the given number of bytes (reads + writes).
func (s *DeviceSpec) ElementwiseTimeUS(bytes int64) float64 {
	t := float64(bytes) / (s.MemBWGBs * s.MemBWEff * 1e9) * 1e6
	if t < s.KernelFloorUS {
		t = s.KernelFloorUS
	}
	return t
}

// CopyTimeUS returns the simulated duration of a PCIe transfer.
func (s *DeviceSpec) CopyTimeUS(bytes int64, pinned bool) float64 {
	bw := s.PCIePageableGBs
	if pinned {
		bw = s.PCIePinnedGBs
	}
	return s.PCIeLatencyUS + float64(bytes)/(bw*1e9)*1e6
}

// HammingMatchTimeUS models a binary-descriptor brute-force 2-NN kernel
// (XOR + popcount over W 64-bit words per comparison, top-2 kept in
// registers). Binary matching has no GEMM formulation — cuBLAS and tensor
// cores cannot help — but the raw integer work per pair is ~16x smaller
// than the d=128 FP16 GEMM, so a plain CUDA kernel at a conservative
// fraction of integer peak (we reuse the FP32 peak with BaselineEff-like
// headroom of 30%) is still fast. Used by the descriptor ablation's ORB
// row.
func (s *DeviceSpec) HammingMatchTimeUS(m, n, batch, words int) float64 {
	// XOR + popcount + accumulate ≈ 3 int ops per word, plus the top-2
	// compare chain per candidate.
	ops := float64(batch) * float64(m) * float64(n) * (3*float64(words) + 2)
	const intEff = 0.30
	return ops / (s.GemmFP32.PeakTFLOPS * 1e12 * intEff) * 1e6
}

// BinaryScanTimeUS models the Hamming prefilter scan: every resident code
// (codes of W 64-bit words each) is XOR+popcount-compared against a small
// set of query probe codes, keeping a per-image running sum. With W=2 the
// kernel reads 16 bytes per code once and does probes·(3W+2) integer ops on
// it, so for realistic probe counts it is bandwidth-bound — the time is the
// max of the streaming-read term and the integer-throughput term (same
// conservative 30% of FP32 peak as HammingMatchTimeUS), clamped to the
// kernel launch floor.
func (s *DeviceSpec) BinaryScanTimeUS(codes, probes, words int) float64 {
	bytes := float64(codes) * float64(words) * 8
	bw := bytes / (s.MemBWGBs * s.MemBWEff * 1e9) * 1e6
	ops := float64(codes) * float64(probes) * (3*float64(words) + 2)
	const intEff = 0.30
	compute := ops / (s.GemmFP32.PeakTFLOPS * 1e12 * intEff) * 1e6
	t := bw
	if compute > t {
		t = compute
	}
	if t < s.KernelFloorUS {
		t = s.KernelFloorUS
	}
	return t
}

// BaselineMatchTimeUS models the monolithic OpenCV-CUDA brute-force 2-NN
// kernel for one reference-query pair (m×n distances over k dims).
func (s *DeviceSpec) BaselineMatchTimeUS(m, n, k int) float64 {
	flops := 2 * float64(m) * float64(n) * float64(k)
	return flops / (s.GemmFP32.PeakTFLOPS * 1e12 * s.BaselineEff) * 1e6
}

// HostPostTimeUS returns the CPU post-processing time for a batch of
// images. The FP16 widening penalty (Table 1: +36%) only applies at batch
// 1 — the batched path converts results in bulk, which Table 3's measured
// 3.85 us/image (= 12.6 × 0.305, no FP16 term) confirms.
func (s *DeviceSpec) HostPostTimeUS(batch int, prec Precision) float64 {
	per := s.HostPostUSPerImage
	if batch > 1 {
		per *= s.HostPostBatchFactor
	} else if prec == FP16 {
		per *= s.HostPostFP16Extra
	}
	return per * float64(batch)
}

func (s *DeviceSpec) String() string {
	return fmt.Sprintf("%s (%.0f GB, %.1f/%.1f TFLOPS fp32/fp16)",
		s.Name, float64(s.MemBytes)/(1<<30), s.GemmFP32.PeakTFLOPS, s.PeakTFLOPS(FP16))
}
