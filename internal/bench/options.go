package bench

// Options scales the experiments. Timing experiments always run at the
// paper's full dimensions (they use phantom batches, which cost nothing to
// "compute"); accuracy experiments run the real functional pipeline on the
// synthetic dataset, so their sizes are scaled down by default to stay
// tractable on a laptop CPU. Every knob can be raised toward paper scale;
// every count and size must be at least 1 (texbench rejects less).
type Options struct {
	// Seed makes every experiment deterministic.
	Seed int64

	// Refs and Queries size the accuracy dataset (the paper's tea-brick
	// dataset has 300,000 references and 354 queries).
	Refs    int
	Queries int
	// ImageSize is the synthetic texture side in pixels.
	ImageSize int
	// Difficulty in [0,1] controls query perturbation strength; tuned so
	// the full-precision baseline sits near the paper's ~98%.
	Difficulty float64
	// FeatureScale divides the paper's feature budgets for the functional
	// experiments: 4 maps (m, n) = (768, 768) to (192, 192). 1 runs at
	// paper scale (hours of pure-Go GEMM).
	FeatureScale int
	// MinMatches is the identification acceptance threshold at the scaled
	// dimensions: a query only counts as correctly identified when its
	// true reference ranks first with at least this many ratio-test
	// matches (open-set top-1, as product traceability requires).
	MinMatches int

	// SystemRefs is the phantom reference count for the Sec. 8 cluster
	// experiment (the paper deploys 10.8 M).
	SystemRefs int

	// JitterCoV is the cloud-VM variance applied to the streaming
	// experiments (Tables 5-6).
	JitterCoV float64
}

// DefaultOptions returns laptop-tractable defaults (a full run of every
// experiment takes a few minutes, dominated by the FP16 functional GEMMs
// of Table 2).
func DefaultOptions() Options {
	return Options{
		Seed:         1,
		Refs:         12,
		Queries:      24,
		ImageSize:    128,
		Difficulty:   0.75,
		FeatureScale: 4,
		MinMatches:   12,
		SystemRefs:   1_000_000,
		JitterCoV:    0.45,
	}
}

// scaled divides a paper-scale feature budget by FeatureScale.
func (o Options) scaled(n int) int {
	v := n / o.FeatureScale
	if v < 8 {
		v = 8
	}
	return v
}
