package sift

import (
	"testing"

	"texid/internal/texture"
)

// TestExtractSteadyStateAllocs guards the arena pooling of the
// detection/orientation/descriptor working sets: a steady-state Extract
// allocates only its escaping outputs (descriptor matrix, keypoint slice,
// Features) plus small fixed pyramid bookkeeping — formerly ~1000
// allocations per op, one-plus per keypoint.
func TestExtractSteadyStateAllocs(t *testing.T) {
	im := texture.Generate(42, texture.DefaultGenParams())
	cfg := DefaultConfig()
	cfg.RootSIFT = true

	// Warm the arena pool and the kernel cache.
	Extract(im, cfg)
	Extract(im, cfg)

	allocs := testing.AllocsPerRun(5, func() { Extract(im, cfg) })
	bound := 200.0
	if raceDetector {
		// A dropped Put makes the next Extract grow a fresh arena (~250
		// allocations), so under the detector only the cold cost holds —
		// still well under the unpooled ~1000.
		bound = 400
	}
	if allocs > bound {
		t.Fatalf("steady-state Extract allocates %.0f times per op, want <= %.0f", allocs, bound)
	}
}
