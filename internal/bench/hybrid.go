package bench

import (
	"fmt"

	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/knn"
)

// hostBatches is how many reference batches jitteredHostSpeed enrolls: the
// GPU cache holds one of them, the rest stream over PCIe per search.
const hostBatches = 16

// hostConfig is phantomConfig's production shape (RootSIFT, FP16, m=n=768)
// at the given batch size and stream count, with a GPU cache budget of
// exactly one resident batch: every other batch demotes to the host level
// and must stream over PCIe, pinned or pageable, per search.
func hostConfig(spec gpusim.DeviceSpec, batch, streams int, pinned bool) engine.Config {
	cfg := phantomConfig(spec, knn.RootSIFT, gpusim.FP16, batch, paperM, paperN, paperD)
	cfg.Streams, cfg.PinnedHost = streams, pinned
	cfg.GPUCacheBytes = int64(batch)*int64(paperM)*int64(paperD)*2 + 1
	return cfg
}

// table5 reproduces Table 5: search speed with the hybrid memory cache —
// GPU-resident vs host-resident with and without pinned memory (batch
// 1024, single stream).
func (r *runner) table5() *Table {
	spec := gpusim.TeslaP100()
	t := &Table{
		ID:     "Table 5",
		Title:  "Hybrid memory cache, m=n=768, batch 1024, 1 stream, Tesla P100",
		Header: []string{"Cache type", "Speed (images/s)"},
	}
	speed := func(cfg engine.Config) float64 {
		_, rep := phantomSearch(cfg, 8)
		return rep.Speed
	}
	gpu := speed(phantomConfig(spec, knn.RootSIFT, gpusim.FP16, 1024, paperM, paperN, paperD))
	pageable := speed(hostConfig(spec, 1024, 1, false))
	pinned := speed(hostConfig(spec, 1024, 1, true))
	t.AddRow("GPU memory", f0(gpu))
	t.AddRow("Host memory w/o pinned memory", f0(pageable))
	t.AddRow("Host memory w/ pinned memory", f0(pinned))
	t.AddNote("paper: 45,539 / 17,619 / 25,362 images/s")
	t.AddNote("hybrid slowdown %.1f%% (paper 43.9%%): the PCIe link is the bottleneck", (1-pinned/gpu)*100)
	return t
}

// jitteredHostSpeed averages the speed of hostConfig's pinned phantom
// search over several jitter seeds (a single seed draw swings the
// PCIe-bound makespan by ~±12%) and reports the engine's workspace.
func jitteredHostSpeed(base gpusim.DeviceSpec, cov float64, seed0 uint64, batch, streams int) (speed, wsGB float64) {
	reps := 8
	if cov == 0 {
		reps = 1
	}
	var sum float64
	for r := 0; r < reps; r++ {
		spec := gpusim.WithJitter(base, cov, seed0+uint64(r)*101)
		e, rep := phantomSearch(hostConfig(spec, batch, streams, true), hostBatches)
		sum += rep.Speed
		wsGB = e.Stats().WorkspaceGB
	}
	return sum / float64(reps), wsGB
}

// table6 reproduces Table 6: multi-stream recovery of the hybrid-cache
// speed loss — batch {512, 256} x streams {1, 2, 4, 8}, host-resident
// references, pinned memory, with cloud-VM jitter enabled.
func (r *runner) table6() *Table {
	base := gpusim.TeslaP100()
	t := &Table{
		ID:     "Table 6",
		Title:  "Multiple CPU threads and CUDA streams, m=n=768, Tesla P100, host-resident refs",
		Header: []string{"Batch", "Streams", "Extra GPU mem (GB)", "Speed (images/s)", "Schedule efficiency"},
	}
	// Theoretical peak: the search is PCIe-bound when references stream
	// from the host — bytes per image over the pinned link, adjusted for
	// the one batch (of 16) that stays GPU-resident and needs no copy.
	bytesPerImage := float64(paperM * paperD * 2)
	theoretical := base.PCIePinnedGBs * 1e9 / bytesPerImage * hostBatches / (hostBatches - 1)
	for _, batch := range []int{512, 256} {
		for _, streams := range []int{1, 2, 4, 8} {
			speed, wsGB := jitteredHostSpeed(base, r.opts.JitterCoV, uint64(r.opts.Seed)+7, batch, streams)
			t.AddRow(fmt.Sprintf("%d", batch), fmt.Sprintf("%d", streams),
				f2(wsGB), f0(speed), pct(speed/theoretical))
		}
	}
	t.AddNote("theoretical PCIe-bound speed: %s images/s (paper: 47,592)", f0(theoretical))
	t.AddNote("paper batch 512: 24,984 / 29,459 / 37,955 / 41,546 (52.5%% / 61.9%% / 79.8%% / 87.3%%)")
	t.AddNote("paper batch 256: 24,554 / 28,259 / 36,733 / 40,310")
	t.AddNote("deviation: our simulated overlap is cleaner than the paper's cloud VMs, so " +
		"efficiency saturates by ~4 streams instead of climbing to 8; trend direction is preserved")
	return t
}
