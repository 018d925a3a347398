package bench

import (
	"fmt"

	"texid/internal/cluster"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/knn"
)

// system reproduces the Sec. 8 deployment: 14 Tesla P100 containers, each
// with a 76 GB hybrid cache (16 GB GPU with 4 GB reserved for engine
// workspace + 64 GB host), the production engine configuration (RootSIFT,
// FP16, asymmetric m=384/n=768, batch 256, 8 streams), and phantom
// references filling a scaled-down index with the paper's GPU:host
// residency ratio.
func (r *runner) system() *Table {
	t := &Table{
		ID:     "Sec 8",
		Title:  "Distributed texture search system (14 GPU containers)",
		Header: []string{"Metric", "Measured", "Paper"},
	}

	const workers = 14
	// Full-scale capacity math, exactly as the paper computes it: 76 GB of
	// hybrid cache per container, 14 containers, m=384 FP16 matrices.
	perRef := int64(384 * paperD * 2)
	fullCacheBytes := int64(workers) * (76 << 30)
	fullCapacity := fullCacheBytes / perRef

	// Measured aggregate speed on a scaled index that preserves the
	// paper's ~16% GPU / 84% host residency split.
	opts := r.opts
	scale := int64(1)
	refs := opts.SystemRefs
	if int64(refs) < fullCapacity {
		scale = (fullCapacity + int64(refs) - 1) / int64(refs)
	}

	ecfg := engine.DefaultConfig()
	ecfg.Spec = gpusim.WithJitter(gpusim.TeslaP100(), opts.JitterCoV, uint64(opts.Seed)+13)
	ecfg.BatchSize = 256
	ecfg.Streams = 8
	ecfg.Precision = gpusim.FP16
	ecfg.Algorithm = knn.RootSIFT
	ecfg.RefFeatures = 384
	ecfg.QueryFeatures = 768
	ecfg.GPUCacheBytes = (12 << 30) / scale
	ecfg.HostCacheBytes = (64 << 30) / scale

	cl, err := cluster.New(cluster.Config{Workers: workers, Engine: ecfg})
	if err != nil {
		panic(fmt.Sprintf("bench: cluster: %v", err))
	}
	// Fill to 95% of the scaled capacity (batch granularity makes an exact
	// fill overflow the last batch).
	scaledCapacity := (ecfg.GPUCacheBytes + ecfg.HostCacheBytes) / perRef * workers
	if int64(refs) > scaledCapacity*95/100 {
		refs = int(scaledCapacity * 95 / 100)
	}
	if err := cl.AddPhantom(refs); err != nil {
		panic(fmt.Sprintf("bench: phantom: %v", err))
	}
	rep, err := cl.Search(nil, nil)
	if err != nil {
		panic(fmt.Sprintf("bench: search: %v", err))
	}

	// The paper's headline 872,984 images/s is 14x its Table 7 single-GPU
	// figure (62,356 at m=384, batch 256, GPU-resident). Report both that
	// basis and the stricter measured hybrid-streaming number.
	_, t7 := phantomSearch(phantomConfig(gpusim.TeslaP100(), knn.RootSIFT, gpusim.FP16, 256, 384, 768, paperD), 1)
	table7Basis := float64(workers) * 256e6 / t7.ElapsedUS

	t.AddRow("GPU containers", fmt.Sprintf("%d", workers), "14")
	t.AddRow("Hybrid cache (GB total)", f0(float64(fullCacheBytes)/(1<<30)), "1064")
	t.AddRow("Capacity (reference images)", fmt.Sprintf("%d", fullCapacity), "10.8M")
	t.AddRow("Aggregate speed, Table-7 basis (images/s)", f0(table7Basis), "872,984")
	t.AddRow("Aggregate speed, hybrid streaming (images/s)", f0(rep.Speed), dash)
	t.AddRow("Search time per million refs (s)", f2(1e6/rep.Speed), "~1.15")
	t.AddRow("Scaled index measured on", fmt.Sprintf("%d refs (1/%d)", refs, scale), dash)
	t.AddNote("per-container hybrid speed %.0f images/s vs the paper's 62,356 — with asymmetric m=384 "+
		"the PCIe requirement halves, so streaming no longer bottlenecks (Sec. 7's point), and our "+
		"overlap is cleaner than the paper's VMs (Table 6 note)", rep.Speed/workers)
	t.AddNote("slowest/fastest shard elapsed: %.2f", shardSkew(rep))
	return t
}

// shardSkew reports load balance across workers.
func shardSkew(rep *cluster.Report) float64 {
	if len(rep.PerWorker) == 0 {
		return 1
	}
	lo, hi := rep.PerWorker[0], rep.PerWorker[0]
	for _, v := range rep.PerWorker {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == 0 {
		return 1
	}
	return hi / lo
}
