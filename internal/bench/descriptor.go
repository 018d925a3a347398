package bench

import (
	"fmt"

	"texid/internal/gpusim"
	"texid/internal/knn"
	"texid/internal/match"
	"texid/internal/orb"
	"texid/internal/surf"
)

// ablateDescriptor compares the paper's SIFT (d=128) pipeline against the
// two alternative descriptors Sec. 3.1 names: SURF (d=64, half the GEMM
// work and feature memory) and ORB (256-bit binary codes under Hamming
// distance, which the cuBLAS machinery cannot accelerate at all). Accuracy
// runs the real extractors on the same dataset; GEMM speeds come from the
// simulated batched matcher at the paper's feature counts.
func (r *runner) ablateDescriptor() *Table {
	opts := r.opts
	m := opts.scaled(768)
	n := opts.scaled(768)
	t := &Table{
		ID: "Ablate-descriptor",
		Title: fmt.Sprintf("SIFT vs SURF vs ORB: accuracy (m=%d, n=%d) and batched GEMM speed (batch 1024)",
			m, n),
		Header: []string{"Descriptor", "d", "KB per reference (FP16, m=768)", "Top-1 accuracy", "Speed (images/s)"},
	}

	ds := r.images()
	spec := gpusim.TeslaP100()
	speed := func(d int) string {
		_, rep := phantomSearch(phantomConfig(spec, knn.RootSIFT, gpusim.FP16, 1024, paperM, paperN, d), 1)
		return f0(1024e6 / rep.ElapsedUS)
	}

	// SIFT (RootSIFT, the production pipeline).
	siftAcc := top1Accuracy(r.dataset(), accConfig(knn.RootSIFT, gpusim.FP32, m, n, opts), true)
	t.AddRow("SIFT + RootSIFT", "128", f1(float64(768*128*2)/1024), pct(siftAcc), speed(128))

	// SURF (unit-norm descriptors, same Algorithm 2 matcher).
	surfCfg := surf.DefaultConfig()
	surfCfg.MaxFeatures = 0
	surfDS := &accDataset{truth: ds.Truth}
	for _, im := range ds.Refs {
		surfDS.refs = append(surfDS.refs, surf.Extract(im, surfCfg))
	}
	for _, im := range ds.Queries {
		surfDS.queries = append(surfDS.queries, surf.Extract(im, surfCfg))
	}
	surfSearch := accConfig(knn.RootSIFT, gpusim.FP32, m, n, opts)
	surfSearch.Dim = surf.DescriptorDim
	surfAcc := top1Accuracy(surfDS, surfSearch, false /* already unit-norm */)
	t.AddRow("SURF", "64", f1(float64(768*64*2)/1024), pct(surfAcc), speed(64))

	// ORB (binary codes, Hamming matching — the Sec. 3.1 third option).
	orbCfg := orb.DefaultConfig()
	orbCfg.MaxFeatures = 0
	orbRefs := make([]*orb.Features, len(ds.Refs))
	for i, im := range ds.Refs {
		orbRefs[i] = trimORB(orb.Extract(im, orbCfg), m)
	}
	correct := 0
	for qi, im := range ds.Queries {
		q := trimORB(orb.Extract(im, orbCfg), n)
		ranked := orb.Score(orbRefs, q)
		top, ok := match.Identify(ranked, match.Config{MinMatches: opts.MinMatches})
		if ok && top.RefID == ds.Truth[qi] {
			correct++
		}
	}
	orbAcc := float64(correct) / float64(len(ds.Queries))
	// A plain CUDA Hamming kernel (no GEMM possible) plus the shared
	// pipeline tail (D2H + post-processing, per Table 3's batched figures).
	orbTot := spec.HammingMatchTimeUS(paperM, paperN, 1024, orb.CodeWords) + 1024*(1.7+3.9)
	t.AddRow("ORB (binary, Hamming)", "256 bit", f1(float64(768*orb.BytesPerFeature)/1024), pct(orbAcc), f0(1024e6/orbTot))

	t.AddNote("SURF halves GEMM work and reference memory; the paper (following [27]) uses SIFT for accuracy")
	t.AddNote("SURF detectors also find fewer keypoints on fine pressed-leaf texture, compounding the accuracy gap")
	t.AddNote("ORB matching is XOR+popcount under Hamming distance — no GEMM formulation exists, so none of the " +
		"paper's cuBLAS/tensor-core machinery applies; its speed comes from a plain-kernel integer model " +
		"(gpusim.HammingMatchTimeUS). Fast and tiny, but the accuracy gap is why the paper follows [27] to SIFT")
	return t
}

// trimORB keeps the k strongest ORB features (they are response-sorted).
func trimORB(f *orb.Features, k int) *orb.Features {
	if k >= f.Count() {
		return f
	}
	return &orb.Features{Codes: f.Codes[:k], Keypoints: f.Keypoints[:k]}
}
