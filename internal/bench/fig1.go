package bench

import (
	"texid/internal/gpusim"
	"texid/internal/knn"
)

// fig1 reproduces Fig. 1: capacity and speed as the four optimizations
// stack, from the OpenCV-CUDA baseline to the full production
// configuration (cuBLAS top-2, FP16, RootSIFT batching, hybrid cache with
// streams, asymmetric features).
func (r *runner) fig1() *Table {
	spec := gpusim.TeslaP100()
	t := &Table{
		ID:     "Fig 1",
		Title:  "Cumulative effect of the optimizations (Tesla P100, 16 GB GPU + 64 GB host)",
		Header: []string{"Configuration", "Speed (img/s)", "Capacity (refs)", "Speed x", "Capacity x"},
	}

	gpuBytes := float64(spec.MemBytes)
	hybridBytes := gpuBytes + float64(64<<30)

	// Per-reference footprints: FP32/FP16 with norm vectors (Algorithm 1)
	// or without (RootSIFT).
	perRef := func(m int, prec gpusim.Precision, norms bool) float64 {
		b := float64(m * paperD * prec.ElemBytes())
		if norms {
			b += float64(m * 4)
		}
		return b
	}

	// resident is the GPU-resident speed of one batch of the given variant.
	resident := func(algo knn.Algorithm, prec gpusim.Precision, batch, m int) float64 {
		_, rep := phantomSearch(phantomConfig(spec, algo, prec, batch, m, paperN, paperD), 1)
		return float64(batch) * 1e6 / rep.ElapsedUS
	}

	type stage struct {
		name     string
		speed    float64
		capacity float64
	}
	var stages []stage

	// 1. Baseline: OpenCV-CUDA brute force, FP32, GPU memory only.
	stages = append(stages, stage{"baseline: OpenCV CUDA, FP32", resident(knn.Baseline, gpusim.FP32, 1, paperM), gpuBytes / perRef(paperM, gpusim.FP32, true)})

	// 2. cuBLAS with the single-pass top-2 scan.
	stages = append(stages, stage{"+ cuBLAS + top-2 scan", resident(knn.Eq1Top2, gpusim.FP32, 1, paperM), gpuBytes / perRef(paperM, gpusim.FP32, true)})

	// 3. FP16 feature storage.
	stages = append(stages, stage{"+ FP16", resident(knn.Eq1Top2, gpusim.FP16, 1, paperM), gpuBytes / perRef(paperM, gpusim.FP16, true)})

	// 4. RootSIFT + batching (batch 1024).
	stages = append(stages, stage{"+ RootSIFT + batch 1024", resident(knn.RootSIFT, gpusim.FP16, 1024, paperM), gpuBytes / perRef(paperM, gpusim.FP16, false)})

	// 5. Hybrid cache + 8 streams (host-resident references, jittered VM).
	speed, _ := jitteredHostSpeed(spec, r.opts.JitterCoV, uint64(r.opts.Seed)+11, 512, 8)
	stages = append(stages, stage{"+ hybrid cache + 8 streams", speed, hybridBytes / perRef(paperM, gpusim.FP16, false)})

	// 6. Asymmetric features m=384, n=768 (batch 256, as in Table 7).
	stages = append(stages, stage{"+ asymmetric m=384", resident(knn.RootSIFT, gpusim.FP16, 256, 384), hybridBytes / perRef(384, gpusim.FP16, false)})

	base := stages[0]
	for _, s := range stages {
		t.AddRow(s.name, f0(s.speed), f0(s.capacity),
			f1(s.speed/base.speed)+"x", f1(s.capacity/base.capacity)+"x")
	}
	final := stages[len(stages)-1]
	t.AddNote("final vs baseline: %.1fx speed, %.1fx capacity (paper: 31x speed, 20x capacity)",
		final.speed/base.speed, final.capacity/base.capacity)
	t.AddNote("stage 6 speed measured GPU-resident at batch 256 (the paper's Table 7 configuration)")
	return t
}
