package bench

import (
	"fmt"

	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/knn"
)

// paperDims are the evaluation dimensions used throughout the paper:
// m = n = 768 SIFT features of d = 128.
const (
	paperM = 768
	paperN = 768
	paperD = 128
)

// flopsPerImage is the similarity-matrix work per reference image.
func flopsPerImage(m, n, d int) float64 { return 2 * float64(m) * float64(n) * float64(d) }

// phantomConfig is the engine configuration of a GPU-resident phantom
// search: batches of batch references of m features, matched by the given
// 2-NN variant and storage precision against one n-feature query of
// dimension d, on one stream.
func phantomConfig(spec gpusim.DeviceSpec, algo knn.Algorithm, prec gpusim.Precision, batch, m, n, d int) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Spec, cfg.Algorithm, cfg.Precision = spec, algo, prec
	cfg.BatchSize, cfg.Streams = batch, 1
	cfg.RefFeatures, cfg.QueryFeatures, cfg.Dim = m, n, d
	return cfg
}

// phantomSearch is every timing experiment's one search: it builds an
// engine from cfg, enrolls batches full batches of phantom references
// (dimensions only, no data) and runs one phantom search. Callers read the
// engine's device profile or workspace and the report's time or speed.
func phantomSearch(cfg engine.Config, batches int) (*engine.Engine, *engine.Report) {
	e, err := engine.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: engine: %v", err))
	}
	if err := e.AddPhantom(0, batches*cfg.BatchSize); err != nil {
		panic(fmt.Sprintf("bench: phantom refs: %v", err))
	}
	rep, err := e.Search(nil, nil)
	if err != nil {
		panic(fmt.Sprintf("bench: search: %v", err))
	}
	return e, rep
}

// memory10kMB is Table 1's memory column: 10,000 reference feature
// matrices plus their N_R vectors plus the CUDA runtime overhead, in MB.
func memory10kMB(spec gpusim.DeviceSpec, prec gpusim.Precision) float64 {
	per := int64(paperM)*int64(paperD)*int64(prec.ElemBytes()) + int64(paperM)*4
	return float64(10000*per+spec.RuntimeOverhead) / (1 << 20)
}

// table1 reproduces Table 1: per-step times, total, speed and memory of
// the four 2-NN implementations at batch 1.
func (r *runner) table1() *Table {
	spec := gpusim.TeslaP100()
	t := &Table{
		ID:     "Table 1",
		Title:  "cuBLAS 2-NN implementations, m=n=768, d=128, Tesla P100",
		Header: []string{"Execution step (us)", "CUDA (OpenCV)", "cuBLAS [9]", "cuBLAS (ours)", "cuBLAS+FP16 (ours)"},
	}

	type variant struct {
		algo knn.Algorithm
		prec gpusim.Precision
	}
	variants := []variant{
		{knn.Baseline, gpusim.FP32},
		{knn.Garcia, gpusim.FP32},
		{knn.Eq1Top2, gpusim.FP32},
		{knn.Eq1Top2, gpusim.FP16},
	}
	profiles := make([]map[string]gpusim.OpStats, len(variants))
	totals := make([]float64, len(variants))
	for i, v := range variants {
		e, rep := phantomSearch(phantomConfig(spec, v.algo, v.prec, 1, paperM, paperN, paperD), 1)
		profiles[i], totals[i] = e.Device().Profile(), rep.ElapsedUS
	}

	cell := func(i int, keys ...string) string {
		var sum float64
		for _, k := range keys {
			sum += profiles[i][k].TotalUS
		}
		if sum == 0 {
			return dash
		}
		return f2(sum)
	}
	prec := func(i int) string { return variants[i].prec.String() }
	t.AddRow("GEMM / step 3",
		dash, cell(1, "gemm/"+prec(1)), cell(2, "gemm/"+prec(2)), cell(3, "gemm/"+prec(3)))
	t.AddRow("Add N_R / step 4",
		dash, cell(1, "elementwise/addNR"), cell(2, "elementwise/addNR"), cell(3, "elementwise/addNR"))
	t.AddRow("Top-2 sort / step 5",
		dash, cell(1, "insertionsort/fp32"), cell(2, "top2scan/fp32"), cell(3, "top2scan/fp16"))
	t.AddRow("Add N_Q and sqrt / steps 6-7",
		dash, cell(1, "elementwise/addNQ-sqrt"), cell(2, "elementwise/addNQ-sqrt"), cell(3, "elementwise/addNQ-sqrt"))
	t.AddRow("D2H memory copy / step 8",
		cell(0, "copy/d2h"), cell(1, "copy/d2h"), cell(2, "copy/d2h"), cell(3, "copy/d2h"))
	t.AddRow("Post-processing / CPU",
		cell(0, "host/post"), cell(1, "host/post"), cell(2, "host/post"), cell(3, "host/post"))
	t.AddRow("Monolithic match kernel",
		cell(0, "baseline-match"), dash, dash, dash)

	speeds := make([]float64, len(variants))
	row := []string{"Total time (us)"}
	for i, tot := range totals {
		speeds[i] = 1e6 / tot
		row = append(row, f1(tot))
	}
	t.AddRow(row...)
	row = []string{"Speed (images/s)"}
	for _, s := range speeds {
		row = append(row, f0(s))
	}
	t.AddRow(row...)
	t.AddRow("GPU memory, 10k refs (MB)",
		f0(memory10kMB(spec, gpusim.FP32)),
		f0(memory10kMB(spec, gpusim.FP32)),
		f0(memory10kMB(spec, gpusim.FP32)),
		f0(memory10kMB(spec, gpusim.FP16)))

	t.AddNote("paper totals: 497.0 / 330.3 / 148.5 / 169.0 us; speeds 2012 / 3027 / 6734 / 5917 images/s")
	t.AddNote("paper memory: 4271 / 4307 / 4307 / 2307 MB")
	t.AddNote("the FP16 top-2 scan is slower than FP32 (half-precision compare intrinsic), as the paper observed")
	return t
}

// table3 reproduces Table 3: per-image step times of the batched
// RootSIFT pipeline (Algorithm 2 + FP16) at batch 1 vs 1024.
func (r *runner) table3() *Table {
	spec := gpusim.TeslaP100()
	t := &Table{
		ID:     "Table 3",
		Title:  "Batched reference feature matrix (Algorithm 2, FP16), per-image times, Tesla P100",
		Header: []string{"Execution step (us/image)", "BatchSize=1", "BatchSize=1024"},
	}
	e1, r1 := phantomSearch(phantomConfig(spec, knn.RootSIFT, gpusim.FP16, 1, paperM, paperN, paperD), 1)
	e1024, r1024 := phantomSearch(phantomConfig(spec, knn.RootSIFT, gpusim.FP16, 1024, paperM, paperN, paperD), 1)
	p1, tot1 := e1.Device().Profile(), r1.ElapsedUS
	p1024, tot1024 := e1024.Device().Profile(), r1024.ElapsedUS

	per := func(p map[string]gpusim.OpStats, key string, batch float64) string {
		v := p[key].TotalUS / batch
		if v == 0 {
			return dash
		}
		return f2(v)
	}
	t.AddRow("HGEMM / step 1", per(p1, "gemm/fp16", 1), per(p1024, "gemm/fp16", 1024))
	t.AddRow("Sort and sqrt / steps 2-3", per(p1, "top2scan/fp16", 1), per(p1024, "top2scan/fp16", 1024))
	t.AddRow("D2H memory copy / step 4", per(p1, "copy/d2h", 1), per(p1024, "copy/d2h", 1024))
	t.AddRow("Post-processing / CPU", per(p1, "host/post", 1), per(p1024, "host/post", 1024))
	t.AddRow("Total time (us/image)", f2(tot1), f2(tot1024/1024))
	t.AddRow("Speed (images/s)", f0(1e6/tot1), f0(1024e6/tot1024))
	t.AddNote("paper: batch 1 total 173.8 us (5,753 images/s); batch 1024 total 21.96 us (45,539 images/s)")
	return t
}

// table4 reproduces Table 4: end-to-end GPU efficiency at batch 1024 on
// P100, V100, and V100 with tensor cores.
func (r *runner) table4() *Table {
	t := &Table{
		ID:     "Table 4",
		Title:  "GPU efficiency, m=n=768, d=128, batch 1024",
		Header: []string{"GPU", "Speed (images/s)", "Achieved TFLOPS", "Peak TFLOPS (FP16)", "Efficiency"},
	}
	specs := []gpusim.DeviceSpec{
		gpusim.TeslaP100(),
		gpusim.TeslaV100(false),
		gpusim.TeslaV100(true),
	}
	for _, spec := range specs {
		_, rep := phantomSearch(phantomConfig(spec, knn.RootSIFT, gpusim.FP16, 1024, paperM, paperN, paperD), 1)
		speed := 1024e6 / rep.ElapsedUS
		achieved := speed * flopsPerImage(paperM, paperN, paperD) / 1e12
		peak := spec.PeakTFLOPS(gpusim.FP16)
		t.AddRow(spec.Name, f0(speed), f2(achieved), f1(peak), pct(achieved/peak))
	}
	t.AddNote("paper: 45,539 / 67,612 / 86,519 images/s; 6.69 / 9.94 / 12.72 TFLOPS; 35.8%% / 35.5%% / 11.4%%")
	return t
}

// fig4 reproduces Fig. 4: batched search speed vs batch size on P100 and
// V100 (with and without tensor cores).
func (r *runner) fig4() *Table {
	t := &Table{
		ID:     "Fig 4",
		Title:  "Search speed vs batch size (RootSIFT + batching, FP16, m=n=768)",
		Header: []string{"Batch", "P100 (img/s)", "V100 (img/s)", "V100+TC (img/s)"},
	}
	specs := []gpusim.DeviceSpec{
		gpusim.TeslaP100(),
		gpusim.TeslaV100(false),
		gpusim.TeslaV100(true),
	}
	var p100Speeds []float64
	for batch := 1; batch <= 1024; batch *= 2 {
		row := []string{fmt.Sprintf("%d", batch)}
		for i, spec := range specs {
			_, rep := phantomSearch(phantomConfig(spec, knn.RootSIFT, gpusim.FP16, batch, paperM, paperN, paperD), 1)
			speed := float64(batch) * 1e6 / rep.ElapsedUS
			row = append(row, f0(speed))
			if i == 0 {
				p100Speeds = append(p100Speeds, speed)
			}
		}
		t.AddRow(row...)
	}
	gain := p100Speeds[len(p100Speeds)-1] / p100Speeds[0]
	t.AddNote("P100 batch-1024 over batch-1 speedup: %.1fx (paper: 7.9x)", gain)
	t.AddNote("paper endpoints: P100 5,753 -> 45,539; V100 ~9,000 -> 67,612; V100+TC -> 86,519 images/s")
	t.AddNote("gains flatten past batch 256, as in the paper")
	return t
}
