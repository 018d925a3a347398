package bench

import (
	"fmt"

	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/knn"
)

// The ablations isolate the design choices DESIGN.md calls out. They are
// extensions beyond the paper's own tables (texbench ids: qbatch,
// ablate-sort, ablate-swap, ablate-jitter).

// queryBatch explores the Sec. 5.3 trade-off the paper defers: batching
// *queries* raises GEMM data reuse (throughput) but couples every query's
// latency to the batch. One row per query-batch size.
func (r *runner) queryBatch() *Table {
	t := &Table{
		ID:     "QBatch",
		Title:  "Query batching (extension; Sec. 5.3 trade-off): batch 256 refs, m=n=768, P100",
		Header: []string{"Query batch", "Throughput (cmp/s)", "Per-query latency (ms)", "Latency x"},
	}
	e, err := engine.New(phantomConfig(gpusim.TeslaP100(), knn.RootSIFT, gpusim.FP16, 256, paperM, paperN, paperD))
	if err != nil {
		panic(fmt.Sprintf("bench: engine: %v", err))
	}
	if err := e.AddPhantom(0, 4096); err != nil {
		panic(fmt.Sprintf("bench: phantom: %v", err))
	}
	var baseLatency float64
	for _, bq := range []int{1, 2, 4, 8, 16, 32} {
		br, err := e.SearchBatchPhantom(bq)
		if err != nil {
			panic(fmt.Sprintf("bench: search batch: %v", err))
		}
		if bq == 1 {
			baseLatency = br.ElapsedUS
		}
		t.AddRow(fmt.Sprintf("%d", bq), f0(br.Throughput),
			f2(br.ElapsedUS/1000), f1(br.ElapsedUS/baseLatency)+"x")
	}
	t.AddNote("throughput gain saturates once the reference batch already fills the GPU; " +
		"latency grows linearly — the QoS cost the paper cites for deferring query batching")
	return t
}

// ablateSort compares the modified insertion sort of the reference cuBLAS
// KNN [9] against the paper's single-pass top-2 scan across batch sizes:
// the scan's advantage is largest exactly where the pipeline lives.
func (r *runner) ablateSort() *Table {
	spec := gpusim.TeslaP100()
	t := &Table{
		ID:     "Ablate-sort",
		Title:  "Top-2 selection: insertion sort [9] vs single-pass scan (FP32, m=n=768)",
		Header: []string{"Batch", "Insertion (us/img)", "Scan (us/img)", "Scan advantage"},
	}
	for _, batch := range []int{1, 16, 256, 1024} {
		ins := spec.InsertionSortTimeUS(paperM, paperN, batch, gpusim.FP32) / float64(batch)
		scan := spec.Top2ScanTimeUS(paperM, paperN, batch, gpusim.FP32) / float64(batch)
		t.AddRow(fmt.Sprintf("%d", batch), f2(ins), f2(scan), f1(ins/scan)+"x")
	}
	t.AddNote("the paper measured an 81.9%% sort-time reduction at batch 1 (221.5 -> 40.2 us)")
	return t
}

// ablateSwap isolates the hybrid cache's swap granularity: streaming a
// batch as one DMA transfer vs one transfer per reference matrix. Per-image
// transfers pay the PCIe setup latency hundreds of times per batch — the
// paper's "more efficient to transmit a large block in single DMA".
func (r *runner) ablateSwap() *Table {
	spec := gpusim.TeslaP100()
	t := &Table{
		ID:     "Ablate-swap",
		Title:  "Hybrid cache swap granularity (batch 1024, FP16, m=768, pinned PCIe)",
		Header: []string{"Transfer granularity", "H2D time per batch (ms)", "Implied ceiling (img/s)"},
	}
	perImage := int64(paperM * paperD * 2)
	batch := int64(1024)

	oneDMA := spec.CopyTimeUS(perImage*batch, true)
	perDMA := float64(batch) * spec.CopyTimeUS(perImage, true)
	t.AddRow("whole batch, single DMA", f2(oneDMA/1000), f0(float64(batch)/(oneDMA*1e-6)))
	t.AddRow("per reference matrix", f2(perDMA/1000), f0(float64(batch)/(perDMA*1e-6)))
	t.AddNote("per-image DMA pays the %.0f us transfer setup 1024 times: %.1fx slower streaming",
		spec.PCIeLatencyUS, perDMA/oneDMA)
	return t
}

// ablateJitter sweeps the cloud-VM jitter model: with no jitter the
// discrete-event pipeline overlaps almost perfectly at 2 streams; as
// variance grows, more streams are needed to keep the copy engine busy —
// the mechanism behind Table 6's efficiency climb.
func (r *runner) ablateJitter() *Table {
	t := &Table{
		ID:     "Ablate-jitter",
		Title:  "Schedule efficiency vs cloud-VM jitter (batch 512, host-resident, pinned)",
		Header: []string{"Jitter CoV", "1 stream", "2 streams", "4 streams", "8 streams"},
	}
	base := gpusim.TeslaP100()
	bytesPerImage := float64(paperM * paperD * 2)
	theoretical := base.PCIePinnedGBs * 1e9 / bytesPerImage * hostBatches / (hostBatches - 1)
	for _, cov := range []float64{0, 0.25, 0.45, 0.9} {
		row := []string{f2(cov)}
		for _, streams := range []int{1, 2, 4, 8} {
			speed, _ := jitteredHostSpeed(base, cov, uint64(r.opts.Seed)+17, 512, streams)
			row = append(row, pct(speed/theoretical))
		}
		t.AddRow(row...)
	}
	t.AddNote("the paper's VMs behave like CoV~0.45: 52.5%% -> 87.3%% from 1 to 8 streams")
	return t
}
