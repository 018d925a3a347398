package bench

import (
	"fmt"

	"texid/internal/gpusim"
	"texid/internal/knn"
)

// difficultySweep (extension) maps the pipeline's robustness range: top-1
// accuracy at the production operating point (m=384, n=768, scaled) as the
// capture perturbation strength grows from near-identical re-captures to
// heavily blurred, occluded, re-lit smartphone shots. The paper's dataset
// fixes one difficulty (real tea-brick captures); the synthetic dataset's
// knob lets us chart the whole curve.
func (r *runner) difficultySweep() *Table {
	opts := r.opts
	m := opts.scaled(384)
	n := opts.scaled(768)
	t := &Table{
		ID: "Difficulty",
		Title: fmt.Sprintf("Accuracy vs capture difficulty (extension; m=%d, n=%d, %d refs, %d queries per point)",
			m, n, opts.Refs, opts.Queries),
		Header: []string{"Difficulty", "Top-1 accuracy"},
	}
	cfg := accConfig(knn.RootSIFT, gpusim.FP32, m, n, opts)
	for _, d := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		o := opts
		o.Difficulty = d
		t.AddRow(f2(d), pct(top1Accuracy((&runner{opts: o}).dataset(), cfg, true)))
	}
	t.AddNote("difficulty draws viewpoint (up to ~26 deg + shear), illumination (±35%%), defocus blur " +
		"(sigma up to 2.8 px), sensor noise, and occlusion (up to 28%% of the side)")
	t.AddNote("blur is the dominant failure mode: it erases the fine-scale keypoints pressed-leaf texture lives on")
	return t
}
