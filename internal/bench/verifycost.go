package bench

import (
	"fmt"

	"texid/internal/sift"
)

// verifyCost reproduces the Sec. 3.3 analysis as numbers: "by considering
// the verification task, the feature extraction step dominates the compute
// demands ... however, [for] the identification task of searching in a
// large reference dataset, the 2-nearest neighbors matching becomes the
// most complicated step". Extraction work is constant per query; matching
// work scales with the reference count M.
func (r *runner) verifyCost() *Table {
	t := &Table{
		ID:     "Verify-cost",
		Title:  "Extraction vs matching work per query (1024px capture, m=n=768, d=128)",
		Header: []string{"Task", "References M", "Extraction GFLOPs", "Matching GFLOPs", "Matching share"},
	}
	ext := sift.EstimateCost(1024, 768).Total() / 1e9
	for _, M := range []int{1, 100, 10_000, 1_000_000, 10_800_000} {
		matchF := sift.Match2NNFLOPs(M, 768, 768, 128) / 1e9
		task := "search"
		if M == 1 {
			task = "verification"
		}
		t.AddRow(task, fmt.Sprintf("%d", M), f2(ext), f2(matchF), pct(matchF/(matchF+ext)))
	}
	t.AddNote("the paper: 'each matching requires 75 million multiply-add operations. If we search in a " +
		"million texture images, we need to handle 75 trillion operations'")
	t.AddNote("crossover sits at M ≈ %.0f references: below it (verification) extraction dominates, "+
		"above it (search) matching does — why the paper accelerates matching, not extraction",
		ext*1e9/sift.Match2NNFLOPs(1, 768, 768, 128))
	return t
}
