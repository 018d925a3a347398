package bench

import (
	"fmt"

	"texid/internal/sift"
	"texid/internal/texture"
)

// experiment is one entry of the registry: run renders its table on the
// invocation's runner.
type experiment struct {
	id  string
	run func(*runner) *Table
}

// registry lists every reproducible table and figure in output order,
// followed by the ablation/extension experiments.
var registry = []experiment{
	{"table1", (*runner).table1},
	{"table2", (*runner).table2},
	{"table3", (*runner).table3},
	{"table4", (*runner).table4},
	{"table5", (*runner).table5},
	{"table6", (*runner).table6},
	{"table7", (*runner).table7},
	{"fig1", (*runner).fig1},
	{"fig4", (*runner).fig4},
	{"system", (*runner).system},
	{"qbatch", (*runner).queryBatch},
	{"ablate-sort", (*runner).ablateSort},
	{"ablate-swap", (*runner).ablateSwap},
	{"ablate-jitter", (*runner).ablateJitter},
	{"ablate-descriptor", (*runner).ablateDescriptor},
	{"ablate-geometric", (*runner).ablateGeometric},
	{"cbir", (*runner).cbir},
	{"verify-cost", (*runner).verifyCost},
	{"difficulty", (*runner).difficultySweep},
	{"devices", (*runner).deviceProjection},
	{"prune", (*runner).pruneSweep},
}

// Experiments lists every experiment id, in registry order.
var Experiments = func() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}()

// Run executes one experiment by id.
func Run(id string, opts Options) (*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(&runner{opts: opts}), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments)
}

// All runs every experiment on one runner, so the accuracy dataset is
// rendered and extracted once for all of them.
func All(opts Options) []*Table {
	r := &runner{opts: opts}
	tables := make([]*Table, len(registry))
	for i, e := range registry {
		tables[i] = e.run(r)
	}
	return tables
}

// runner is one invocation of the experiments. It renders the synthetic
// dataset opts sizes and SIFT-extracts it at most once, on first use;
// experiments read both and never write to them (trim copies).
type runner struct {
	opts  Options
	ims   *texture.Dataset
	feats *accDataset
}

// images returns the rendered dataset.
func (r *runner) images() *texture.Dataset {
	if r.ims == nil {
		p := texture.DefaultGenParams()
		p.Size = r.opts.ImageSize
		r.ims = texture.BuildDataset(r.opts.Seed, r.opts.Refs, r.opts.Queries, r.opts.Difficulty, p)
	}
	return r.ims
}

// dataset returns every SIFT feature of the rendered dataset's images.
func (r *runner) dataset() *accDataset {
	if r.feats == nil {
		ims := r.images()
		r.feats = &accDataset{refs: extractAll(ims.Refs), queries: extractAll(ims.Queries), truth: ims.Truth}
	}
	return r.feats
}

// extractAll extracts every SIFT feature of each image; experiments trim.
func extractAll(ims []*texture.Image) []*sift.Features {
	cfg := sift.DefaultConfig()
	cfg.MaxFeatures = 0
	return sift.ExtractBatch(ims, cfg)
}
