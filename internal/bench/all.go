package bench

import "fmt"

// experiment is one entry of the registry: run runs it alone; shared, when
// set, runs it on a prebuilt accuracy dataset, which All builds once.
type experiment struct {
	id     string
	run    func(Options) *Table
	shared func(*accDataset, Options) *Table
}

// registry lists every reproducible table and figure in output order,
// followed by the ablation/extension experiments.
var registry = []experiment{
	{id: "table1", run: Table1},
	{id: "table2", run: Table2, shared: table2WithDataset},
	{id: "table3", run: Table3},
	{id: "table4", run: Table4},
	{id: "table5", run: Table5},
	{id: "table6", run: Table6},
	{id: "table7", run: Table7, shared: table7WithDataset},
	{id: "fig1", run: Fig1},
	{id: "fig4", run: Fig4},
	{id: "system", run: System},
	{id: "qbatch", run: QueryBatch},
	{id: "ablate-sort", run: AblateSort},
	{id: "ablate-swap", run: AblateSwap},
	{id: "ablate-jitter", run: AblateJitter},
	{id: "ablate-descriptor", run: AblateDescriptor},
	{id: "ablate-geometric", run: AblateGeometric, shared: geometricWithDataset},
	{id: "cbir", run: CBIR, shared: cbirWithDataset},
	{id: "verify-cost", run: VerifyCost},
	{id: "difficulty", run: DifficultySweep},
	{id: "devices", run: DeviceProjection},
	{id: "prune", run: PruneSweep, shared: pruneWithDataset},
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
			return e.run(opts), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments)
}

// All runs every experiment. The accuracy dataset is built once and shared
// between the experiments that take one.
func All(opts Options) []*Table {
	ds := buildAccDataset(opts)
	tables := make([]*Table, len(registry))
	for i, e := range registry {
		if e.shared != nil {
			tables[i] = e.shared(ds, opts)
		} else {
			tables[i] = e.run(opts)
		}
	}
	return tables
}
