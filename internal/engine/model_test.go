package engine

import (
	"math/rand"
	"testing"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/sift"
)

// indexModel is the whole specification of the index: the current version
// of every enrolled id, the order the ids were first enrolled in (an
// Update keeps an id's place; a Remove and re-Add moves it to the end), and
// how many removed slots a Compact would reclaim.
type indexModel struct {
	query map[int]*blas.Matrix // id -> a query only that id's current version answers
	order []int                // ids, by first enrollment since their last Remove
	dead  int
}

func (m *indexModel) drop(id int) {
	delete(m.query, id)
	for i, v := range m.order {
		if v == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			m.dead++
			return
		}
	}
}

// TestIndexMatchesMapModel drives one engine through a seeded, single-
// goroutine history of every mutation and checks it after every step
// against a plain map. Search, Export and Compact all seal the pending
// references first, so the steps that must act on a still-pending id
// (Update, Remove) or straddle a batch boundary are composite: they flush,
// enroll, then mutate before anything looks.
func TestIndexMatchesMapModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fp32", testConfig()},
		{"fp16", fp16TestConfig()},
		{"pruned", prunedConfig(1 << 12)}, // PruneC above every slot count the history reaches
	} {
		t.Run(tc.name, func(t *testing.T) { runIndexModel(t, tc.cfg) })
	}
}

func runIndexModel(t *testing.T, cfg Config) {
	const steps, maxLive = 60, 10
	rng := rand.New(rand.NewSource(19))
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := &indexModel{query: map[int]*blas.Matrix{}}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// enroll installs a fresh version of id through Add or Update.
	enroll := func(id int, update bool) {
		t.Helper()
		feats := unitFeatures(rng, cfg.Dim, cfg.RefFeatures)
		if update {
			must(e.Update(id, feats, nil))
		} else {
			must(e.Add(id, feats, nil))
		}
		if _, known := model.query[id]; !known {
			model.order = append(model.order, id)
		}
		model.query[id] = queryFor(rng, feats, cfg.QueryFeatures, 0.02)
	}
	remove := func(id int) {
		t.Helper()
		_, known := model.query[id]
		if got := e.Remove(id); got != known {
			t.Fatalf("Remove(%d) = %v, model says %v", id, got, known)
		}
		model.drop(id)
	}
	nextID := 0
	fresh := func() int { nextID++; return nextID }
	someLive := func() int { return model.order[rng.Intn(len(model.order))] }

	var ran [9]int // steps per op, the last entry counting Compacts that reclaimed something
	for step := 0; step < steps; step++ {
		op := rng.Intn(10)
		if len(model.order) == 0 {
			op = 0
		} else if len(model.order) >= maxLive {
			op = 5
		}
		compacted := false
		if op < 8 {
			ran[op]++
		}
		switch op {
		case 0: // a run of Adds that straddles a batch boundary
			for n := 1 + rng.Intn(cfg.BatchSize+2); n > 0; n-- {
				enroll(fresh(), false)
			}
		case 1: // Update of a sealed id
			enroll(someLive(), true)
		case 2: // Update of an id still pending
			must(e.Flush())
			id := fresh()
			enroll(id, false)
			enroll(id, true)
		case 3: // Remove of an id still pending; its slot seals dead
			must(e.Flush())
			id := fresh()
			enroll(id, false)
			remove(id)
		case 4: // Remove, then re-Add the same id
			id := someLive()
			remove(id)
			enroll(id, false)
		case 5:
			remove(someLive())
		case 6: // unknown ids: Remove reports false, Update enrolls
			remove(fresh())
			enroll(fresh(), true)
		case 7:
			must(e.Flush())
		default:
			reclaimed, err := e.Compact()
			must(err)
			if reclaimed != model.dead {
				t.Fatalf("step %d: Compact reclaimed %d slots, model has %d dead", step, reclaimed, model.dead)
			}
			if compacted = reclaimed > 0; compacted {
				ran[8]++
			}
			model.dead = 0
		}

		live := len(model.order)
		if st := e.Stats(); st.References != live {
			t.Fatalf("step %d (op %d): Stats().References = %d, model holds %d", step, op, st.References, live)
		}
		var exported []int
		must(e.Export(func(id int, _ *blas.Matrix, _ []sift.Keypoint, _ []binq.Code) error {
			exported = append(exported, id)
			return nil
		}))
		if len(exported) != live {
			t.Fatalf("step %d (op %d): Export visited %v, model order %v", step, op, exported, model.order)
		}
		for i, id := range exported {
			if id != model.order[i] {
				t.Fatalf("step %d (op %d): Export visited %v, model order %v", step, op, exported, model.order)
			}
		}
		if want := (live + cfg.BatchSize - 1) / cfg.BatchSize; compacted && e.Stats().Batches != want {
			t.Fatalf("step %d: %d batches after Compact, want %d for %d live", step, e.Stats().Batches, want, live)
		}
		for _, id := range model.order {
			rep, err := e.Search(model.query[id], nil)
			must(err)
			if rep.BestID != id || !rep.Accepted {
				t.Fatalf("step %d (op %d): query for %d answered %d (score %d, accepted %v)",
					step, op, id, rep.BestID, rep.Score, rep.Accepted)
			}
			seen := map[int]bool{}
			for _, r := range rep.Ranked {
				if _, ok := model.query[r.RefID]; !ok || seen[r.RefID] {
					t.Fatalf("step %d (op %d): ranking %v names %d, unknown to the model or twice", step, op, rep.Ranked, r.RefID)
				}
				seen[r.RefID] = true
			}
			if len(seen) != live {
				t.Fatalf("step %d (op %d): ranking holds %d ids, model %d", step, op, len(seen), live)
			}
		}
	}
	for op, n := range ran {
		if n == 0 {
			t.Fatalf("the seeded history never ran op %d: %v", op, ran)
		}
	}
}

// TestChurnMatchesFreshIndex is the answer contract of a churned index:
// after every step of a seeded Add/Update/Remove/Compact history, every
// search answers exactly — Ranked, BestID, Score, Accepted — as a fresh
// engine that Adds the live set in first-enrollment order (with the churned
// engine's thresholds, when pruned). An Update of a known id neither seals a
// batch nor adds a pending entry: it rewrites its slot or entry in place.
func TestChurnMatchesFreshIndex(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fp32", testConfig()},
		{"fp16", fp16TestConfig()},
		{"pruned3", prunedConfig(3)},
		{"pruned4096", prunedConfig(1 << 12)},
	} {
		t.Run(tc.name, func(t *testing.T) { runChurnOracle(t, tc.cfg) })
	}
}

func runChurnOracle(t *testing.T, cfg Config) {
	const steps, maxLive = 40, 12
	rng := rand.New(rand.NewSource(23))
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	feats := map[int]*blas.Matrix{} // id -> current version
	var order []int                 // live ids, by first enrollment since their last Remove
	add := func(id int) {
		f := unitFeatures(rng, cfg.Dim, cfg.RefFeatures)
		must(e.Add(id, f, nil))
		feats[id] = f
		order = append(order, id)
	}
	// layout is what an Update of a known id must leave alone: the batch
	// count, and the pending entries the next search would seal.
	layout := func() [2]int {
		batches := e.Stats().Batches
		e.mu.RLock()
		defer e.mu.RUnlock()
		return [2]int{batches, len(e.pending)}
	}
	update := func(id int) {
		t.Helper()
		f := unitFeatures(rng, cfg.Dim, cfg.RefFeatures)
		before := layout()
		must(e.Update(id, f, nil))
		if after := layout(); after != before {
			t.Fatalf("Update(%d) moved {batches, pending} %v -> %v", id, before, after)
		}
		feats[id] = f
	}
	remove := func(id int) {
		e.Remove(id)
		delete(feats, id)
		for i, v := range order {
			if v == id {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
	}
	nextID := 0
	fresh := func() int { nextID++; return nextID }
	someLive := func() int { return order[rng.Intn(len(order))] }

	var ran [6]int
	for step := 0; step < steps; step++ {
		op := rng.Intn(6)
		if len(order) == 0 {
			op = 0
		} else if len(order) >= maxLive {
			op = 3
		}
		ran[op]++
		switch op {
		case 0: // a run of Adds that straddles a batch boundary
			for n := 1 + rng.Intn(cfg.BatchSize+2); n > 0; n-- {
				add(fresh())
			}
		case 1: // Update of a sealed (or, after a run of Adds, pending) id
			must(e.Flush())
			update(someLive())
		case 2: // Update of an id still pending
			must(e.Flush())
			id := fresh()
			add(id)
			update(id)
		case 3:
			remove(someLive())
		case 4: // Remove, then re-Add the same id: it moves to the end
			id := someLive()
			remove(id)
			add(id)
		default:
			_, err := e.Compact()
			must(err)
		}

		queries := make([]*blas.Matrix, 0, len(order)+1)
		for _, id := range order {
			queries = append(queries, queryFor(rng, feats[id], cfg.QueryFeatures, 0.02))
		}
		queries = append(queries, unitFeatures(rng, cfg.Dim, cfg.QueryFeatures)) // matches nothing
		got := make([]*Report, len(queries))
		for i, q := range queries {
			got[i], err = e.Search(q, nil)
			must(err)
		}
		oracle, err := New(cfg)
		must(err)
		if cfg.PruneC > 0 && len(order) > 0 {
			must(oracle.SetThresholds(e.Thresholds()))
		}
		for _, id := range order {
			must(oracle.Add(id, feats[id], nil))
		}
		for i, q := range queries {
			want, err := oracle.Search(q, nil)
			must(err)
			g := got[i]
			if g.BestID != want.BestID || g.Score != want.Score || g.Accepted != want.Accepted || !sameRanked(g.Ranked, want.Ranked) {
				t.Fatalf("step %d (op %d), query %d: churned index answered %d/%d/%v %v, fresh index %d/%d/%v %v",
					step, op, i, g.BestID, g.Score, g.Accepted, g.Ranked, want.BestID, want.Score, want.Accepted, want.Ranked)
			}
		}
	}
	for op, n := range ran {
		if n == 0 {
			t.Fatalf("the seeded history never ran op %d: %v", op, ran)
		}
	}
}
