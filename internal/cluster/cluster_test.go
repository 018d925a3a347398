package cluster

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/knn"
	"texid/internal/kvstore"
	"texid/internal/sift"
	"texid/internal/wire"
)

// smallEngine returns a tiny functional engine config for cluster tests.
func smallEngine() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.BatchSize = 4
	cfg.Streams = 2
	cfg.Precision = gpusim.FP32
	cfg.Algorithm = knn.RootSIFT
	cfg.RefFeatures = 24
	cfg.QueryFeatures = 32
	cfg.Dim = 16
	cfg.HostCacheBytes = 1 << 30
	cfg.Match.MinMatches = 10
	return cfg
}

func smallCluster(t *testing.T, workers int) *Cluster {
	t.Helper()
	c, err := New(Config{Workers: workers, Engine: smallEngine()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func unitFeatures(rng *rand.Rand, d, n int) *blas.Matrix {
	m := blas.NewMatrix(d, n)
	for j := 0; j < n; j++ {
		col := m.Col(j)
		var s float64
		for i := range col {
			col[i] = rng.Float32()
			s += float64(col[i]) * float64(col[i])
		}
		f := float32(1 / math.Sqrt(s))
		for i := range col {
			col[i] *= f
		}
	}
	return m
}

func queryFor(rng *rand.Rand, ref *blas.Matrix, n int) *blas.Matrix {
	q := blas.NewMatrix(ref.Rows, n)
	for j := 0; j < n; j++ {
		if j < ref.Cols {
			copy(q.Col(j), ref.Col(j))
			col := q.Col(j)
			var s float64
			for i := range col {
				col[i] += (rng.Float32()*2 - 1) * 0.02
				if col[i] < 0 {
					col[i] = 0
				}
				s += float64(col[i]) * float64(col[i])
			}
			f := float32(1 / math.Sqrt(s))
			for i := range col {
				col[i] *= f
			}
		} else {
			copy(q.Col(j), unitFeatures(rng, ref.Rows, 1).Col(0))
		}
	}
	return q
}

func TestClusterShardsRoundRobin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := smallCluster(t, 3)
	for i := 0; i < 9; i++ {
		if err := c.Add(i, unitFeatures(rng, 16, 24), nil); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.References != 9 {
		t.Fatalf("references = %d", s.References)
	}
	for i, ws := range s.PerWorker {
		if ws.References != 3 {
			t.Fatalf("worker %d holds %d refs, want 3", i, ws.References)
		}
	}
}

func TestClusterSearchFindsAcrossShards(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := smallCluster(t, 3)
	refs := make([]*blas.Matrix, 12)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		c.Add(i, refs[i], nil)
	}
	// Query for a texture on each shard.
	for _, target := range []int{0, 1, 2, 7, 11} {
		rep, err := c.Search(queryFor(rng, refs[target], 32), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.BestID != target || !rep.Accepted {
			t.Fatalf("target %d: got best %d (score %d, accepted %v)", target, rep.BestID, rep.Score, rep.Accepted)
		}
		if rep.Compared != 12 {
			t.Fatalf("compared %d, want 12", rep.Compared)
		}
	}

	// One shard and at most maxRanked references: the merged report is the
	// engine's report, field for field, next to an identically enrolled
	// engine.
	one := smallCluster(t, 1)
	eng, err := engine.New(smallEngine())
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		if err := one.Add(i, ref, nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.Add(i, ref, nil); err != nil {
			t.Fatal(err)
		}
	}
	q := queryFor(rng, refs[7], 32)
	got, err := one.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Report, *want) {
		t.Fatalf("one-shard merged report differs from the engine's:\n got %+v\nwant %+v", got.Report, *want)
	}

	// Pruned shards: the merged Scanned is the sum of the shards'.
	cfg := smallEngine()
	cfg.PruneC = 4
	pruned, err := New(Config{Workers: 2, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		if err := pruned.Add(i, ref, nil); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := pruned.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != len(refs) || rep.Compared != 2*cfg.PruneC {
		t.Fatalf("pruned merge: scanned %d compared %d, want %d and %d", rep.Scanned, rep.Compared, len(refs), 2*cfg.PruneC)
	}
}

func TestClusterRemoveAndUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := smallCluster(t, 2)
	ref := unitFeatures(rng, 16, 24)
	c.Add(5, ref, nil)
	if ok, err := c.Remove(5); !ok || err != nil {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
	if ok, err := c.Remove(5); ok || err != nil {
		t.Fatalf("double remove = %v, %v; want false", ok, err)
	}
	// Update on a missing id enrolls it.
	newRef := unitFeatures(rng, 16, 24)
	if err := c.Update(5, newRef, nil); err != nil {
		t.Fatal(err)
	}
	rep, _ := c.Search(queryFor(rng, newRef, 32), nil)
	if rep.BestID != 5 || !rep.Accepted {
		t.Fatalf("updated texture not found: %+v", rep)
	}
}

func TestClusterDuplicateAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := smallCluster(t, 2)
	f := unitFeatures(rng, 16, 24)
	if err := c.Add(1, f, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(1, f, nil); err == nil {
		t.Fatal("duplicate add accepted")
	}
}

func TestClusterPhantomAggregateSpeed(t *testing.T) {
	// Sec. 8 shape: N workers in parallel deliver ~N× the single-GPU
	// throughput.
	cfg := Config{Workers: 4, Engine: engine.DefaultConfig()}
	cfg.Engine.BatchSize = 1024
	cfg.Engine.Streams = 1
	cfg.Engine.RefFeatures = 768
	cfg.Engine.QueryFeatures = 768
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddPhantom(4 * 4096); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Search(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compared != 4*4096 {
		t.Fatalf("compared %d", rep.Compared)
	}
	// Single-GPU batched resident speed is ~45k; 4 workers ≈ 180k.
	if rep.Speed < 120_000 || rep.Speed > 260_000 {
		t.Fatalf("aggregate speed %.0f img/s, want ~180k", rep.Speed)
	}
	t.Logf("4-worker aggregate speed: %.0f img/s", rep.Speed)
}

func TestKVStorePersistenceAndReload(t *testing.T) {
	srv, err := kvstore.Serve(kvstore.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rng := rand.New(rand.NewSource(5))
	cfg := Config{Workers: 2, Engine: smallEngine(), StoreAddr: srv.Addr()}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*blas.Matrix, 40)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		if err := c.Add(i, refs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Remove(3)
	c.Close()

	// A fresh cluster restores from the store — the same cluster every
	// time: ids land on the same shards in the same order, so a restart
	// answers a query with the same bytes as the restart before it.
	query := queryFor(rng, refs[1], 32)
	var shards []map[int]int
	var answers [][]byte
	for restart := 0; restart < 2; restart++ {
		c2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		n, err := c2.LoadFromStore()
		if err != nil {
			t.Fatal(err)
		}
		if n != 39 {
			t.Fatalf("restored %d records, want 39 (one was deleted)", n)
		}
		rep, err := c2.Search(query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.BestID != 1 || !rep.Accepted {
			t.Fatalf("restored texture not found: %+v", rep)
		}
		shards = append(shards, c2.shards)
		answers = append(answers, rep.AppendDigest(nil))
	}
	if !reflect.DeepEqual(shards[0], shards[1]) {
		t.Errorf("two restarts from one store placed ids differently:\n%v\n%v", shards[0], shards[1])
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Error("two restarts from one store answered the same query with different bytes")
	}
}

// TestUpdateStoreFailureKeepsOldFeatures pins store-then-apply: when the
// kvstore write fails, Update returns the error and the shard keeps serving
// the old features, so engine and store never diverge.
func TestUpdateStoreFailureKeepsOldFeatures(t *testing.T) {
	srv, err := kvstore.Serve(kvstore.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	c, err := New(Config{Workers: 2, Engine: smallEngine(), StoreAddr: srv.Addr()})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer c.Close()
	oldRef := unitFeatures(rng, 16, 24)
	if err := c.Add(4, oldRef, nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	if err := c.Update(4, unitFeatures(rng, 16, 24), nil); err == nil {
		t.Fatal("Update succeeded with the kvstore down")
	}
	rep, err := c.Search(queryFor(rng, oldRef, 32), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestID != 4 || !rep.Accepted {
		t.Fatalf("old features no longer ranked after a failed Update: %+v", rep)
	}
}

// TestAddStoreFailureEnrollsNothing pins store-then-apply for Add: when the
// kvstore write fails, Add returns the error with the id on no shard and
// not in the shard map, so a retry is not a duplicate and no shard serves a
// record the store does not hold.
func TestAddStoreFailureEnrollsNothing(t *testing.T) {
	srv, err := kvstore.Serve(kvstore.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	c, err := New(Config{Workers: 2, Engine: smallEngine(), StoreAddr: srv.Addr()})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()

	if err := c.Add(4, unitFeatures(rng, 16, 24), nil); err == nil {
		t.Fatal("Add succeeded with the kvstore down")
	}
	if got := c.Stats().References; got != 0 {
		t.Fatalf("%d references enrolled after a failed Add, want 0", got)
	}
	c.mu.Lock()
	_, mapped := c.shards[4]
	c.mu.Unlock()
	if mapped {
		t.Fatal("failed Add left id 4 in the shard map")
	}
}

func TestRESTAPIEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := smallCluster(t, 2)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	api := NewClient(ts.URL)

	if err := api.Health(); err != nil {
		t.Fatal(err)
	}

	refs := make([]*blas.Matrix, 4)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		rec := &wire.FeatureRecord{ID: int64(i + 1), Precision: gpusim.FP32, Scale: 1, Features: refs[i]}
		if err := api.Add(rec); err != nil {
			t.Fatal(err)
		}
	}

	st, err := api.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.References != 4 {
		t.Fatalf("stats = %+v", st)
	}

	// Search via REST.
	q := &wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: queryFor(rng, refs[2], 32)}
	res, err := api.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestID != 3 || !res.Accepted {
		t.Fatalf("REST search = %+v", res)
	}
	if res.Compared != 4 || res.Speed <= 0 {
		t.Fatalf("REST search missing metrics: %+v", res)
	}

	// Update then delete.
	if err := api.Update(3, &wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: unitFeatures(rng, 16, 24)}); err != nil {
		t.Fatal(err)
	}
	if err := api.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := api.Delete(3); err == nil {
		t.Fatal("double delete should 404")
	}
	st, _ = api.Stats()
	if st.References != 3 {
		t.Fatalf("references after delete = %d", st.References)
	}
}

// TestRESTKeypointlessRecordScores: a query record without keypoints
// decodes to an empty keypoint slice and scores by the ratio test, exactly
// as the same record carrying keypoints does: keypoints only ever feed
// geometric verification.
func TestRESTKeypointlessRecordScores(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := smallCluster(t, 2)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	api := NewClient(ts.URL)

	refs := make([]*blas.Matrix, 4)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		if err := api.Add(&wire.FeatureRecord{ID: int64(i + 1), Precision: gpusim.FP32, Scale: 1, Features: refs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	q := queryFor(rng, refs[2], 32)
	kps := make([]sift.Keypoint, q.Cols)
	for i := range kps {
		kps[i] = sift.Keypoint{X: 16 + 7*float64(i), Y: 240 - 7*float64(i), Sigma: 2, Response: 0.1}
	}
	with, err := api.Search(&wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: q, Keypoints: kps})
	if err != nil {
		t.Fatal(err)
	}
	without, err := api.Search(&wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: q})
	if err != nil {
		t.Fatal(err)
	}
	if with.BestID != 3 || !with.Accepted {
		t.Fatalf("search with keypoints = %+v, want reference 3 accepted", with)
	}
	if without.BestID != with.BestID || without.Score != with.Score {
		t.Fatalf("without keypoints best_id %d score %d; with them best_id %d score %d",
			without.BestID, without.Score, with.BestID, with.Score)
	}
}

func TestRESTRejectsBadInput(t *testing.T) {
	srv, err := kvstore.Serve(kvstore.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := New(Config{Workers: 1, Engine: smallEngine(), StoreAddr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	api := NewClient(ts.URL)

	rng := rand.New(rand.NewSource(9))
	record := func(cols int) string {
		rec := &wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: unitFeatures(rng, 16, cols)}
		return base64.StdEncoding.EncodeToString(wire.Encode(rec))
	}
	good, misshaped := record(24), record(12)
	if err := api.doJSON("POST", "/v1/textures", textureRequest{ID: 7, RecordB64: good}, nil); err != nil {
		t.Fatal(err)
	}

	type badInput struct {
		what, method, path string
		body               any
		status             int
	}
	// send posts a []byte body as is and any other through doJSON; its error
	// text carries the status.
	send := func(in badInput) error {
		raw, ok := in.body.([]byte)
		if !ok {
			return api.doJSON(in.method, in.path, in.body, nil)
		}
		req, err := http.NewRequest(in.method, ts.URL+in.path, bytes.NewReader(raw))
		if err != nil {
			return err
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		return fmt.Errorf("answered: %d ", resp.StatusCode)
	}
	rejects := func(inputs []badInput) {
		t.Helper()
		for _, in := range inputs {
			err := send(in)
			if want := fmt.Sprintf(": %d ", in.status); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: got %v, want status %d", in.what, err, in.status)
			}
		}
	}
	rejects([]badInput{
		{"garbage base64", "POST", "/v1/textures", textureRequest{ID: 1, RecordB64: "!!!"}, 400},
		{"valid base64, garbage bytes", "POST", "/v1/search", textureRequest{RecordB64: "AAAA"}, 400},
		{"missing record", "POST", "/v1/search", textureRequest{}, 400},
		{"bad id in path", "DELETE", "/v1/textures/notanumber", nil, 400},
		{"duplicate id", "POST", "/v1/textures", textureRequest{ID: 7, RecordB64: good}, 409},
		{"mis-shaped add", "POST", "/v1/textures", textureRequest{ID: 8, RecordB64: misshaped}, 400},
		{"mis-shaped update", "PUT", "/v1/textures/7", textureRequest{RecordB64: misshaped}, 400},
	})
	// Bodies are bounded by the engine shape: one byte of JSON value past
	// the limit is a 413 on every endpoint that reads a body, and a body
	// exactly at the limit is still served. The limit bounds the whole body:
	// a JSON value that ends inside it, followed by whitespace past it, is a
	// 413 too.
	query := record(32)
	sized := func(body any, n int64) json.RawMessage {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		pad := int(n) - len(raw) - len(`,"pad":""`) - len("\n") // doJSON ends the body with a newline
		return json.RawMessage(fmt.Sprintf(`%s,"pad":%q}`, raw[:len(raw)-1], strings.Repeat("x", pad)))
	}
	trailing := func(body any, n int64) []byte {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		return append(raw, strings.Repeat("\n", int(n)-len(raw))...)
	}
	one, many := c.bodyLimit(1), c.bodyLimit(maxBatchRecords)
	batch := batchSearchRequest{RecordsB64: []string{query, query}}
	tooMany := batchSearchRequest{RecordsB64: make([]string, maxBatchRecords+1)}
	for i := range tooMany.RecordsB64 {
		tooMany.RecordsB64[i] = query
	}
	rejects([]badInput{
		{"one record too many in a batch, body under the limit", "POST", "/v1/search/batch", tooMany, 400},
		{"oversized add", "POST", "/v1/textures", sized(textureRequest{ID: 9, RecordB64: good}, one+2), 413},
		{"oversized update", "PUT", "/v1/textures/7", sized(textureRequest{RecordB64: good}, one+2), 413},
		{"oversized search", "POST", "/v1/search", sized(textureRequest{RecordB64: query}, one+2), 413},
		{"oversized batch search", "POST", "/v1/search/batch", sized(batch, many+2), 413},
		{"search value inside the limit, whitespace past it", "POST", "/v1/search", trailing(textureRequest{RecordB64: query}, one+1), 413},
		{"batch value inside the limit, whitespace past it", "POST", "/v1/search/batch", trailing(batch, many+1), 413},
	})
	for path, body := range map[string]json.RawMessage{
		"/v1/search":       sized(textureRequest{RecordB64: query}, one),
		"/v1/search/batch": sized(batch, many),
	} {
		if err := api.doJSON("POST", path, body, nil); err != nil {
			t.Errorf("%s with a body at the limit: %v", path, err)
		}
	}
	// Content-Length is a claim until the bytes arrive: a batch body that
	// claims the whole limit and breaks off after a few bytes is a 400 and
	// commits about one record's limit, not the claim.
	handler := c.Handler()
	hostile := httptest.NewRequest("POST", "/v1/search/batch",
		io.MultiReader(strings.NewReader(`{"records_b64":["`), iotest.ErrReader(io.ErrUnexpectedEOF)))
	hostile.ContentLength = many
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	handler.ServeHTTP(rec, hostile)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("batch body claiming %d bytes, 17 sent: status %d, want 400", many, rec.Code)
	}
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(max(4*one, 64<<10)); grew > bound {
		t.Errorf("batch body claiming %d bytes, 17 sent: the handler allocated %d bytes, want <= %d", many, grew, bound)
	}
	// With the kvstore down, a well-formed write fails on the server's side.
	srv.Close()
	rejects([]badInput{
		{"add with the store down", "POST", "/v1/textures", textureRequest{ID: 8, RecordB64: good}, 500},
		{"update with the store down", "PUT", "/v1/textures/7", textureRequest{RecordB64: good}, 500},
	})
	if got := c.Stats().References; got != 1 {
		t.Fatalf("%d references after sixteen rejected requests, want the 1 enrolled", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: 0, Engine: smallEngine()}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := New(Config{Workers: 1, Engine: smallEngine(), StoreAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable store accepted")
	}
}

func TestClusterSearchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	c := smallCluster(t, 3)
	refs := make([]*blas.Matrix, 9)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		c.Add(i, refs[i], nil)
	}
	queries := []*blas.Matrix{
		queryFor(rng, refs[1], 32),
		queryFor(rng, refs[8], 32),
		unitFeatures(rng, 16, 32),
	}
	reps, err := c.SearchBatch(queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("got %d reports", len(reps))
	}
	if reps[0].BestID != 1 || !reps[0].Accepted {
		t.Fatalf("query 0: %+v", reps[0])
	}
	if reps[1].BestID != 8 || !reps[1].Accepted {
		t.Fatalf("query 1: %+v", reps[1])
	}
	if reps[2].Accepted {
		t.Fatalf("foreign query accepted: %+v", reps[2])
	}
	for _, rep := range reps {
		if rep.Compared != 9 {
			t.Fatalf("compared %d, want 9", rep.Compared)
		}
	}
}

func TestClusterCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	c := smallCluster(t, 2)
	refs := make([]*blas.Matrix, 8)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		c.Add(i, refs[i], nil)
	}
	c.Remove(2)
	c.Remove(5)
	n, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("reclaimed %d, want 2", n)
	}
	rep, _ := c.Search(queryFor(rng, refs[7], 32), nil)
	if rep.BestID != 7 || !rep.Accepted {
		t.Fatalf("reference lost after cluster compact: %+v", rep)
	}
}

func TestRESTBatchSearchAndCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	c := smallCluster(t, 2)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	api := NewClient(ts.URL)

	refs := make([]*blas.Matrix, 12)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		api.Add(&wire.FeatureRecord{ID: int64(i + 1), Precision: gpusim.FP32, Scale: 1, Features: refs[i]})
	}

	recs := []*wire.FeatureRecord{
		{Precision: gpusim.FP32, Scale: 1, Features: queryFor(rng, refs[0], 32)},
		{Precision: gpusim.FP32, Scale: 1, Features: queryFor(rng, refs[3], 32)},
	}
	results, err := api.SearchBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].BestID != 1 || results[1].BestID != 4 {
		t.Fatalf("batch REST results: %+v", results)
	}
	// A batch result carries no ranked list; /v1/search carries the top 10.
	one, err := api.Search(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Ranked) != 0 || len(one.Ranked) != 10 || one.Ranked[0].RefID != 1 {
		t.Fatalf("ranked lists: batch %d entries, single %d entries %+v; want 0 and 10 led by 1",
			len(results[0].Ranked), len(one.Ranked), one.Ranked)
	}

	api.Delete(2)
	var compacted struct {
		Reclaimed int `json:"reclaimed"`
	}
	if err := api.doJSON(http.MethodPost, "/v1/compact", nil, &compacted); err != nil {
		t.Fatal(err)
	}
	if compacted.Reclaimed != 1 {
		t.Fatalf("REST compact reclaimed %d", compacted.Reclaimed)
	}

	// Oversized batch rejected.
	if _, err := api.SearchBatch(make([]*wire.FeatureRecord, 0)); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	c := smallCluster(t, 2)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	api := NewClient(ts.URL)

	ref := unitFeatures(rng, 16, 24)
	api.Add(&wire.FeatureRecord{ID: 1, Precision: gpusim.FP32, Scale: 1, Features: ref})
	api.Search(&wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: queryFor(rng, ref, 32)})
	// Provoke one API error.
	api.Delete(999)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"texid_searches_total 1",
		"texid_api_errors_total 1",
		"texid_references 1",
		"texid_workers 2",
		"texid_search_sim_latency_ms_count 1",
		"texid_comparisons_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}
