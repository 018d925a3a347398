package cluster

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/match"
	"texid/internal/sift"
	"texid/internal/wire"
)

// FuzzRequestBody holds the recognised request forms to encoding/json: for
// any body, on both endpoints' decoders, the in-place path and the forced
// encoding/json path agree on the error text (every decode error is the
// handlers' 400) and on the decoded records. The seed corpus is in
// testdata/fuzz/FuzzRequestBody/.
func FuzzRequestBody(f *testing.F) {
	f.Add([]byte(`{"record_b64":"` + fuzzSeedRecord() + "\"}\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec, err := decodeRecordBody(bytes.Clone(body))
		want, wantErr := decodeRecordJSON(bytes.Clone(body))
		sameRecords(t, "record body", []*wire.FeatureRecord{rec}, err, []*wire.FeatureRecord{want}, wantErr)

		recs, err := decodeBatchBody(bytes.Clone(body))
		wants, wantErr := decodeBatchJSON(bytes.Clone(body))
		sameRecords(t, "batch body", recs, err, wants, wantErr)
	})
}

func sameRecords(t *testing.T, what string, got []*wire.FeatureRecord, err error, want []*wire.FeatureRecord, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, encoding/json path says %v", what, err, wantErr)
	}
	if err != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, encoding/json path decodes %d", what, len(got), len(want))
	}
	for i := range got {
		// Compared as wire bytes: a fuzzed record may hold NaNs.
		if !bytes.Equal(wire.Encode(got[i]), wire.Encode(want[i])) {
			t.Fatalf("%s: record %d differs from the encoding/json path's", what, i)
		}
	}
}

// TestRecognisedBodiesDecodeInPlace pins that the bodies this package's
// Client and json.Encoder write take the in-place path, so the fuzz
// equivalence above is about the path requests actually run.
func TestRecognisedBodiesDecodeInPlace(t *testing.T) {
	encode := func(v any) []byte {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	rec := fuzzSeedRecord()
	for _, body := range [][]byte{
		encode(textureRequest{RecordB64: rec}),
		encode(textureRequest{ID: -12, RecordB64: rec}),
		encode(map[string]string{"record_b64": rec}),
	} {
		if _, _, ok := recogniseRecord(body); !ok {
			t.Errorf("%.40q… is not recognised", body)
		}
	}
	for _, body := range [][]byte{
		encode(batchSearchRequest{RecordsB64: []string{rec, rec}}),
		encode(map[string][]string{"records_b64": {rec}}),
	} {
		if _, ok := recogniseBatch(body); !ok {
			t.Errorf("%.40q… is not recognised", body)
		}
	}
}

// TestSearchResponseEncoding holds appendSearchResponse and appendResults
// byte-equal to json.Encoder over both response shapes, partial on and
// off, ranked lists of 0, 1 and 10, and floats on both sides of
// encoding/json's 'f'/'e' switch and its exponent cleanup.
func TestSearchResponseEncoding(t *testing.T) {
	floats := []float64{0, 1e-7, 123.456, 1e20, 1e21}
	for _, partial := range []bool{false, true} {
		for _, ranked := range []int{0, 1, 10} {
			for i, f := range floats {
				rep := &Report{
					Report: engine.Report{
						BestID: ranked - 1, Score: 3 * ranked, Accepted: ranked > 0, Compared: 40,
						ElapsedUS: f, Speed: floats[len(floats)-1-i],
					},
					Partial: partial, ShardsAnswered: 2, ShardsTotal: 3,
				}
				for k := 0; k < ranked; k++ {
					rep.Ranked = append(rep.Ranked, match.SearchResult{RefID: 100 + k, Score: 50 - k})
				}
				checkEncoding(t, rep)
			}
		}
	}
}

// FuzzSearchResponse is TestSearchResponseEncoding over arbitrary values.
func FuzzSearchResponse(f *testing.F) {
	f.Add(7, 31, true, 40, 1234.5, 3.2e7, false, 3, 3, uint8(10))
	f.Add(-1, 0, false, 0, 1e-7, 0.0, true, 1, 3, uint8(0))
	f.Add(2, 12, true, 5, 1e21, 9.99e-7, false, 2, 2, uint8(1))
	f.Fuzz(func(t *testing.T, best, score int, accepted bool, compared int, elapsed, speed float64, partial bool, answered, total int, ranked uint8) {
		if math.IsInf(elapsed, 0) || math.IsNaN(elapsed) || math.IsInf(speed, 0) || math.IsNaN(speed) {
			t.Skip("encoding/json refuses non-finite floats")
		}
		rep := &Report{
			Report: engine.Report{
				BestID: best, Score: score, Accepted: accepted, Compared: compared,
				ElapsedUS: elapsed, Speed: speed,
			},
			Partial: partial, ShardsAnswered: answered, ShardsTotal: total,
		}
		for k := 0; k < int(ranked%16); k++ {
			rep.Ranked = append(rep.Ranked, match.SearchResult{RefID: best ^ k, Score: score - k})
		}
		checkEncoding(t, rep)
	})
}

// checkEncoding compares both append encoders with json.Encoder for rep:
// as a /v1/search answer carrying all of Ranked, and as a one- and a
// two-result /v1/search/batch answer.
func checkEncoding(t *testing.T, rep *Report) {
	t.Helper()
	encode := func(v any) []byte {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	resp := searchResponse(rep, len(rep.Ranked))
	if len(resp.Ranked) != len(rep.Ranked) {
		t.Fatalf("search response carries %d of %d ranked candidates", len(resp.Ranked), len(rep.Ranked))
	}
	if got, want := append(appendSearchResponse(nil, &resp), '\n'), encode(resp); !bytes.Equal(got, want) {
		t.Fatalf("search response:\n got %s\nwant %s", got, want)
	}
	for _, reps := range [][]*Report{{rep}, {rep, rep}} {
		out := make([]SearchResponse, len(reps))
		for i, r := range reps {
			out[i] = searchResponse(r, 0)
		}
		got, want := append(appendResults(nil, reps), '\n'), encode(map[string][]SearchResponse{"results": out})
		if !bytes.Equal(got, want) {
			t.Fatalf("batch response:\n got %s\nwant %s", got, want)
		}
	}
}

// TestRESTSearchRetainsNothing holds the REST tier's memory contract: a
// warm /v1/search allocates at most 3× the record it carries, and nothing
// sized by a request survives it. Live heap after N requests and one GC —
// one GC is all a sync.Pool victim needs to still be live — must be within
// 64 KiB of live heap before them, taken after two GCs, when no pool holds
// anything. The index is empty, so the engine's own pooled kernel scratch
// stays out of the reading and the REST tier is all that is measured.
func TestRESTSearchRetainsNothing(t *testing.T) {
	cfg := smallEngine()
	cfg.Dim, cfg.RefFeatures, cfg.QueryFeatures = 128, 512, 512
	c, err := New(Config{Workers: 1, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(17))
	q := &wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: unitFeatures(rng, cfg.Dim, cfg.QueryFeatures)}
	for i := 0; i < cfg.QueryFeatures; i++ {
		q.Keypoints = append(q.Keypoints, sift.Keypoint{X: float64(i), Y: 1, Sigma: 2, Angle: 0.5, Response: 0.1})
	}
	record := wire.Encode(q)
	body := []byte(`{"record_b64":"` + base64.StdEncoding.EncodeToString(record) + "\"}\n")

	h := c.Handler()
	search := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("search: %d %s", w.Code, w.Body)
		}
	}
	for i := 0; i < 3; i++ {
		search()
	}
	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	const n = 8
	for i := 0; i < n; i++ {
		search()
	}
	runtime.ReadMemStats(&mid)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(body) // live at both readings, so neither counts it

	perSearch := float64(mid.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f heap bytes per search for a %d-byte record (%.2fx); live heap %d -> %d",
		perSearch, len(record), perSearch/float64(len(record)), before.HeapAlloc, after.HeapAlloc)
	if perSearch > 3*float64(len(record)) {
		t.Errorf("a warm search allocates %.0f bytes, over 3x its %d-byte record", perSearch, len(record))
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Errorf("live heap grew %d bytes over %d searches and a GC: something sized by a request outlived it", grew, n)
	}
}
