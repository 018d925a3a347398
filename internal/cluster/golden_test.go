package cluster

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"texid/internal/gpusim"
	"texid/internal/wire"
)

// get fetches one body from the test server.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// TestMetricsAndStatsGolden pins the determinism contract of the scrape
// endpoints: /metrics and /v1/stats emission must not be shaped by map
// iteration order. Two scrapes with no traffic in between are
// byte-identical, and the exposition lists metric families in sorted order.
func TestMetricsAndStatsGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := smallCluster(t, 2)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	api := NewClient(ts.URL)

	for i := 1; i <= 3; i++ {
		rec := &wire.FeatureRecord{ID: int64(i), Precision: gpusim.FP32, Scale: 1,
			Features: unitFeatures(rng, 16, 24)}
		if err := api.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Search(queryFor(rng, unitFeatures(rng, 16, 24), 32), nil); err != nil {
		t.Fatal(err)
	}

	// The scrape itself is an API request, so the request counter moves
	// between scrapes by design; mask its sample line (determinism is
	// about ordering and formatting, not monotone counters doing their
	// job).
	mask := func(body string) string {
		lines := strings.Split(body, "\n")
		for i, l := range lines {
			if strings.HasPrefix(l, "texid_api_requests_total ") {
				lines[i] = "texid_api_requests_total <masked>"
			}
		}
		return strings.Join(lines, "\n")
	}
	m1 := mask(get(t, ts.URL+"/metrics"))
	m2 := mask(get(t, ts.URL+"/metrics"))
	if m1 != m2 {
		t.Fatalf("two /metrics scrapes differ:\n--- first\n%s\n--- second\n%s", m1, m2)
	}

	// Metric families must appear in sorted order: the registry iterates
	// its name maps via collect-then-sort, never raw map order.
	var families []string
	for _, line := range strings.Split(m1, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 3 {
			families = append(families, fields[2])
		}
	}
	if len(families) == 0 {
		t.Fatal("no metric families in /metrics output")
	}
	if !sort.StringsAreSorted(families) {
		t.Fatalf("metric families not sorted: %v", families)
	}

	s1 := get(t, ts.URL+"/v1/stats")
	s2 := get(t, ts.URL+"/v1/stats")
	if s1 != s2 {
		t.Fatalf("two /v1/stats reads differ:\n--- first\n%s\n--- second\n%s", s1, s2)
	}
}

// metricShape reduces one exposition body to its structural identity:
// the ordered list of sample/series names with values stripped. Two
// scrapes with the same shape expose exactly the same key set.
func metricShape(body string) []string {
	var shape []string
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			shape = append(shape, line)
			continue
		}
		// "name value" or `name_bucket{le="..."} value`: keep the key.
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			shape = append(shape, line[:i])
		}
	}
	return shape
}

// TestMetricsStableUnderSoakChurn is the exposition audit for sustained
// load: a mini-soak of interleaved searches, enrollment churn, compaction
// and scrapes must not mint a single new metric key — every op name is
// static, so the /metrics shape after the churn is byte-identical to the
// shape before it, and the MaxMetrics overflow counter never moves. This
// is the golden-stability guard against dynamic label keys growing the
// scrape without bound over an hours-scale soak.
func TestMetricsStableUnderSoakChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	c := smallCluster(t, 3)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	api := NewClient(ts.URL)

	refs := make([]*wire.FeatureRecord, 6)
	for i := range refs {
		refs[i] = &wire.FeatureRecord{ID: int64(i), Precision: gpusim.FP32, Scale: 1,
			Features: unitFeatures(rng, 16, 24)}
		if err := api.Add(refs[i]); err != nil {
			t.Fatal(err)
		}
	}
	query := &wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1,
		Features: queryFor(rng, refs[0].Features, 32)}

	// Warm every serving path once so the first shape snapshot already
	// contains all lazily-registered families.
	if _, err := api.Search(query); err != nil {
		t.Fatal(err)
	}
	if _, err := api.SearchBatch([]*wire.FeatureRecord{query, query}); err != nil {
		t.Fatal(err)
	}
	before := metricShape(get(t, ts.URL+"/metrics"))
	if len(before) == 0 {
		t.Fatal("empty exposition")
	}

	for i := 0; i < 120; i++ {
		switch i % 6 {
		case 2:
			if err := api.Update(int(refs[i%len(refs)].ID), &wire.FeatureRecord{
				ID: refs[i%len(refs)].ID, Precision: gpusim.FP32, Scale: 1,
				Features: unitFeatures(rng, 16, 24)}); err != nil {
				t.Fatal(err)
			}
		case 5:
			if i%30 == 5 {
				if err := api.doJSON(http.MethodPost, "/v1/compact", nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			// Scrape mid-soak: scrapes themselves must not mint keys.
			get(t, ts.URL+"/metrics")
		default:
			if _, err := api.Search(query); err != nil {
				t.Fatal(err)
			}
		}
	}

	after := metricShape(get(t, ts.URL+"/metrics"))
	if len(after) != len(before) {
		t.Fatalf("exposition grew under soak churn: %d keys -> %d keys", len(before), len(after))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("exposition key %d changed under churn: %q -> %q", i, before[i], after[i])
		}
	}
	for _, line := range after {
		if strings.HasPrefix(line, "texid_metrics_dropped_total") {
			body := get(t, ts.URL+"/metrics")
			if !strings.Contains(body, "texid_metrics_dropped_total 0") {
				t.Fatal("static op names tripped the MaxMetrics cap")
			}
		}
	}
}
