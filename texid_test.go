package texid

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"texid/internal/gpusim"
	"texid/internal/match"
	"texid/internal/texture"
	"texid/internal/wire"
)

// smallConfig shrinks the default configuration so end-to-end tests run in
// seconds on a single CPU: 128-px images, quarter-scale feature budgets,
// FP32 arithmetic (the FP16 path is covered by internal tests).
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Engine.Precision = gpusim.FP32
	cfg.Engine.BatchSize = 4
	cfg.Engine.Streams = 2
	cfg.Engine.RefFeatures = 96
	cfg.Engine.QueryFeatures = 192
	cfg.Engine.Match.MinMatches = 12
	cfg.Extractor.MaxOctaves = 4
	return cfg
}

// smallTexture renders a 128-px reference.
func smallTexture(seed int64) *Image {
	p := defaultSmallParams()
	return generateWith(seed, p)
}

func TestEndToEndIdentification(t *testing.T) {
	sys, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	const refs = 6
	images := make([]*Image, refs)
	for i := range images {
		images[i] = smallTexture(int64(i + 1))
		if err := sys.EnrollImage(100+i, images[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A moderately perturbed re-capture of reference 3 must identify.
	q := CaptureQuery(images[3], 7, 0.3)
	res, err := sys.SearchImage(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 103 || !res.Accepted {
		t.Fatalf("search = %+v, want id 103 accepted", res)
	}
	if res.Compared != refs || res.Speed <= 0 {
		t.Fatalf("metrics wrong: %+v", res)
	}
	// An unrelated texture must be rejected.
	res, err = sys.SearchImage(smallTexture(999))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatalf("foreign texture accepted: %+v", res)
	}
}

func TestVerifyImages(t *testing.T) {
	sys, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := smallTexture(11)
	same, score, err := sys.VerifyImages(a, CaptureQuery(a, 3, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("same texture not verified (score %d)", score)
	}
	diff, score, err := sys.VerifyImages(a, smallTexture(12))
	if err != nil {
		t.Fatal(err)
	}
	if diff {
		t.Fatalf("different textures verified as same (score %d)", score)
	}
}

func TestRemoveAndUpdate(t *testing.T) {
	sys, _ := Open(smallConfig())
	im := smallTexture(21)
	if err := sys.EnrollImage(1, im); err != nil {
		t.Fatal(err)
	}
	if !sys.Remove(1) {
		t.Fatal("Remove failed")
	}
	res, _ := sys.SearchImage(CaptureQuery(im, 1, 0.2))
	if res.Accepted {
		t.Fatal("removed reference still found")
	}
	im2 := smallTexture(22)
	if err := sys.Update(1, im2); err != nil {
		t.Fatal(err)
	}
	res, _ = sys.SearchImage(CaptureQuery(im2, 2, 0.2))
	if res.ID != 1 || !res.Accepted {
		t.Fatalf("updated reference not found: %+v", res)
	}
}

func TestEnrollRejectsFlatImage(t *testing.T) {
	sys, _ := Open(smallConfig())
	flat := &Image{W: 128, H: 128, Pix: make([]float32, 128*128)}
	if err := sys.EnrollImage(1, flat); err == nil {
		t.Fatal("flat image enrolled: no texture, no features")
	}
}

func TestClusterFacade(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Workers = 3
	small := smallConfig()
	cfg.Engine = small.Engine
	cfg.Extractor = small.Extractor
	cs, err := OpenCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	images := make([]*Image, 6)
	for i := range images {
		images[i] = smallTexture(int64(40 + i))
		if err := cs.EnrollImage(i, images[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cs.SearchImage(CaptureQuery(images[4], 5, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 4 || !res.Accepted {
		t.Fatalf("cluster search = %+v", res)
	}
	st := cs.Stats()
	if st.Workers != 3 || st.References != 6 {
		t.Fatalf("cluster stats = %+v", st)
	}

	// REST round-trip through the facade's handler.
	ts := httptest.NewServer(cs.Handler())
	defer ts.Close()
	f := sys2QueryFeatures(cs, images[2])
	rec := &wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: f.Descriptors, Keypoints: f.Keypoints}
	api := newAPIClient(ts.URL)
	out, err := api.Search(rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.BestID != 2 || !out.Accepted {
		t.Fatalf("REST search = %+v", out)
	}
}

func TestSearchImagesBatch(t *testing.T) {
	sys, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	images := make([]*Image, 4)
	for i := range images {
		images[i] = smallTexture(int64(70 + i))
		if err := sys.EnrollImage(i, images[i]); err != nil {
			t.Fatal(err)
		}
	}
	queries := []*Image{
		CaptureQuery(images[2], 1, 0.25),
		CaptureQuery(images[0], 2, 0.25),
		smallTexture(999), // foreign
	}
	results, err := sys.SearchImages(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].ID != 2 || !results[0].Accepted {
		t.Fatalf("query 0: %+v", results[0])
	}
	if results[1].ID != 0 || !results[1].Accepted {
		t.Fatalf("query 1: %+v", results[1])
	}
	if results[2].Accepted {
		t.Fatalf("foreign query accepted: %+v", results[2])
	}
}

func TestSystemCompact(t *testing.T) {
	sys, _ := Open(smallConfig())
	im1 := smallTexture(81)
	im2 := smallTexture(82)
	sys.EnrollImage(1, im1)
	sys.EnrollImage(2, im2)
	sys.Remove(1)
	n, err := sys.Compact()
	if err != nil || n != 1 {
		t.Fatalf("Compact = %d, %v", n, err)
	}
	res, _ := sys.SearchImage(CaptureQuery(im2, 3, 0.25))
	if res.ID != 2 || !res.Accepted {
		t.Fatalf("reference lost in compaction: %+v", res)
	}
}

func TestEnrollImages(t *testing.T) {
	sys, _ := Open(smallConfig())
	oneByOne, _ := Open(smallConfig())
	images := map[int]*Image{}
	for id := 1; id <= 12; id++ {
		images[id] = smallTexture(int64(90 + id))
		if err := oneByOne.EnrollImage(id, images[id]); err != nil {
			t.Fatal(err)
		}
	}
	n, err := sys.EnrollImages(images)
	if err != nil || n != 12 {
		t.Fatalf("EnrollImages = %d, %v", n, err)
	}
	// A map has no order; the index does. Batch enrollment lays references
	// out by ascending id, byte for byte what enrolling them in turn gives.
	var batch, serial bytes.Buffer
	if err := sys.Save(&batch); err != nil {
		t.Fatal(err)
	}
	if err := oneByOne.Save(&serial); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), serial.Bytes()) {
		t.Fatal("EnrollImages of a map did not reproduce enrollment in ascending id order")
	}
	res, _ := sys.SearchImage(CaptureQuery(images[4], 1, 0.25))
	if res.ID != 4 || !res.Accepted {
		t.Fatalf("batch-enrolled reference not found: %+v", res)
	}
	// Duplicate enrollment fails but reports progress.
	_, err = sys.EnrollImages(map[int]*Image{4: images[4]})
	if err == nil {
		t.Fatal("duplicate batch enrollment accepted")
	}
}

// TestOpenRejectsUnusableScale: Open and OpenCluster pass engine.New's
// Scale check through, so a NaN scale is an error before any enrollment.
func TestOpenRejectsUnusableScale(t *testing.T) {
	cfg := smallConfig()
	cfg.Engine.Scale = float32(math.NaN())
	if sys, err := Open(cfg); err == nil || sys != nil || !strings.Contains(err.Error(), "Scale") {
		t.Errorf("Open with a NaN Scale = %v, %v; want an error naming Scale", sys, err)
	}
	ccfg := DefaultClusterConfig()
	ccfg.Engine.Scale = float32(math.NaN())
	if cs, err := OpenCluster(ccfg); err == nil || cs != nil || !strings.Contains(err.Error(), "Scale") {
		t.Errorf("OpenCluster with a NaN Scale = %v, %v; want an error naming Scale", cs, err)
	}
}

// TestEdgeRemovalFollowsImageSize: at DefaultConfig, a difficulty-0.6
// recapture of the third of four enrolled textures is identified with a
// score that does not collapse as the images grow. Edge removal measures
// the margin from each image's own border; a filter cut to a fixed 256 px
// square dropped about three quarters of a 512 px query's matches as
// "edge" (51 against 236 at 256 px).
func TestEdgeRemovalFollowsImageSize(t *testing.T) {
	scores := map[int]int{}
	for _, size := range []int{256, 512} {
		sys, err := Open(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		p := texture.DefaultGenParams()
		p.Size = size
		var third *Image
		for id := 1; id <= 4; id++ {
			im := texture.Generate(int64(id), p)
			if id == 3 {
				third = im
			}
			if err := sys.EnrollImage(id, im); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sys.SearchImage(CaptureQuery(third, 3, 0.6))
		if err != nil {
			t.Fatal(err)
		}
		if res.ID != 3 || !res.Accepted {
			t.Fatalf("%d px: search = %+v, want texture 3 accepted", size, *res)
		}
		scores[size] = res.Score
	}
	if 4*scores[512] < 3*scores[256] {
		t.Fatalf("512 px query scores %d, under three quarters of the 256 px query's %d", scores[512], scores[256])
	}
}

// TestOpenRejectsUnusableMatch: Open and OpenCluster (through cluster.New)
// pass engine.New's match-config checks through.
func TestOpenRejectsUnusableMatch(t *testing.T) {
	for field, set := range map[string]func(*match.Config){
		"MinMatches": func(m *match.Config) { m.MinMatches = 0 },
		"RANSACTol":  func(m *match.Config) { m.Geometric, m.RANSACTol = true, math.NaN() },
	} {
		cfg := smallConfig()
		set(&cfg.Engine.Match)
		if sys, err := Open(cfg); err == nil || sys != nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Open with an unusable %s = %v, %v; want an error naming it", field, sys, err)
		}
		ccfg := DefaultClusterConfig()
		set(&ccfg.Engine.Match)
		if cs, err := OpenCluster(ccfg); err == nil || cs != nil || !strings.Contains(err.Error(), field) {
			t.Errorf("OpenCluster with an unusable %s = %v, %v; want an error naming it", field, cs, err)
		}
	}
}
