// Distributed: an in-process replica of the paper's Sec. 8 deployment —
// 14 simulated Tesla P100 shard workers behind the REST API, searched both
// through the Go API and over HTTP. It exits non-zero when the two answers
// (best id, score, accepted) disagree.
//
//	go run ./examples/distributed
package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"texid"
	"texid/internal/gpusim"
	"texid/internal/wire"
)

func main() {
	cfg := texid.DefaultConfig() // production engine
	cfg.Workers = 14
	cs, err := texid.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Capacity math of Sec. 8: each container reserves ~4 GB of GPU memory
	// for engine workspace and caches references in the remaining GPU
	// memory plus 64 GB of host memory.
	st := cs.Stats()
	fmt.Printf("cluster: %d workers, %.0f GB total cache, capacity %d references\n",
		st.Workers, st.CacheGB, st.CapacityImages)
	fmt.Printf("(the paper's full deployment stores 10.8M references at m=384, FP16)\n\n")

	// Enroll a small set across the shards.
	fmt.Println("enrolling 28 textures (2 per shard, round-robin)...")
	refs := make(map[int]*texid.Image)
	for id := 1; id <= 28; id++ {
		img := texid.GenerateTexture(int64(id) * 31)
		refs[id] = img
		if err := cs.EnrollImage(id, img); err != nil {
			log.Fatal(err)
		}
	}

	// Search through the Go API: the query scatters to all 14 shards in
	// parallel and results merge by match count.
	query := texid.CaptureQuery(refs[17], 5, 0.45)
	res, err := cs.SearchImage(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Go API search: texture %d, %d matches, %d compared, %.0f images/s aggregate\n\n",
		res.ID, res.Score, res.Compared, res.Speed)

	// The same search over the REST API (as the paper's web tier does).
	ts := httptest.NewServer(cs.Handler())
	defer ts.Close()

	feats := cs.ExtractQuery(query)
	rec := &wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: feats.Descriptors, Keypoints: feats.Keypoints}
	body := fmt.Sprintf(`{"record_b64": %q}`, base64.StdEncoding.EncodeToString(wire.Encode(rec)))

	resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		BestID   int     `json:"best_id"`
		Score    int     `json:"score"`
		Accepted bool    `json:"accepted"`
		Speed    float64 `json:"speed_images_per_sec"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("REST search:   texture %d, %d matches, accepted=%v, %.0f images/s\n",
		out.BestID, out.Score, out.Accepted, out.Speed)
	if out.BestID != res.ID || out.Score != res.Score || out.Accepted != res.Accepted {
		log.Fatalf("the REST answer (%d, %d, %v) differs from the Go API's (%d, %d, %v)",
			out.BestID, out.Score, out.Accepted, res.ID, res.Score, res.Accepted)
	}

	// Shard management: delete and confirm.
	if _, err := cs.Remove(17); err != nil {
		log.Fatal(err)
	}
	if res, err = cs.SearchImage(query); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after delete:  accepted=%v (best %d, %d matches)\n", res.Accepted, res.ID, res.Score)
}
