// Quickstart: enroll a handful of reference textures and identify a
// re-captured query with the single-node system.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"texid"
)

func main() {
	// The default configuration is the paper's production setup: RootSIFT
	// features (384 per reference, 768 per query), FP16 storage, batch 256,
	// 8 CUDA streams on a simulated Tesla P100 with a 64 GB host cache.
	sys, err := texid.Open(texid.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Enroll five reference textures (seeded synthetic tea-brick surfaces;
	// in production these are photos taken at the factory). EnrollImages
	// extracts features for the whole batch in parallel.
	fmt.Println("enrolling references...")
	refs := make(map[int]*texid.Image)
	for id := 1; id <= 5; id++ {
		refs[id] = texid.GenerateTexture(int64(id) * 100)
	}
	if _, err := sys.EnrollImages(refs); err != nil {
		log.Fatal(err)
	}

	// A customer re-photographs texture 3: new viewpoint, different
	// lighting, a bit of blur and sensor noise.
	query := texid.CaptureQuery(refs[3], 42, 0.45)

	res, err := sys.SearchImage(query)
	if err != nil {
		log.Fatal(err)
	}
	if res.Accepted {
		fmt.Printf("identified texture %d with %d verified feature matches\n", res.ID, res.Score)
	} else {
		fmt.Printf("no confident match (best candidate %d, %d matches)\n", res.ID, res.Score)
	}
	fmt.Printf("compared %d references in %.1f us of simulated GPU time (%.0f images/s)\n",
		res.Compared, res.ElapsedUS, res.Speed)

	// A texture that was never enrolled must be rejected.
	foreign := texid.GenerateTexture(999_999)
	res, err = sys.SearchImage(foreign)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("foreign texture: accepted=%v (best %d with %d matches)\n", res.Accepted, res.ID, res.Score)

	st := sys.Stats()
	fmt.Printf("index: %d references, capacity %d (%.1f KB per reference)\n",
		st.References, st.CapacityImages, float64(st.PerWorker[0].BytesPerRef)/1024)
}
