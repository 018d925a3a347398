package texid_test

import (
	"fmt"

	"texid"
	"texid/internal/gpusim"
	"texid/internal/knn"
)

// smallExampleConfig shrinks the production configuration so the examples
// run in a couple of seconds on any machine (the defaults target the
// paper's 256-px images and 384/768 feature budgets).
func smallExampleConfig() texid.Config {
	cfg := texid.DefaultConfig()
	cfg.Engine.Precision = gpusim.FP32
	cfg.Engine.Algorithm = knn.RootSIFT
	cfg.Engine.BatchSize = 4
	cfg.Engine.Streams = 2
	cfg.Engine.RefFeatures = 96
	cfg.Engine.QueryFeatures = 192
	cfg.Engine.Match.MinMatches = 12
	cfg.Extractor.MaxOctaves = 4
	return cfg
}

// Example shows the minimal enroll-and-identify loop.
func Example() {
	sys, err := texid.Open(smallExampleConfig())
	if err != nil {
		panic(err)
	}

	// Enroll three reference textures.
	refs := map[int]*texid.Image{}
	for id := 1; id <= 3; id++ {
		refs[id] = texid.GenerateTexture(int64(id) * 11)
		if err := sys.EnrollImage(id, refs[id]); err != nil {
			panic(err)
		}
	}

	// Identify a perturbed re-capture of texture 2.
	res, err := sys.SearchImage(texid.CaptureQuery(refs[2], 7, 0.3))
	if err != nil {
		panic(err)
	}
	fmt.Println("matched:", res.Accepted, "id:", res.ID)
	// Output:
	// matched: true id: 2
}

// ExampleSystem_VerifyImages shows one-to-one verification: are two photos
// of the same physical texture?
func ExampleSystem_VerifyImages() {
	sys, err := texid.Open(smallExampleConfig())
	if err != nil {
		panic(err)
	}
	brick := texid.GenerateTexture(99)
	photo := texid.CaptureQuery(brick, 3, 0.25)

	same, _, err := sys.VerifyImages(brick, photo)
	if err != nil {
		panic(err)
	}
	other, _, err := sys.VerifyImages(texid.GenerateTexture(100), photo)
	if err != nil {
		panic(err)
	}
	fmt.Println("same texture:", same, "— different texture:", other)
	// Output:
	// same texture: true — different texture: false
}
