// Command texgen generates the synthetic tea-brick texture dataset: seeded
// reference textures plus perturbed query re-captures with ground truth,
// written as grayscale PNGs (and optionally pre-extracted feature records).
//
//	texgen -out dataset -refs 50 -queries 20 -difficulty 0.6
//	texgen -out dataset -features          # also write .feat records
//
// -refs, -queries and -size below 1 and -difficulty outside [0, 1] exit 2
// before anything is written.
//
// The output layout is:
//
//	dataset/refs/ref_000042.png
//	dataset/queries/query_0007.png
//	dataset/truth.csv                      # query index -> reference index
//	dataset/refs/ref_000042.feat           # with -features
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"texid/internal/gpusim"
	"texid/internal/sift"
	"texid/internal/texture"
	"texid/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("texgen: ")

	out := flag.String("out", "dataset", "output directory")
	refs := flag.Int("refs", 20, "number of reference textures")
	queries := flag.Int("queries", 10, "number of query re-captures")
	size := flag.Int("size", 256, "image side in pixels")
	difficulty := flag.Float64("difficulty", 0.5, "query perturbation strength in [0,1]")
	seed := flag.Int64("seed", 1, "generator seed")
	features := flag.Bool("features", false, "also extract and write SIFT feature records (.feat)")
	maxFeatures := flag.Int("max-features", 768, "feature budget per image when -features is set")
	flag.Parse()

	// An empty dataset or image panics mid-generation, and a difficulty
	// outside [0, 1] would be clamped without a word (NaN fails too):
	// reject them before anything is written.
	for _, f := range []struct {
		name string
		v    int
	}{{"refs", *refs}, {"queries", *queries}, {"size", *size}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "texgen: -%s %d must be at least 1\n", f.name, f.v)
			os.Exit(2)
		}
	}
	if !(*difficulty >= 0 && *difficulty <= 1) {
		fmt.Fprintf(os.Stderr, "texgen: -difficulty %g must be in [0, 1]\n", *difficulty)
		os.Exit(2)
	}

	params := texture.DefaultGenParams()
	params.Size = *size
	ds := texture.BuildDataset(*seed, *refs, *queries, *difficulty, params)

	refDir := filepath.Join(*out, "refs")
	queryDir := filepath.Join(*out, "queries")
	for _, dir := range []string{refDir, queryDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	cfg := sift.DefaultConfig()
	cfg.MaxFeatures = *maxFeatures

	// Extract features for the whole dataset up front (parallel across
	// images) so the write loop below is pure I/O.
	var refFeats, queryFeats []*sift.Features
	if *features {
		refFeats = sift.ExtractBatch(ds.Refs, cfg)
		queryFeats = sift.ExtractBatch(ds.Queries, cfg)
	}

	writeImage := func(path string, im *texture.Image, feats *sift.Features, id int64) {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := texture.EncodePNG(f, im); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if feats != nil {
			rec := &wire.FeatureRecord{
				ID:        id,
				Precision: gpusim.FP32,
				Scale:     1,
				Features:  feats.Descriptors,
				Keypoints: feats.Keypoints,
			}
			featPath := path[:len(path)-len(".png")] + ".feat"
			if err := os.WriteFile(featPath, wire.Encode(rec), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}

	for i, im := range ds.Refs {
		var feats *sift.Features
		if *features {
			feats = refFeats[i]
		}
		writeImage(filepath.Join(refDir, fmt.Sprintf("ref_%06d.png", i)), im, feats, int64(i))
	}
	for q, im := range ds.Queries {
		var feats *sift.Features
		if *features {
			feats = queryFeats[q]
		}
		writeImage(filepath.Join(queryDir, fmt.Sprintf("query_%04d.png", q)), im, feats, int64(q))
	}

	truth, err := os.Create(filepath.Join(*out, "truth.csv"))
	if err != nil {
		log.Fatal(err)
	}
	tw := bufio.NewWriter(truth)
	fmt.Fprintln(tw, "query,reference")
	for q, ref := range ds.Truth {
		fmt.Fprintf(tw, "%d,%d\n", q, ref)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := truth.Close(); err != nil {
		log.Fatal(err)
	}

	log.Printf("wrote %d references and %d queries to %s (difficulty %.2f, seed %d)",
		*refs, *queries, *out, *difficulty, *seed)
}
