// Command texeval evaluates identification accuracy on a texgen-produced
// dataset directory: it enrolls every reference image, searches every
// query, and scores the results against truth.csv — the same protocol as
// the paper's tea-brick evaluation (300k references, 354 queries, top-1
// accuracy).
//
//	texgen -out dataset -refs 30 -queries 15 -difficulty 0.6
//	texeval -dataset dataset
//	texeval -dataset dataset -server http://127.0.0.1:8080   # remote cluster
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"texid"
	"texid/internal/cluster"
	"texid/internal/gpusim"
	"texid/internal/texture"
	"texid/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("texeval: ")

	dataset := flag.String("dataset", "dataset", "texgen output directory")
	server := flag.String("server", "", "evaluate against a running texsearchd instead of in-process")
	idOffset := flag.Int("id-offset", 1, "texture ids are reference index plus this offset")
	flag.Parse()

	refs := listPNGs(filepath.Join(*dataset, "refs"))
	queries := listPNGs(filepath.Join(*dataset, "queries"))
	truth := readTruth(filepath.Join(*dataset, "truth.csv"))
	if len(refs) == 0 || len(queries) == 0 {
		log.Fatalf("dataset %s is empty (refs %d, queries %d)", *dataset, len(refs), len(queries))
	}
	log.Printf("dataset: %d references, %d queries", len(refs), len(queries))

	var search func(im *texid.Image) (id int, accepted bool, score int)
	var enroll func(id int, im *texid.Image) error

	if *server == "" {
		sys, err := texid.Open(texid.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		enroll = func(id int, im *texid.Image) error { return sys.EnrollImage(id, im) }
		search = func(im *texid.Image) (int, bool, int) {
			res, err := sys.SearchImage(im)
			if err != nil {
				log.Fatal(err)
			}
			return res.ID, res.Accepted, res.Score
		}
	} else {
		api := cluster.NewClient(*server)
		if err := api.Health(); err != nil {
			log.Fatalf("server %s: %v", *server, err)
		}
		// The same features texid.Open extracts: RootSIFT at the engine's
		// reference and query budgets.
		eng := texid.DefaultConfig().Engine
		refCfg := texid.ExtractorConfig{MaxFeatures: eng.RefFeatures, RootSIFT: true}
		queryCfg := texid.ExtractorConfig{MaxFeatures: eng.QueryFeatures, RootSIFT: true}
		enroll = func(id int, im *texid.Image) error {
			f := texid.ExtractWith(im, refCfg)
			return api.Add(&wire.FeatureRecord{
				ID: int64(id), Precision: gpusim.FP32, Scale: 1,
				Features: f.Descriptors, Keypoints: f.Keypoints,
			})
		}
		search = func(im *texid.Image) (int, bool, int) {
			f := texid.ExtractWith(im, queryCfg)
			res, err := api.Search(&wire.FeatureRecord{
				Precision: gpusim.FP32, Scale: 1,
				Features: f.Descriptors, Keypoints: f.Keypoints,
			})
			if err != nil {
				log.Fatal(err)
			}
			return res.BestID, res.Accepted, res.Score
		}
	}

	start := time.Now()
	for i, path := range refs {
		if err := enroll(i+*idOffset, loadPNG(path)); err != nil {
			log.Fatalf("enrolling %s: %v", path, err)
		}
	}
	log.Printf("enrolled %d references in %s", len(refs), time.Since(start).Round(time.Millisecond))

	correct, rejected, mistraced := 0, 0, 0
	start = time.Now()
	for q, path := range queries {
		id, accepted, score := search(loadPNG(path))
		want := truth[q] + *idOffset
		switch {
		case accepted && id == want:
			correct++
		case !accepted:
			rejected++
			fmt.Printf("query %d: rejected (best %d, %d matches; truth %d)\n", q, id, score, want)
		default:
			mistraced++
			fmt.Printf("query %d: MISTRACED to %d (%d matches; truth %d)\n", q, id, score, want)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("\ntop-1 accuracy: %d/%d = %.2f%%  (rejected %d, mistraced %d)\n",
		correct, len(queries), 100*float64(correct)/float64(len(queries)), rejected, mistraced)
	fmt.Printf("query wall time: %s total, %s per query (host extraction dominates)\n",
		elapsed.Round(time.Millisecond), (elapsed / time.Duration(len(queries))).Round(time.Millisecond))
}

func listPNGs(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".png") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out
}

func loadPNG(path string) *texid.Image {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	im, err := texture.DecodePNG(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return im
}

func readTruth(path string) map[int]int {
	b, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	truth := map[int]int{}
	for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if i == 0 {
			continue // header
		}
		parts := strings.Split(line, ",")
		if len(parts) != 2 {
			continue
		}
		q, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
		r, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err1 == nil && err2 == nil {
			truth[q] = r
		}
	}
	return truth
}
