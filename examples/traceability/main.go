// Traceability: the paper's motivating application. A manufacturer
// enrolls every tea brick's surface texture at packaging time; customers
// later photograph their brick to verify authenticity (one-to-one) or
// recover its identity (one-to-many). Counterfeit bricks — visually
// similar but physically different textures — must be rejected.
//
//	go run ./examples/traceability
package main

import (
	"fmt"
	"log"

	"texid"
)

const (
	batchSize  = 24 // bricks in this production batch
	recaptures = 6  // customer photos of genuine bricks
	fakes      = 4  // counterfeit attempts
)

func main() {
	sys, err := texid.Open(texid.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// --- Factory side: enroll a production batch. ---
	fmt.Printf("factory: enrolling %d tea bricks...\n", batchSize)
	bricks := make(map[int]*texid.Image)
	for id := 1; id <= batchSize; id++ {
		img := texid.GenerateTexture(int64(id) * 7919)
		bricks[id] = img
		if err := sys.EnrollImage(id, img); err != nil {
			log.Fatalf("brick %d: %v", id, err)
		}
	}
	st := sys.Stats()
	fmt.Printf("factory: index holds %d bricks (%.1f KB/brick, capacity %d)\n\n",
		st.References, float64(st.PerWorker[0].BytesPerRef)/1024, st.CapacityImages)

	// --- Customer side: genuine re-captures. ---
	fmt.Println("customers: photographing genuine bricks (new viewpoint, lighting, blur)...")
	identified := 0
	for i := 0; i < recaptures; i++ {
		trueID := 1 + (i*5)%batchSize
		photo := texid.CaptureQuery(bricks[trueID], int64(1000+i), 0.5)
		res, err := sys.SearchImage(photo)
		if err != nil {
			log.Fatal(err)
		}
		status := "REJECTED"
		if res.Accepted && res.ID == trueID {
			status = "traced"
			identified++
		} else if res.Accepted {
			status = fmt.Sprintf("MISTRACED to %d", res.ID)
		}
		fmt.Printf("  photo of brick %2d -> %s (%d matches, %.0f images/s)\n",
			trueID, status, res.Score, res.Speed)
	}
	fmt.Printf("traced %d/%d genuine re-captures\n\n", identified, recaptures)

	// --- Counterfeits: same product class, different physical texture. ---
	fmt.Println("counterfeiters: submitting visually similar but foreign bricks...")
	rejected := 0
	for i := 0; i < fakes; i++ {
		fake := texid.GenerateTexture(int64(500_000 + i))
		res, err := sys.SearchImage(fake)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Accepted {
			rejected++
			fmt.Printf("  counterfeit %d rejected (best candidate %d with only %d matches)\n",
				i+1, res.ID, res.Score)
		} else {
			fmt.Printf("  counterfeit %d WRONGLY ACCEPTED as brick %d (%d matches)\n",
				i+1, res.ID, res.Score)
		}
	}
	fmt.Printf("rejected %d/%d counterfeits\n\n", rejected, fakes)

	// --- One-to-one verification: "is this that brick?" ---
	photo := texid.CaptureQuery(bricks[7], 77, 0.4)
	same, score, err := sys.VerifyImages(bricks[7], photo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verification: photo vs enrolled brick 7 -> same=%v (%d matches)\n", same, score)
	same, score, err = sys.VerifyImages(bricks[8], photo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verification: photo vs enrolled brick 8 -> same=%v (%d matches)\n", same, score)
}
