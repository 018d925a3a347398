package wire

import (
	"math/rand"
	"testing"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/gpusim"
)

func codeRecord(rng *rand.Rand, m int, withCodes bool) *FeatureRecord {
	feats := blas.NewMatrix(8, m)
	for i := range feats.Data {
		feats.Data[i] = rng.Float32()
	}
	rec := &FeatureRecord{ID: 42, Precision: gpusim.FP32, Scale: 1, Features: feats}
	if withCodes {
		rec.Codes = make([]binq.Code, m)
		for i := range rec.Codes {
			rec.Codes[i] = binq.Code{rng.Uint64(), rng.Uint64()}
		}
	}
	return rec
}

// TestCodesRoundTrip: version-2 records carry the binary code panel
// bit-for-bit; codeless records stay version 1 byte streams.
func TestCodesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rec := codeRecord(rng, 6, true)
	b := Encode(rec)
	if b[4] != version2 {
		t.Fatalf("version byte %d, want %d", b[4], version2)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Codes) != 6 {
		t.Fatalf("decoded %d codes, want 6", len(got.Codes))
	}
	for i := range rec.Codes {
		if got.Codes[i] != rec.Codes[i] {
			t.Fatalf("code %d: %v != %v", i, got.Codes[i], rec.Codes[i])
		}
	}

	plain := codeRecord(rng, 6, false)
	pb := Encode(plain)
	if pb[4] != version {
		t.Fatalf("codeless record encoded as version %d, want %d", pb[4], version)
	}
	if len(pb) >= len(b) {
		t.Fatal("codeless record did not shrink")
	}
	if got, err := Decode(pb); err != nil || got.Codes != nil {
		t.Fatalf("codeless decode: codes=%v err=%v", got.Codes, err)
	}
}

// TestCorruptCodesRejected: truncations inside the code payload and
// impossible code counts must fail cleanly, never panic or misparse.
func TestCorruptCodesRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := Encode(codeRecord(rng, 5, true))

	// Truncate inside the code payload (anywhere in the last 5*16 bytes).
	for _, back := range []int{1, 7, 16, 5 * 16} {
		if _, err := Decode(b[:len(b)-back]); err == nil {
			t.Fatalf("truncation %d bytes into codes accepted", back)
		}
	}

	// Corrupt the code count varint: any count other than 0 or m is
	// structural corruption. The count sits right after the (empty)
	// keypoint section.
	mut := append([]byte(nil), b...)
	mut[len(b)-5*16-1] = 3 // 5 -> 3 codes, leaves trailing bytes
	if _, err := Decode(mut); err == nil {
		t.Fatal("code count 3 for 5 descriptors accepted")
	}

	// Fewer codes than descriptors is refused even when exactly that many
	// follow: a code panel indexes by descriptor column.
	mut3 := append([]byte(nil), b[:len(b)-2*16]...)
	mut3[len(b)-5*16-1] = 3
	if _, err := Decode(mut3); err == nil {
		t.Fatal("3 codes, all present, accepted for 5 descriptors")
	}

	// A count claiming far more payload than present must not allocate.
	mut2 := append([]byte(nil), b[:len(b)-5*16]...)
	mut2[len(mut2)-1] = 200
	if _, err := Decode(mut2); err == nil {
		t.Fatal("oversized code count accepted")
	}
}
