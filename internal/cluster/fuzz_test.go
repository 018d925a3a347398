package cluster

import (
	"encoding/base64"
	"math/rand"
	"testing"

	"texid/internal/gpusim"
	"texid/internal/sift"
	"texid/internal/wire"
)

// fuzzSeedRecord builds a small valid record for the seed corpus.
func fuzzSeedRecord() string {
	m := unitFeatures(rand.New(rand.NewSource(9)), 8, 4)
	rec := &wire.FeatureRecord{
		ID: 7, Precision: gpusim.FP32, Scale: 1, Features: m,
		Keypoints: []sift.Keypoint{{X: 1, Y: 2, Sigma: 3, Angle: 0.5, Response: 0.9}},
	}
	return base64.StdEncoding.EncodeToString(wire.Encode(rec))
}

// FuzzDecodeRecord drives the REST request decoder (base64 + wire record
// parse) with arbitrary strings: the path every /v1/textures and /v1/search
// body flows through. Invariants: no panic, no giant allocation from a
// hostile header, and a successful decode re-encodes losslessly.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(fuzzSeedRecord())
	f.Add("")     // missing record
	f.Add("!!!")  // invalid base64
	f.Add("AAAA") // valid base64, garbage bytes
	f.Add(base64.StdEncoding.EncodeToString([]byte("TXIF junk")))
	// Valid magic+version, hostile dimensions, no payload.
	f.Add(base64.StdEncoding.EncodeToString([]byte{
		0x46, 0x49, 0x58, 0x54, // magic (LE)
		1,                // version
		7,                // id varint
		0,                // FP32
		0, 0, 0x80, 0x3f, // scale 1.0
		0x80, 0x80, 0x40, // d varint = 1<<20
		0x80, 0x80, 0x40, // m varint = 1<<20
	}))

	f.Fuzz(func(t *testing.T, b64 string) {
		rec, err := decodeRecord(b64)
		if err != nil {
			return
		}
		back, err := wire.Decode(wire.Encode(rec))
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if back.ID != rec.ID || back.Precision != rec.Precision ||
			len(back.Keypoints) != len(rec.Keypoints) {
			t.Fatalf("round trip drifted: %+v vs %+v", back, rec)
		}
	})
}
