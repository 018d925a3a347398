package wire

import (
	"testing"

	"texid/internal/blas"
	"texid/internal/gpusim"
	"texid/internal/sift"
)

// FuzzDecode hammers the feature-record parser with arbitrary bytes. The
// parser must never panic and never allocate more than the input could
// possibly back (truncated-payload checks precede the big allocations).
func FuzzDecode(f *testing.F) {
	m := blas.NewMatrix(4, 3)
	for j := 0; j < 3; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = float32(i*3+j) / 12
		}
	}
	f.Add(Encode(&FeatureRecord{ID: 1, Precision: gpusim.FP32, Scale: 1, Features: m}))
	f.Add(Encode(&FeatureRecord{ID: 2, Precision: gpusim.FP16, Scale: 512, Features: m,
		Keypoints: []sift.Keypoint{{X: 1, Y: 2, Sigma: 1.6, Angle: 0.2, Response: 0.8}}}))
	f.Add([]byte{})
	f.Add([]byte("TXIFgarbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			return
		}
		// Successful decodes re-encode to bytes that decode identically.
		if _, err := Decode(Encode(rec)); err != nil {
			t.Fatalf("re-encode of accepted record rejected: %v", err)
		}
	})
}
