package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"texid/internal/blas"
	"texid/internal/gpusim"
	"texid/internal/sift"
)

func record(rng *rand.Rand, prec gpusim.Precision, d, m, nk int) *FeatureRecord {
	f := blas.NewMatrix(d, m)
	for i := range f.Data {
		f.Data[i] = rng.Float32()
	}
	kps := make([]sift.Keypoint, nk)
	for i := range kps {
		kps[i] = sift.Keypoint{
			X: rng.Float64() * 256, Y: rng.Float64() * 256,
			Sigma: 1 + rng.Float64(), Angle: rng.Float64() * 6,
			Response: rng.Float64(),
		}
	}
	return &FeatureRecord{ID: rng.Int63(), Precision: prec, Scale: 1, Features: f, Keypoints: kps}
}

// header is the head of a record that claims a d×m matrix, with nothing
// behind it.
func header(ver byte, d, m uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = append(b, ver)
	b = appendUvarint(b, 1) // id
	b = append(b, byte(gpusim.FP32))
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(1))
	b = appendUvarint(b, d)
	return appendUvarint(b, m)
}

// allocated is how many bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestRoundTripFP32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rec := record(rng, gpusim.FP32, 16, 9, 9)
	got, err := Decode(Encode(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != rec.ID || got.Precision != rec.Precision || got.Scale != rec.Scale {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range rec.Features.Data {
		if got.Features.Data[i] != rec.Features.Data[i] {
			t.Fatalf("FP32 features must round-trip exactly, element %d: %g vs %g",
				i, got.Features.Data[i], rec.Features.Data[i])
		}
	}
	for i := range rec.Keypoints {
		if math.Abs(got.Keypoints[i].X-rec.Keypoints[i].X) > 1e-4 {
			t.Fatalf("keypoint %d X: %g vs %g", i, got.Keypoints[i].X, rec.Keypoints[i].X)
		}
	}
}

func TestRoundTripFP16HalvesSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r32 := record(rng, gpusim.FP32, 128, 64, 0)
	r16 := &FeatureRecord{ID: r32.ID, Precision: gpusim.FP16, Scale: 1, Features: r32.Features}
	b32 := Encode(r32)
	b16 := Encode(r16)
	if len(b16) >= len(b32)*6/10 {
		t.Fatalf("FP16 record %d bytes vs FP32 %d: expected ~half", len(b16), len(b32))
	}
	got, err := Decode(b16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r32.Features.Data {
		diff := math.Abs(float64(got.Features.Data[i] - r32.Features.Data[i]))
		if diff > 1.0/1024 {
			t.Fatalf("FP16 element %d error %g", i, diff)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 64), // zero magic
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d: garbage decoded", i)
		}
	}
	// Truncation at every prefix length must error, never panic.
	rng := rand.New(rand.NewSource(3))
	full := Encode(record(rng, gpusim.FP16, 8, 4, 3))
	for n := 0; n < len(full); n++ {
		if _, err := Decode(full[:n]); err == nil {
			t.Fatalf("truncated record of %d/%d bytes decoded", n, len(full))
		}
	}
	// Trailing bytes must be rejected too.
	if _, err := Decode(append(full, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A header is a claim, not a size: each of these is a few bytes long,
	// and must be refused before anything is sized from it. One row per
	// bound in Decode; removing the bound turns its row into a panic, an
	// accepted record or a multi-megabyte allocation.
	empty := header(version, 0, 0)
	for _, h := range []struct {
		what string
		b    []byte
	}{
		{"dimensions whose product wraps to zero", header(version, 1<<32, 1<<32)},
		{"a negative dimension", header(version, 1<<63, 1)},
		{"16M elements claimed, none sent", header(version, 1<<12, 1<<12)},
		{"a keypoint count whose byte size wraps to zero", appendUvarint(empty, 1<<62)},
		{"1M keypoints claimed, none sent", appendUvarint(empty, 1<<20)},
		{"1M codes claimed, none sent", appendUvarint(appendUvarint(header(version2, 0, 1<<20), 0), 1<<20)},
	} {
		var err error
		grew := allocated(func() { _, err = Decode(h.b) })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", h.what, err)
		}
		if grew > 64<<10 {
			t.Errorf("%s: Decode allocated %d bytes for a %d-byte input", h.what, grew, len(h.b))
		}
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := Encode(record(rng, gpusim.FP32, 4, 2, 0))
	b[4] = 99 // version byte
	if _, err := Decode(b); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prec := gpusim.FP32
		if rng.Intn(2) == 1 {
			prec = gpusim.FP16
		}
		rec := record(rng, prec, 1+rng.Intn(32), 1+rng.Intn(32), rng.Intn(8))
		got, err := Decode(Encode(rec))
		if err != nil {
			return false
		}
		return got.ID == rec.ID &&
			got.Features.Rows == rec.Features.Rows &&
			got.Features.Cols == rec.Features.Cols &&
			len(got.Keypoints) == len(rec.Keypoints)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEmptyFeatures(t *testing.T) {
	rec := &FeatureRecord{ID: 1, Precision: gpusim.FP32, Scale: 1, Features: blas.NewMatrix(0, 0)}
	got, err := Decode(Encode(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.Features.Rows != 0 || got.Features.Cols != 0 {
		t.Fatalf("empty features came back %dx%d", got.Features.Rows, got.Features.Cols)
	}
}
