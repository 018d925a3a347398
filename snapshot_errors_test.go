package texid

import (
	"bytes"
	"errors"
	"testing"

	"texid/internal/binq"
	"texid/internal/sift"
)

// Save and Load hand each step's error back to the caller. Each test below
// makes one step fail and requires that step's error, so a dropped error at
// any of them (the seal, a write, the final flush, an enroll, the
// thresholds) turns into a failed test rather than a silent partial
// snapshot.

var errDiskFull = errors.New("disk full")

// failAfter accepts n bytes and fails from the next byte on.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	k := w.n
	w.n = 0
	return k, errDiskFull
}

// TestSnapshotSaveWriterFailsAtEveryOffset cuts the output at every
// structural byte offset of the golden snapshot and a strided sample of its
// payload (corruptionOffsets): Save must report the write error each time,
// never nil and never a panic. The last four offsets are the terminator's,
// which reaches the writer only through the final Flush.
func TestSnapshotSaveWriterFailsAtEveryOffset(t *testing.T) {
	sys, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnrollImage(1, smallTexture(5)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, off := range corruptionOffsets(buf.Len()) {
		if err := sys.Save(&failAfter{n: off}); !errors.Is(err, errDiskFull) {
			t.Fatalf("writer failing at byte %d of %d: Save = %v, want %v", off, buf.Len(), err, errDiskFull)
		}
	}
}

// TestSnapshotSaveReturnsTheSealError: Save seals pending enrollments
// first; when the cache refuses the batch, Save must return that error
// instead of writing a snapshot without the refused references.
func TestSnapshotSaveReturnsTheSealError(t *testing.T) {
	cfg := smallConfig()
	cfg.Engine.GPUCacheBytes = 1 // no batch fits
	open := func() *System {
		sys, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.EnrollImage(1, smallTexture(5)); err != nil { // pending: BatchSize is 4
			t.Fatal(err)
		}
		return sys
	}
	want := open().Engine().Flush()
	if want == nil {
		t.Fatal("sealing a batch larger than the cache succeeded")
	}
	var buf bytes.Buffer
	if err := open().Save(&buf); err == nil || err.Error() != want.Error() {
		t.Fatalf("Save = %v, want the seal error %v", err, want)
	}
}

// TestSnapshotLoadReturnsTheStepError loads into a System that is not
// fresh, so the enroll step (a duplicate id) or the thresholds step (an
// index that is not empty) fails: Load must return that step's error.
func TestSnapshotLoadReturnsTheStepError(t *testing.T) {
	snapshot := func(cfg Config) []byte {
		sys, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.EnrollImage(1, smallTexture(5)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	holding := func(cfg Config, id int) *System {
		sys, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.EnrollImage(id, smallTexture(9)); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		id   int // the id the target System already holds
		step func(*System) error
	}{
		{"enroll", smallConfig(), 1, func(s *System) error {
			return s.cl.AddEncoded(1, nil, nil, nil) // the coordinator refuses the duplicate before it reads the features
		}},
		{"thresholds", prunedSmallConfig(), 2, func(s *System) error {
			return s.Engine().SetThresholds(make(binq.Thresholds, sift.DescriptorDim))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.step(holding(tc.cfg, tc.id))
			if want == nil {
				t.Fatal("the step succeeded on a System that is not fresh")
			}
			n, err := holding(tc.cfg, tc.id).Load(bytes.NewReader(snapshot(tc.cfg)))
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("Load = %d, %v; want the %s step's error %v", n, err, tc.name, want)
			}
		})
	}
}
