package texid

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func prunedSmallConfig() Config {
	cfg := smallConfig()
	cfg.Engine.PruneC = 3
	return cfg
}

// TestSnapshotPrunedRoundTrip: a pruning system's snapshot carries the
// learned binarization thresholds and the enrolled code panels, so the
// restored system searches identically — and re-saving it reproduces the
// exact same bytes (codes are restored bit-for-bit, not re-encoded).
func TestSnapshotPrunedRoundTrip(t *testing.T) {
	sys, err := Open(prunedSmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	images := make(map[int]*Image)
	for id := 1; id <= 5; id++ {
		images[id] = smallTexture(int64(id * 3))
		if err := sys.EnrollImage(id, images[id]); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[4]; v != snapshotVersion2 {
		t.Fatalf("pruned snapshot version %d, want %d", v, snapshotVersion2)
	}

	restored, err := Open(prunedSmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, err := restored.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("restored %d references, want 5", n)
	}

	want := sys.Engine().Thresholds()
	got := restored.Engine().Thresholds()
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("thresholds: %d restored vs %d saved", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("threshold %d = %g, want %g", i, got[i], want[i])
		}
	}

	for id := 1; id <= 5; id++ {
		res, err := restored.SearchImage(CaptureQuery(images[id], int64(id), 0.25))
		if err != nil {
			t.Fatal(err)
		}
		if res.ID != id || !res.Accepted {
			t.Fatalf("texture %d lost in pruned snapshot: %+v", id, res)
		}
	}

	// Re-saving the restored system must reproduce the snapshot byte for
	// byte: thresholds are frozen and codes round-trip without re-encoding.
	var buf2 bytes.Buffer
	if err := restored.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-saved pruned snapshot differs: %d vs %d bytes", buf.Len(), buf2.Len())
	}
}

// TestSnapshotPrunedIntoUnpruned: a pruned (v2) snapshot cannot be loaded
// into a system with pruning disabled — the thresholds have nowhere to go
// and silently dropping them would change search behavior on re-save.
func TestSnapshotPrunedIntoUnpruned(t *testing.T) {
	sys, err := Open(prunedSmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnrollImage(1, smallTexture(7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}

	plain, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("pruned snapshot accepted by pruning-off system")
	}
}

// TestSnapshotPrunedCorruption: damage inside the v2 threshold section —
// truncation at every boundary and absurd dims — must fail cleanly.
func TestSnapshotPrunedCorruption(t *testing.T) {
	sys, err := Open(prunedSmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnrollImage(1, smallTexture(9)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()

	// The threshold section starts at offset 5: u32 dim, then dim floats.
	dim := int(binary.LittleEndian.Uint32(b[5:9]))
	if dim == 0 {
		t.Fatal("no thresholds in pruned snapshot")
	}
	for _, cut := range []int{6, 9, 9 + 4*dim/2, 9 + 4*dim - 1} {
		fresh, _ := Open(prunedSmallConfig())
		if _, err := fresh.Load(bytes.NewReader(b[:cut])); err == nil {
			t.Fatalf("threshold section truncated at %d accepted", cut)
		}
	}

	// A dim claiming gigabytes of thresholds is corruption, not an
	// allocation request.
	mut := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(mut[5:9], 1<<30)
	fresh, _ := Open(prunedSmallConfig())
	if _, err := fresh.Load(bytes.NewReader(mut)); err == nil {
		t.Fatal("absurd threshold dim accepted")
	}

	// Wrong dim for the engine: SetThresholds must reject a mismatch.
	mut2 := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(mut2[5:9], uint32(dim-1))
	fresh2, _ := Open(prunedSmallConfig())
	if _, err := fresh2.Load(bytes.NewReader(mut2)); err == nil {
		t.Fatal("threshold dim mismatch accepted")
	}
}
