package texid

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"
)

// roundTripSnapshotSHA256 is the sha256 of TestSnapshotRoundTrip's Save
// output, recorded when the System ran on one engine with no coordinator:
// one worker writes the same bytes. The extractor's digests depend on the
// host's math.Exp variant (see sift's TestExtractGolden), so the pin holds
// only where Exp is the AVX2+FMA variant they were recorded on.
const (
	roundTripSnapshotSHA256 = "d7a43188c9ce5c56a2904501c639f11ba9179e19ad4359aa5ab1a164655a777f"
	expProbe                = -0.0576171875
	expProbeFMA             = 0x3fee355718cc41b3
)

func TestSnapshotRoundTrip(t *testing.T) {
	sys, err := Open(smallConfig())
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
	if _, err := sys.Remove(2); err != nil { // tombstones must not be persisted
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != roundTripSnapshotSHA256 {
		if math.Float64bits(math.Exp(expProbe)) == expProbeFMA {
			t.Fatalf("snapshot sha256 = %s, want %s", got, roundTripSnapshotSHA256)
		}
		t.Logf("snapshot sha256 = %s: not pinned on this host's math.Exp variant", got)
	}

	restored, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, err := restored.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("restored %d references, want 4", n)
	}
	// Restored index identifies re-captures of the surviving textures.
	for _, id := range []int{1, 3, 4, 5} {
		res, err := restored.SearchImage(CaptureQuery(images[id], int64(id), 0.25))
		if err != nil {
			t.Fatal(err)
		}
		if res.ID != id || !res.Accepted {
			t.Fatalf("texture %d lost in snapshot: %+v", id, res)
		}
	}
	// The removed texture stays gone.
	res, _ := restored.SearchImage(CaptureQuery(images[2], 99, 0.25))
	if res.Accepted && res.ID == 2 {
		t.Fatal("tombstoned texture resurrected by snapshot")
	}

	// A restored id is the coordinator's like any enrolled one: Update
	// replaces it in place and Remove finds it.
	fresh := smallTexture(77)
	if err := restored.Update(3, fresh); err != nil {
		t.Fatalf("Update of a restored id: %v", err)
	}
	if res, err := restored.SearchImage(CaptureQuery(fresh, 3, 0.25)); err != nil || res.ID != 3 || !res.Accepted {
		t.Fatalf("updated restored texture: %+v, %v", res, err)
	}
	if ok, err := restored.Remove(3); !ok || err != nil {
		t.Fatalf("Remove of a restored id = %v, %v; want true", ok, err)
	}
	if res, err := restored.SearchImage(CaptureQuery(fresh, 4, 0.25)); err != nil || res.Accepted && res.ID == 3 {
		t.Fatalf("removed restored texture still found: %+v, %v", res, err)
	}
}

// TestSnapshotNeedsOneWorker: the snapshot format holds one shard, so a
// System of several workers refuses both directions.
func TestSnapshotNeedsOneWorker(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 2
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnrollImage(1, smallTexture(5)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err == nil || !strings.Contains(err.Error(), "Workers") || buf.Len() != 0 {
		t.Fatalf("Save at Workers 2 = %v after %d bytes; want an error naming Workers and no bytes", err, buf.Len())
	}
	one, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := one.EnrollImage(1, smallTexture(5)); err != nil {
		t.Fatal(err)
	}
	if err := one.Save(&buf); err != nil {
		t.Fatal(err)
	}
	empty, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := empty.Load(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "Workers") || n != 0 {
		t.Fatalf("Load at Workers 2 = %d, %v; want an error naming Workers", n, err)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	sys, _ := Open(smallConfig())
	if _, err := sys.Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	// Truncated after the header.
	var buf bytes.Buffer
	sys2, _ := Open(smallConfig())
	sys2.EnrollImage(1, smallTexture(5))
	sys2.Save(&buf)
	for _, cut := range []int{5, 7, buf.Len() - 5} {
		if _, err := sys.Load(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
}
