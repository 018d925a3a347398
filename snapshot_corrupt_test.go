package texid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// goldenSnapshot builds a deterministic snapshot with a known content
// census, used as the substrate for corruption tests.
func goldenSnapshot(t *testing.T) ([]byte, int) {
	t.Helper()
	sys, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	const refs = 3
	for id := 1; id <= refs; id++ {
		if err := sys.EnrollImage(id, smallTexture(int64(id*11))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), refs
}

// corruptionOffsets yields every offset in the structural head of the
// stream (header, first length prefix, first record header) and a strided
// sample of the bulk payload — exhaustive where parsing decisions live,
// sampled where only data lives, bounded runtime either way.
func corruptionOffsets(n int) []int {
	var offs []int
	for off := 0; off < n; off++ {
		if off < 64 || off%23 == 0 || off >= n-8 {
			offs = append(offs, off)
		}
	}
	return offs
}

// TestSnapshotTruncationEveryOffset cuts the golden snapshot at every
// structural byte offset (and a sample of payload offsets). Load must
// never panic; it either reports a clean error or (when the cut lands
// exactly on a record boundary after the terminator-less tail) restores a
// strict prefix of the records.
func TestSnapshotTruncationEveryOffset(t *testing.T) {
	golden, refs := goldenSnapshot(t)
	for _, cut := range corruptionOffsets(len(golden)) {
		sys, err := Open(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		n, err := sys.Load(bytes.NewReader(golden[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(golden))
		}
		if n > refs {
			t.Fatalf("truncation at %d restored %d > %d records", cut, n, refs)
		}
	}
}

// TestSnapshotBitFlips flips one byte at a time across the stream. Every
// flip must leave Load panic-free: either a clean error or a successful
// load (flips inside feature payloads change values, not structure).
func TestSnapshotBitFlips(t *testing.T) {
	golden, refs := goldenSnapshot(t)
	for _, off := range corruptionOffsets(len(golden)) {
		mut := bytes.Clone(golden)
		mut[off] ^= 0xff
		sys, err := Open(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		n, err := sys.Load(bytes.NewReader(mut))
		if err == nil && n != refs {
			t.Fatalf("flip at %d silently dropped records: restored %d, want %d", off, n, refs)
		}
	}
}

// TestSnapshotHostileLength hand-crafts snapshots whose header is a claim
// the stream never backs. One row per bound in Load: a length over its cap
// is refused on the prefix itself — nothing behind it is read — and one at
// the cap commits memory only as payload arrives.
func TestSnapshotHostileLength(t *testing.T) {
	stream := func(ver byte, words ...uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, snapshotMagic)
		b = append(b, ver)
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	padding := make([]byte, 1<<20)
	for _, h := range []struct {
		what     string
		b        []byte
		maxAlloc uint64
		unread   bool // Load stops before the end of the stream
	}{
		{"record length at the cap, 4 bytes sent",
			append(stream(snapshotVersion, maxSnapshotRecord), "tiny"...), 4 * snapshotChunk, false},
		{"record length one past the cap",
			append(stream(snapshotVersion, maxSnapshotRecord+1), padding...), 64 << 10, true},
		{"threshold count one past the cap",
			append(stream(snapshotVersion2, 1<<16+1), padding...), 64 << 10, true},
	} {
		sys, err := Open(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(h.b)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = sys.Load(r)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", h.what, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > h.maxAlloc {
			t.Errorf("%s: Load allocated %d bytes, want <= %d", h.what, grew, h.maxAlloc)
		}
		if h.unread && r.Len() == 0 {
			t.Errorf("%s: Load read the whole stream instead of refusing the prefix", h.what)
		}
	}
}

// TestSnapshotGoldenRoundTripStable pins the byte stability of the format:
// saving the same index twice yields identical bytes, and a load of the
// golden bytes re-saves to the same bytes again (the format has no hidden
// nondeterminism — map ordering, timestamps — to drift on).
func TestSnapshotGoldenRoundTripStable(t *testing.T) {
	golden, refs := goldenSnapshot(t)
	again, _ := goldenSnapshot(t)
	if !bytes.Equal(golden, again) {
		t.Fatal("identical enrollments produced different snapshots")
	}

	sys, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, err := sys.Load(bytes.NewReader(golden))
	if err != nil || n != refs {
		t.Fatalf("golden load: n=%d err=%v", n, err)
	}
	var resaved bytes.Buffer
	if err := sys.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, resaved.Bytes()) {
		t.Fatal("load+save did not reproduce the golden bytes")
	}
}
