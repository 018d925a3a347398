package texid

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzSnapshotLoad hammers the snapshot reader with arbitrary streams. The
// seed corpus under testdata/fuzz/FuzzSnapshotLoad pins the hostile-length
// shapes Load must survive: a record-length prefix far over
// maxSnapshotRecord, one just under the cap with no payload behind it, and
// a truncated chunk boundary. Load must reject all of them with an error —
// never a panic, and never by committing the claimed allocation up front
// (limits.ReadChunked only allocates as payload actually arrives, which is
// what lets this fuzz target survive a 4 GB length claim).
func FuzzSnapshotLoad(f *testing.F) {
	// A well-formed snapshot seeds the valid path: header, one real record,
	// terminator.
	sys, err := Open(smallConfig())
	if err != nil {
		f.Fatal(err)
	}
	if err := sys.EnrollImage(1, smallTexture(7)); err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := sys.Save(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())

	hdr := make([]byte, 5)
	binary.LittleEndian.PutUint32(hdr, snapshotMagic)
	hdr[4] = snapshotVersion
	// Claimed record length over the 1 GB cap, no payload.
	huge := append(append([]byte(nil), hdr...), 0xF0, 0xFF, 0xFF, 0xFF)
	f.Add(huge)
	// Claimed length just under the cap, payload absent: the chunked read
	// must fail on the first chunk instead of pre-allocating the claim.
	under := append(append([]byte(nil), hdr...), 0xFF, 0xFF, 0xFF, 0x3F)
	f.Add(under)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := Open(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		n, err := sys.Load(bytes.NewReader(data))
		if err == nil && n > 0 {
			// Accepted records must round-trip through Save.
			var buf bytes.Buffer
			if err := sys.Save(&buf); err != nil {
				t.Fatalf("accepted snapshot fails to re-save: %v", err)
			}
		}
	})
}
