package texid

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/limits"
	"texid/internal/sift"
	"texid/internal/wire"
)

// Snapshot persistence for a one-worker System: Save streams every
// enrolled reference as a length-prefixed wire.FeatureRecord, Load replays
// the stream into a (typically fresh) System through the coordinator, so
// its shard map names every restored id. A System of several workers has
// no snapshot format (Save and Load return an error naming Workers); the
// daemon persists through the kvstore instead.

const (
	snapshotMagic   = 0x54584442 // "TXDB"
	snapshotVersion = 1
	// snapshotVersion2 adds a binarization-threshold section between the
	// header and the records, present only when the engine runs candidate
	// pruning; pruning-off snapshots remain byte-identical version 1.
	snapshotVersion2 = 2
	// maxSnapshotRecord bounds one length-prefixed record (1 GB); larger
	// prefixes are treated as corruption rather than allocation requests.
	maxSnapshotRecord = 1 << 30
	// snapshotChunk is the allocation granularity for record payloads.
	snapshotChunk = 256 << 10
)

// ErrBadSnapshot is returned for malformed snapshot streams.
var ErrBadSnapshot = errors.New("texid: bad snapshot")

// checkSnapshotWorkers refuses a snapshot of a System of several workers.
func (s *System) checkSnapshotWorkers() error {
	if s.cfg.Workers != 1 {
		return fmt.Errorf("texid: snapshots need Workers 1, have %d", s.cfg.Workers)
	}
	return nil
}

// Save writes the full reference index to w. Features are stored in the
// system's configured precision (FP16 snapshots are half the size): a
// snapshot of the same index must be byte-identical run to run.
func (s *System) Save(w io.Writer) error {
	if err := s.checkSnapshotWorkers(); err != nil {
		return err
	}
	// Seal pending enrollments first so the thresholds (learned at seal
	// time) exist before the header is committed.
	if err := s.first.Flush(); err != nil {
		return err
	}
	thresh := s.first.Thresholds()
	bw := bufio.NewWriter(w)
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], snapshotMagic)
	hdr[4] = snapshotVersion
	if thresh != nil {
		hdr[4] = snapshotVersion2
	}
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if thresh != nil {
		var dim [4]byte
		binary.LittleEndian.PutUint32(dim[:], uint32(len(thresh)))
		if _, err := bw.Write(dim[:]); err != nil {
			return err
		}
		var tb [4]byte
		for _, t := range thresh {
			binary.LittleEndian.PutUint32(tb[:], math.Float32bits(t))
			if _, err := bw.Write(tb[:]); err != nil {
				return err
			}
		}
	}
	count := 0
	err := s.first.Export(func(id int, feats *blas.Matrix, kps []sift.Keypoint, codes []binq.Code) error {
		rec := &wire.FeatureRecord{
			ID:        int64(id),
			Precision: s.cfg.Engine.Precision,
			Scale:     s.cfg.Engine.Scale,
			Features:  feats,
			Keypoints: kps,
			Codes:     codes,
		}
		b := wire.Encode(rec)
		var sz [4]byte
		binary.LittleEndian.PutUint32(sz[:], uint32(len(b)))
		if _, err := bw.Write(sz[:]); err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		count++
		return nil
	})
	if err != nil {
		return err
	}
	// Zero-length terminator.
	var end [4]byte
	if _, err := bw.Write(end[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// Load replays a snapshot into the system, enrolling every record. It
// returns the number of references restored. Records whose ids already
// exist are rejected (load into a fresh system). The stream is a foreign
// file: its length prefixes are hostile until bounds-checked.
func (s *System) Load(r io.Reader) (int, error) {
	if err := s.checkSnapshotWorkers(); err != nil {
		return 0, err
	}
	br := bufio.NewReader(r)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: short header", ErrBadSnapshot)
	}
	if binary.LittleEndian.Uint32(hdr[:4]) != snapshotMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if hdr[4] != snapshotVersion && hdr[4] != snapshotVersion2 {
		return 0, fmt.Errorf("texid: unsupported snapshot version %d", hdr[4])
	}
	if hdr[4] >= snapshotVersion2 {
		var dim [4]byte
		if _, err := io.ReadFull(br, dim[:]); err != nil {
			return 0, fmt.Errorf("%w: truncated threshold header", ErrBadSnapshot)
		}
		nd := int(binary.LittleEndian.Uint32(dim[:]))
		if err := limits.Check("threshold dim", nd, 1<<16); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		thresh := make(binq.Thresholds, nd)
		var tb [4]byte
		for i := range thresh {
			if _, err := io.ReadFull(br, tb[:]); err != nil {
				return 0, fmt.Errorf("%w: truncated thresholds", ErrBadSnapshot)
			}
			thresh[i] = math.Float32frombits(binary.LittleEndian.Uint32(tb[:]))
		}
		if err := s.first.SetThresholds(thresh); err != nil {
			return 0, err
		}
	}
	n := 0
	for {
		var sz [4]byte
		if _, err := io.ReadFull(br, sz[:]); err != nil {
			return n, fmt.Errorf("%w: truncated record length", ErrBadSnapshot)
		}
		l := binary.LittleEndian.Uint32(sz[:])
		if l == 0 {
			return n, nil // terminator
		}
		if err := limits.Check("record size", int(l), maxSnapshotRecord); err != nil {
			return n, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		// The length prefix may be corrupt: commit memory chunk by chunk,
		// only as the stream actually delivers payload.
		buf, err := limits.ReadChunked(br, int(l), snapshotChunk)
		if err != nil {
			return n, fmt.Errorf("%w: truncated record", ErrBadSnapshot)
		}
		rec, err := wire.Decode(buf)
		if err != nil {
			return n, fmt.Errorf("texid: snapshot record %d: %w", n, err)
		}
		if err := s.cl.AddEncoded(int(rec.ID), rec.Features, rec.Keypoints, rec.Codes); err != nil {
			return n, err
		}
		n++
	}
}
