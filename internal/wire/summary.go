package wire

import (
	"encoding/binary"
	"math"
)

// summaryMagic and summaryVersion stamp the SearchSummary encoding.
const (
	summaryMagic   = 0x54585253 // "TXRS"
	summaryVersion = 1
)

// RankedMatch is one (reference, score) entry of a ranked result list.
type RankedMatch struct {
	RefID int64
	Score int64
}

// SearchSummary is the canonical wire form of a merged search result. The
// encoding is fully deterministic (no maps, no floats beyond the exact
// bit pattern of ElapsedUS), so two searches that produced the same logical
// result encode to the same bytes — the chaos suite relies on this to
// assert byte-identical partial results across runs and GOMAXPROCS
// settings, and the REST layer can use it as a stable cache key.
type SearchSummary struct {
	BestID         int64 // -1 when no match was accepted
	Score          int64
	Accepted       bool
	Partial        bool
	ShardsAnswered int
	ShardsTotal    int
	Compared       int64
	ElapsedUS      float64
	Ranked         []RankedMatch
}

// appendVarint appends v zigzag-encoded (BestID can be -1).
func appendVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// EncodeSummary serializes the summary to its canonical bytes.
func EncodeSummary(s *SearchSummary) []byte {
	b := make([]byte, 0, 32+len(s.Ranked)*8)
	b = binary.LittleEndian.AppendUint32(b, summaryMagic)
	b = append(b, summaryVersion)
	b = appendVarint(b, s.BestID)
	b = appendVarint(b, s.Score)
	flags := byte(0)
	if s.Accepted {
		flags |= 1
	}
	if s.Partial {
		flags |= 2
	}
	b = append(b, flags)
	b = appendUvarint(b, uint64(s.ShardsAnswered))
	b = appendUvarint(b, uint64(s.ShardsTotal))
	b = appendVarint(b, s.Compared)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.ElapsedUS))
	b = appendUvarint(b, uint64(len(s.Ranked)))
	for _, m := range s.Ranked {
		b = appendVarint(b, m.RefID)
		b = appendVarint(b, m.Score)
	}
	return b
}
