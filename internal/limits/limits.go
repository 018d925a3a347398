// Package limits centralizes the bounds-and-allocation policy for decoding
// attacker-controlled input. Every decoder that reads a length, count, or
// dimension from the wire (RESP frames, wire.FeatureRecord varints,
// snapshot length prefixes, HTTP bodies) validates it here before
// the value may size an allocation, index a buffer, or bound a loop.
//
// The package exists for two reasons. First, it deduplicates the hand-rolled
// chunked-allocation code that grew independently in the RESP parser, the
// wire decoders, and snapshot loading. Second, it gives review one seam to
// look for: a decoder routes every untrusted length through
// Check/Cap/ReadChunked, and each such call is pinned by a hostile-input
// test row that fails when it is removed (the kill table in DESIGN.md).
package limits

import (
	"errors"
	"fmt"
	"io"
)

// ErrTooLarge is wrapped by Check failures so callers can test for the
// bound-exceeded condition regardless of which limit tripped.
var ErrTooLarge = errors.New("limits: length exceeds bound")

// DefaultChunk is the allocation granularity ReadChunked falls back to:
// large enough to amortize the append loop, small enough that a hostile
// length prefix costs the attacker bandwidth, not us memory.
const DefaultChunk = 64 << 10

// Check validates an untrusted count or length against an inclusive upper
// bound. Negative values are rejected alongside oversized ones (a negative
// length is always header corruption, never a real size). The name appears
// in the error so protocol-level wrappers stay diagnosable.
func Check(name string, n, bound int) error {
	if n < 0 || n > bound {
		return fmt.Errorf("%w: %s %d (max %d)", ErrTooLarge, name, n, bound)
	}
	return nil
}

// Cap clamps an untrusted pre-allocation hint into [0, bound]. Use it to
// size make() capacity from a wire-supplied element count: the slice starts
// no larger than bound and append grows it only as elements actually parse.
func Cap(n, bound int) int {
	if n < 0 {
		return 0
	}
	if n > bound {
		return bound
	}
	return n
}

// ReadChunked reads exactly n bytes from r, committing memory at most chunk
// bytes at a time. The length is attacker-controlled, so the buffer grows
// only as payload actually arrives: a hostile length prefix costs the peer
// n bytes of traffic, not us n bytes of RAM. chunk <= 0 selects
// DefaultChunk. Short or failed reads return the underlying error with no
// partial buffer.
func ReadChunked(r io.Reader, n, chunk int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative length %d", ErrTooLarge, n)
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		k := min(n-len(buf), chunk)
		off := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
