package soak

import "math/bits"

// hist is a log-linear latency histogram in the style of HdrHistogram:
// values below 2^subBits land in exact unit buckets, and every octave
// above that is split into 2^subBits linear sub-buckets, bounding the
// relative quantile error at 1/2^subBits (~3%) across the whole range.
// All state is integral, so recording the same sample sequence always
// yields the same buckets — quantiles from a deterministic run are
// bit-reproducible, unlike a sampled or floating-accumulator design.
//
// Values are dimensionless int64s; the sim soak records microseconds.
type hist struct {
	buckets [numBuckets]int64
	count   int64
	max     int64
}

const (
	subBits = 5 // 32 linear sub-buckets per octave
	subMask = 1<<subBits - 1
	// 59 octaves above the linear region cover the full int64 range.
	numBuckets = 60 << subBits
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<subBits {
		return int(v)
	}
	msb := 63 - bits.LeadingZeros64(uint64(v))
	shift := msb - subBits
	return (msb-subBits)<<subBits + int((v>>shift)&subMask) + 1<<subBits
}

// bucketHigh returns the largest value mapping to bucket i (the upper
// edge reported by quantiles, so estimates err on the safe side).
func bucketHigh(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	oct := (i - 1<<subBits) >> subBits
	rem := int64(i & subMask)
	width := int64(1) << oct
	return (1<<subBits+rem+1)*width - 1
}

// record adds one sample.
func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)]++
	h.count++
	if v > h.max {
		h.max = v
	}
}

// quantile returns an upper-bound estimate of the q-quantile. The exact
// maximum is returned for q >= 1 (and whenever the target falls in the
// top bucket), so reported max values are never widened to a bucket edge.
func (h *hist) quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	target := int64(q*float64(h.count)) + 1
	if target > h.count {
		target = h.count
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i]
		if seen >= target {
			hi := bucketHigh(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}
