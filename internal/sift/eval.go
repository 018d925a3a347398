package sift

import (
	"math"
	"math/bits"
)

// evalChunk is how many pixels the descriptor and orientation passes
// gather before one evaluate pass, and the most lanes one exp8 or atan2x8
// call takes.
const evalChunk = 128

// expInto sets dst[i] = math.Exp(x[i]) for every i < len(dst), bit for bit
// on either tier: exp8 where the host has it (useAVX512), then math.Exp
// again for the lanes exp8 flags; a math.Exp loop elsewhere, which is also
// the oracle. dst and x must not overlap.
func expInto(dst, x []float64) {
	if !useAVX512 {
		for i := range dst {
			dst[i] = math.Exp(x[i])
		}
		return
	}
	for len(dst) > 0 {
		n := min(len(dst), evalChunk)
		var special [evalChunk / 8]uint8
		exp8(dst[:n], x[:n], special[:])
		for g, m := range special[:(n+7)/8] {
			for ; m != 0; m &= m - 1 {
				i := 8*g + bits.TrailingZeros8(m)
				dst[i] = math.Exp(x[i])
			}
		}
		dst, x = dst[n:], x[n:]
	}
}

// atan2Into sets dst[i] = math.Atan2(y[i], x[i]) for every i < len(dst),
// bit for bit on either tier, as expInto does with atan2x8. dst overlaps
// neither y nor x.
func atan2Into(dst, y, x []float64) {
	if !useAVX512 {
		for i := range dst {
			dst[i] = math.Atan2(y[i], x[i])
		}
		return
	}
	for len(dst) > 0 {
		n := min(len(dst), evalChunk)
		var special [evalChunk / 8]uint8
		atan2x8(dst[:n], y[:n], x[:n], special[:])
		for g, m := range special[:(n+7)/8] {
			for ; m != 0; m &= m - 1 {
				i := 8*g + bits.TrailingZeros8(m)
				dst[i] = math.Atan2(y[i], x[i])
			}
		}
		dst, y, x = dst[n:], y[n:], x[n:]
	}
}

// gradChunk is one gather → evaluate → scatter round of an orientation or
// descriptor window: up to evalChunk of the window's pixels, in pixel
// order, with their gradient and the Exp argument of their Gaussian
// weight; evaluate then fills in atan2 of the gradient and the weight. It
// lives on the stack of the keypoint's worker, so the passes allocate
// nothing. The descriptor's chunk extends it (descChunk).
type gradChunk struct {
	n           int
	gx, gy, arg [evalChunk]float64
	ang, w      [evalChunk]float64
}

// evaluate sets ang[i] = math.Atan2(gy[i], gx[i]) and w[i] =
// math.Exp(arg[i]) for the gathered pixels, one call each.
func (c *gradChunk) evaluate() {
	atan2Into(c.ang[:c.n], c.gy[:c.n], c.gx[:c.n])
	expInto(c.w[:c.n], c.arg[:c.n])
}
