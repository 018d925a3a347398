//go:build amd64

package sift

// descBins8 writes, for each of c's c.n evaluated pixels, what
// c.prepPixel(i, angle) writes — its eight shares and its bins i0 and i1 —
// bit for bit, except in the lanes it flags: bit j of special[g] marks
// lane 8g+j, whose shares and bins are unspecified, when its ang−angle,
// v or ob is not finite or its bx or by is outside (−1, descWidth). A
// non-finite gradient makes v non-finite. Needs AVX512F; see
// desc_amd64.s.
//
//go:noescape
func descBins8(c *descChunk, angle float64, special *[evalChunk / 8]uint8)
