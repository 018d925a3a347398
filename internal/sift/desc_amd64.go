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

// orientGather8 writes lanes c.n … c.n+n−1 of c as orientChunk.gather's
// Go loop writes them, bit for bit, for |dx|, |dy| <= 2^26 (the run's
// columns dx … dx+n−1 too); it leaves c.n to the caller. pix holds the
// run's three rows, len 2·gw+n. Needs AVX512F; see desc_amd64.s.
//
//go:noescape
func orientGather8(c *gradChunk, n int, pix []float32, gw, dx, dy int, inv float64)

// descGather8 writes lanes c.n … c.n+n−1 of c as descChunk.gather's Go
// loop writes them, bit for bit; it leaves c.n to the caller. pix holds
// the run's three rows, len 2·gw+n. Needs AVX512F; see desc_amd64.s.
//
//go:noescape
func descGather8(c *descChunk, n int, pix []float32, gw int, r *descRun)

// orientBins8 writes, for each of c's c.n evaluated pixels, what
// c.prepPixel(i) writes — its bin and weighted magnitude — bit for bit,
// except in the lanes it flags: bit j of special[g] marks lane 8g+j,
// whose outputs are unspecified, when its bin coordinate (ang+π)/2π·36 is
// outside [0, 36] or its weighted magnitude is not finite. Needs AVX512F;
// see desc_amd64.s.
//
//go:noescape
func orientBins8(c *orientChunk, special *[evalChunk / 8]uint8)
