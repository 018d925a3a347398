//go:build amd64

package sift

// extrema16 writes the candidate masks of one row segment of a DoG slab:
// bit j of mask[b] is set exactly when centre 16b+j passes detectExtrema's
// contrast test against t32 and isExtremum's 26-neighbour test. d0, d1 and
// d2 start at the top-left neighbour of the first centre in their level
// and hold 2·stride+n+2 pixels for n centres, so len(d1) fixes n;
// len(mask) >= ⌈n/16⌉. Needs AVX512F; see extrema_amd64.s.
//
//go:noescape
func extrema16(mask []uint16, d0, d1, d2 []float32, stride int, t32 float32)
