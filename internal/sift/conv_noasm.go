//go:build !amd64

package sift

// Non-amd64 builds always take the portable blur loops in pyramid.go, the
// math loops in eval.go and the scalar extremum and descriptor loops.
const useAVX512 = false

func convH(dst, src, k []float32) {
	panic("sift: asm kernel on non-amd64 build")
}

func convV(dst, src []float32, stride int, k []float32, dog, in []float32) {
	panic("sift: asm kernel on non-amd64 build")
}

func exp8(dst, x []float64, special []uint8) {
	panic("sift: asm kernel on non-amd64 build")
}

func atan2x8(dst, y, x []float64, special []uint8) {
	panic("sift: asm kernel on non-amd64 build")
}

func extrema16(mask []uint16, d0, d1, d2 []float32, stride int, t32 float32) {
	panic("sift: asm kernel on non-amd64 build")
}

func descBins8(c *descChunk, angle float64, special *[evalChunk / 8]uint8) {
	panic("sift: asm kernel on non-amd64 build")
}

func orientGather8(c *gradChunk, n int, pix []float32, gw, dx, dy int, inv float64) {
	panic("sift: asm kernel on non-amd64 build")
}

func descGather8(c *descChunk, n int, pix []float32, gw int, r *descRun) {
	panic("sift: asm kernel on non-amd64 build")
}

func orientBins8(c *orientChunk, special *[evalChunk / 8]uint8) {
	panic("sift: asm kernel on non-amd64 build")
}
