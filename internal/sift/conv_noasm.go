//go:build !amd64

package sift

// Non-amd64 builds always take the portable blur loops in pyramid.go and
// the math loops in eval.go.
const useAVX512 = false

func convH(dst, src, k []float32) {
	panic("sift: asm kernel on non-amd64 build")
}

func convV(dst, src []float32, stride int, k []float32) {
	panic("sift: asm kernel on non-amd64 build")
}

func exp8(dst, x []float64, special []uint8) {
	panic("sift: asm kernel on non-amd64 build")
}

func atan2x8(dst, y, x []float64, special []uint8) {
	panic("sift: asm kernel on non-amd64 build")
}
