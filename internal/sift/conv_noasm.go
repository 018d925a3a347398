//go:build !amd64

package sift

// Non-amd64 builds always take the portable blur loops in pyramid.go.
const useAVX512 = false

func convH(dst, src, k []float32) {
	panic("sift: asm kernel on non-amd64 build")
}

func convV(dst, src []float32, stride int, k []float32) {
	panic("sift: asm kernel on non-amd64 build")
}
