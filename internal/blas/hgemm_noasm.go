//go:build !amd64

package blas

import "texid/internal/half"

// Non-amd64 builds always take the portable HGemm kernels in hgemm.go.
const (
	useF16C = false
	useFP16 = false
)

func hkernPH(ap *half.Float16, k int, b *[8]*half.Float16, c *[8]*float32, mask uint32, alpha float32) {
	panic("blas: asm kernel on non-amd64 build")
}

func hgemmTop2Tile(b *half.Float16, k int, a *half.Float16, astride uintptr, rows, row0 int, norms, best, second *float32, idx *int32, alpha, inv float32, mask uint32) {
	panic("blas: asm kernel on non-amd64 build")
}

func hkernOct16(a *float32, k int, bo *float32, out *float32) {
	panic("blas: asm kernel on non-amd64 build")
}

func hkernOct32(a *float32, k int, bo *float32, out *float32) {
	panic("blas: asm kernel on non-amd64 build")
}

func vcvtph2ps8(dst *float32, src *half.Float16, n int) {
	panic("blas: asm kernel on non-amd64 build")
}

func cvtHalf16(dst *half.Float16, src *float32, n int, scale float32) int {
	panic("blas: asm kernel on non-amd64 build")
}
