//go:build !amd64

package blas

// Non-amd64 builds always take the portable kernels in gemm.go.
const (
	useAVX2   = false
	useAVX512 = false
)

// UseVPOPCNTQ reports whether assembly kernels outside this package may use
// AVX-512 VPOPCNTQ; never on a non-amd64 build.
func UseVPOPCNTQ() bool { return false }

// UseAVX512F reports whether assembly kernels outside this package may use
// AVX512F; never on a non-amd64 build.
func UseAVX512F() bool { return false }

func kern8x8(apack *float32, b *float32, bstride uintptr, c *float32, cstride uintptr, k int64, alpha float32, beta float32, mask *int32) {
	panic("blas: asm kernel on non-amd64 build")
}

func kern8x1(apack *float32, b *float32, c *float32, k int64, alpha float32, beta float32, mask *int32) {
	panic("blas: asm kernel on non-amd64 build")
}

func top2Tile(b *float32, k int, a *float32, astride uintptr, rows, row0 int, norms, best, second *float32, idx *int32, alpha float32, mask uint32) {
	panic("blas: asm kernel on non-amd64 build")
}
