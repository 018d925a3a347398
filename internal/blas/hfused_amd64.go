//go:build amd64

package blas

import "texid/internal/half"

// hgemmTop2Tile folds one 8(rows)×32(columns) binary16 tile of
// C = inv·(alpha·AᵀB) + norms into the running top-2 of its 32 columns.
// See hfused_amd64.s.
//
// b is the tile's packed B panel, b[l*32+c] = B[l, j0+c]; a points at the
// tile's first A column and the next rows-1 columns follow astride bytes
// apart; row0 is that column's row offset within its block, the index a
// win records. norms points at the rows' norms (negZeros for none). best,
// second and idx point at the 32 lanes' running state; bit c of mask
// enables lane c, so a short last panel reads and writes only its columns.
//
//go:noescape
func hgemmTop2Tile(b *half.Float16, k int, a *half.Float16, astride uintptr, rows, row0 int, norms, best, second *float32, idx *int32, alpha, inv float32, mask uint32)
