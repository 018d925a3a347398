//go:build amd64

package binq

import "texid/internal/blas"

// scanLanes returns Σ_p min_j Hamming(probe p, block[j]) — scanScalar's
// value — on AVX-512 VPOPCNTQ, for the probes transposed into groups
// (Scanner.transpose). len(block) must be at least 1; any group count,
// zero included, is accepted. See scan_amd64.s.
//
//go:noescape
func scanLanes(block []Code, groups []laneGroup) uint32

// useVPOPCNTQ gates the native scan tier. blas owns the CPUID probe and its
// TEXID_NOASM escape, so one switch turns off every assembly tier.
var useVPOPCNTQ = blas.UseVPOPCNTQ()
