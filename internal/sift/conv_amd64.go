//go:build amd64

package sift

import "texid/internal/blas"

// convH writes the horizontal taps of one edge-padded row: dst[x] =
// Σ_i k[i]·src[x+i] in ascending i from +0, for len(dst) a multiple of 16
// and len(src) = len(dst)+len(k)−1. See conv_amd64.s.
//
//go:noescape
func convH(dst, src, k []float32)

// convV writes the vertical taps of one output row: dst[x] =
// Σ_i k[i]·src[i·stride+x] in ascending i from k[0]·src[x], for len(dst) a
// multiple of 16 and len(src) = (len(k)−1)·stride+len(dst). A non-empty
// dog, len(dst) long like in, then receives dst[x] − in[x]. See
// conv_amd64.s.
//
//go:noescape
func convV(dst, src []float32, stride int, k []float32, dog, in []float32)

// useAVX512 gates the native blur tier. blas owns the CPUID probe and its
// TEXID_NOASM escape, so one switch turns off every assembly tier.
var useAVX512 = blas.UseAVX512F()
