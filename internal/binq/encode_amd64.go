//go:build amd64

package binq

import "texid/internal/blas"

// encode128 writes the codes of cols ≥ 1 columns of MaxDim float32s,
// stride floats apart from col on, against the MaxDim thresholds at t into
// the cols Codes at dst — EncodePortable's bits — on AVX-512 compares. See
// encode_amd64.s.
//
//go:noescape
func encode128(t *float32, col *float32, stride, cols int, dst *Code)

// useAVX512F gates the native encode tier. blas owns the CPUID probe and
// its TEXID_NOASM escape, so one switch turns off every assembly tier.
var useAVX512F = blas.UseAVX512F()
