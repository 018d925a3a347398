//go:build amd64

package sift

// exp8 sets dst[i] = math.Exp(x[i]) for every i < len(dst), len(x) >=
// len(dst), except in the lanes it flags: bit j of special[g] marks lane
// 8g+j as outside the kernel's domain (|x| > 700 or NaN), with its dst
// unspecified. special holds at least ⌈len(dst)/8⌉ bytes. Needs AVX512F
// and FMA; see eval_amd64.s.
//
//go:noescape
func exp8(dst, x []float64, special []uint8)

// atan2x8 sets dst[i] = math.Atan2(y[i], x[i]) for every i < len(dst),
// len(y), len(x) >= len(dst), except in the lanes it flags as exp8 does:
// those whose x or y is zero or not finite, or whose y/x is zero or
// infinite. Needs AVX512F; see eval_amd64.s.
//
//go:noescape
func atan2x8(dst, y, x []float64, special []uint8)
