package half

import "fmt"

// Vector is a dense slice of binary16 values. Feature matrices are stored as
// Vectors in column-major order when resident in simulated device memory.
type Vector []Float16

// Bytes returns the storage size of the vector in bytes (2 per element).
func (v Vector) Bytes() int { return 2 * len(v) }

// Dot computes the dot product of two equal-length binary16 vectors with
// full FP16 accumulation semantics: each product and each partial sum is
// rounded to binary16, as in pre-Volta HGEMM. It panics if lengths differ.
func Dot(a, b Vector) Float16 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("half: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var acc Float16 // +0
	for i := range a {
		acc = FMA(a[i], b[i], acc)
	}
	return acc
}

// PowerOfTwoScale returns 2^exp as a float32. Table 2 sweeps scale factors
// 2^0 down to 2^-16; powers of two are exact in both binary16 and binary32,
// so scaling introduces no rounding of its own.
func PowerOfTwoScale(exp int) float32 {
	s := float32(1)
	for ; exp > 0; exp-- {
		s *= 2
	}
	for ; exp < 0; exp++ {
		s *= 0.5
	}
	return s
}
