package half

// Vector is a dense slice of binary16 values. Feature matrices are stored as
// Vectors in column-major order when resident in simulated device memory.
type Vector []Float16

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
