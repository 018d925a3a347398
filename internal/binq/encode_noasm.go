//go:build !amd64

package binq

// Non-amd64 builds always take the scalar encode in binq.go.
const useAVX512F = false

func encode128(t *float32, col *float32, stride, cols int, dst *Code) {
	panic("binq: asm kernel on non-amd64 build")
}
