//go:build !amd64

package binq

// Non-amd64 builds always take the scalar scan in binq.go.
const useVPOPCNTQ = false

func scanVPOPCNTQ(block, probes []Code) uint32 {
	panic("binq: asm kernel on non-amd64 build")
}
