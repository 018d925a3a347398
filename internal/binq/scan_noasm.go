//go:build !amd64

package binq

// Non-amd64 builds always take the scalar scan in binq.go.
const useVPOPCNTQ = false

func scanLanes(block []Code, groups []laneGroup) uint32 {
	panic("binq: asm kernel on non-amd64 build")
}
