package fixture

import "sort"

// sortedEmit uses the collect-then-sort idiom: the iteration order never
// reaches the output.
//
//texlint:deterministic
func sortedEmit(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// total is order-insensitive accumulation: addition commutes.
//
//texlint:deterministic
func total(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

// Map-to-map copies do not observe iteration order.
//
//texlint:deterministic
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// guarded stops traversal at a reviewed call edge.
//
//texlint:deterministic
func guarded() int {
	return firstReady() //texlint:ignore maporder single-producer channel; arrival order reviewed as immaterial
}

// firstReady is only called through the reviewed edge, so its select is
// out of the deterministic closure.
func firstReady() int {
	a, b := make(chan int, 1), make(chan int, 1)
	a <- 1
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// debugDump is not reachable from any deterministic root: its ordering is
// not maporder's business.
func debugDump(m map[string]int) string {
	s := ""
	for k := range m {
		s += k
	}
	return s
}
