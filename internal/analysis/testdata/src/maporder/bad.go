package fixture

import "fmt"

// emit is a deterministic root: its output must not depend on map order.
//
//texlint:deterministic
func emit(m map[string]int) []string {
	var out []string
	for k := range m { // want "map iteration order is random but this loop feeds deterministic output"
		out = append(out, k)
	}
	return out
}

// format is reached transitively; the finding names the chain back to the
// root.
func format(m map[string]int) string {
	s := ""
	for k, v := range m { // want "map iteration order is random.*deterministic path: fixture.report -> fixture.format"
		s += fmt.Sprintf("%s=%d;", k, v)
	}
	return s
}

// report promises byte-stable output but delegates to format.
//
//texlint:deterministic
func report(m map[string]int) string {
	return format(m)
}

// race returns whichever channel happened to be ready first.
//
//texlint:deterministic
func race(a, b chan int) int {
	select { // want "select picks a random ready case"
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Every order-sensitive accumulation counts: append (emit above), printing,
// and string concatenation.
//
//texlint:deterministic
func appendedKeys(m map[string]int) []string {
	var out []string
	for k := range m { // want "map iteration order is random"
		out = append(out, k)
	}
	return out
}

//texlint:deterministic
func printedEntries(m map[string]int) {
	for k, v := range m { // want "map iteration order is random"
		fmt.Println(k, v)
	}
}

//texlint:deterministic
func concatenated(m map[string]int) string {
	s := ""
	for k := range m { // want "map iteration order is random"
		s += k
	}
	return s
}

// badDetAnn: the annotation only means something on functions.
//
//texlint:deterministic // want "texlint:deterministic must be in the doc comment of a function declaration"
var badDetAnn int
