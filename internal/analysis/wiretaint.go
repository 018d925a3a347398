package analysis

import (
	"fmt"
	"go/token"
)

// wiretaint: every integer or length that originates at an untrusted
// source — a net.Conn, an inbound *http.Request, or a parameter of a
// function annotated //texlint:untrusted (the RESP parser, wire.Decode,
// snapshot.Load) — must pass a recognized sanitizer before it sizes
// memory: a comparison against a constant or len/cap-derived bound, the
// builtin min/max with a constant operand, or an internal/limits helper.
// Unsanitized flows into make, slice bounds, indexing, or loop bounds are
// reported with the source→sink call chain.
//
// The escape hatch is the usual one: a //texlint:ignore wiretaint on a call
// line stops interprocedural propagation through that edge.

// NewWireTaint returns the untrusted-length taint check.
func NewWireTaint() *Analyzer {
	return &Analyzer{
		Name: "wiretaint",
		Doc:  "untrusted wire lengths must pass a bound check before sizing memory",
		Run:  runWireTaint,
	}
}

func runWireTaint(prog *Program) []Diagnostic {
	fg := buildFlow(prog, "wiretaint")
	var out []Diagnostic
	for _, fn := range fg.sortedFuncs() {
		chain := fg.chainFor(fn)
		suffix := ""
		if chain != "" {
			suffix = fmt.Sprintf(" (untrusted path: %s)", chain)
		}
		fg.analyze(fn, func(pos token.Pos, msg string) {
			out = append(out, Diagnostic{
				Pos:     prog.Fset.Position(pos),
				Check:   "wiretaint",
				Message: msg + suffix,
				Chain:   chain,
			})
		})
	}
	return out
}
