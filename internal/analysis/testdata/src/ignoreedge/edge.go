package fixture

import (
	"os"
	"sync"
)

// docIgnored's doc-group directive names errcheck in a comma list; it
// must suppress every errcheck finding anywhere in the declaration. The
// list's other name is no check, which is itself a finding.
//
//texlint:ignore errcheck,nosuchcheck fixture: a doc-group directive covers the whole declaration for every listed check
func docIgnored() {
	os.Remove("scratch")
	os.Remove("scratch2")
}

func trailingIgnored() {
	os.Remove("scratch") //texlint:ignore errcheck fixture: a trailing directive covers exactly its own line
}

func notIgnored() {
	os.Remove("scratch")
}

// A directive in a var block's doc group spans the whole GenDecl, not
// just the line below the comment.
//
//texlint:ignore errcheck fixture: var-block doc directive spans the declaration
var (
	blockStart = 1
	blockStamp = func() int {
		os.Remove("scratch")
		return blockStart
	}()
)

// Directives texlint does not know (here ones it used to) are findings,
// not silent no-ops: the contracts they marked are held by tests now, and
// a leftover must not read as enforced.
//
//texlint:untrusted
func useAll() int { return blockStamp }

//texlint:scratchalias
func aliasing() {}

//texlint:clockdomain
func clocked() {}

//texlint:freelist
func recycle() {}

type counter struct {
	mu sync.Mutex
	//texlint:guards mu
	n int
}
