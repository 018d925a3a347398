package fixture

import (
	"os"
	"sync"
	"time"
)

// docIgnored's doc-group directive names two checks; it must suppress
// every finding of both checks anywhere in the declaration.
//
//texlint:ignore clockdomain,errcheck fixture: a doc-group directive covers the whole declaration for every listed check
//texlint:clockdomain
func docIgnored() time.Time {
	os.Remove("scratch")
	return time.Now()
}

//texlint:clockdomain
func trailingIgnored() time.Time {
	return time.Now() //texlint:ignore clockdomain fixture: a trailing directive covers exactly its own line
}

//texlint:clockdomain
func notIgnored() time.Time {
	return time.Now()
}

// A directive in a var block's doc group spans the whole GenDecl, not
// just the line below the comment.
//
//texlint:ignore clockdomain fixture: var-block doc directive spans the declaration
var (
	blockStart = time.Now()
	blockStamp = time.Now()
)

//texlint:ignore nosuchcheck fixture: unknown check names must be diagnosed
var sentinel int64

// A directive texlint does not know (here one it used to) is a finding,
// not a silent no-op.
//
//texlint:untrusted
func useAll() int64 {
	_ = blockStart
	_ = blockStamp
	return sentinel
}

// So is a field annotation of a retired check: lock ownership is now a
// plain comment, and a leftover directive must not read as enforced.
type counter struct {
	mu sync.Mutex
	//texlint:guards mu
	n int
}
