package fixture

import "os"

// docIgnored's doc-group directive names two checks; it must suppress
// every finding of both checks anywhere in the declaration.
//
//texlint:ignore hotalloc,errcheck fixture: a doc-group directive covers the whole declaration for every listed check
//texlint:hotpath
func docIgnored() []int {
	os.Remove("scratch")
	return make([]int, 4)
}

//texlint:hotpath
func trailingIgnored() []int {
	return make([]int, 4) //texlint:ignore hotalloc fixture: a trailing directive covers exactly its own line
}

//texlint:hotpath
func notIgnored() []int {
	return make([]int, 8)
}

// A directive in a var block's doc group spans the whole GenDecl, not
// just the line below the comment.
//
//texlint:ignore hotalloc fixture: var-block doc directive spans the declaration
var (
	blockBuf = make([]int, 16)
	blockTab = make([]int, 32)
)

//texlint:ignore nosuchcheck fixture: unknown check names must be diagnosed
var sentinel int64

func useAll() int64 {
	_ = blockBuf
	_ = blockTab
	return sentinel
}
