package fixture

import "os"

// A //texlint:ignore comment is an ordinary comment: texlint has no
// suppression language, so the drops below are findings wherever the
// comment sits.
//
//texlint:ignore errcheck a doc-group comment covers nothing
func docIgnored() {
	os.Remove("scratch") // want "error result of os.Remove is dropped"
}

func trailingIgnored() {
	os.Remove("scratch") //texlint:ignore errcheck a trailing comment covers nothing // want "error result of os.Remove is dropped"
}
