package fixture

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

func handled() error {
	if err := mayFail(); err != nil {
		return err
	}
	return nil
}

func explicitDiscard() {
	_ = mayFail()
}

func deferredCleanup(f *os.File) {
	defer f.Close()
}

func exemptWriters(sb *strings.Builder, bw *bufio.Writer) error {
	fmt.Println("stdout is exempt")
	fmt.Fprintf(os.Stderr, "stderr is exempt\n")
	fmt.Fprintf(sb, "in-memory writers are exempt")
	sb.WriteString("so are their methods")
	bw.WriteString("bufio errors are sticky")
	return bw.Flush() // Flush is where the sticky error surfaces; it is checked.
}

// A deliberate drop is an explicit discard with a comment saying why,
// inside a deferred closure as anywhere else.
func deferredClosureDiscard(f *os.File) {
	defer func() {
		_ = f.Close() // read-only file: nothing to lose on close
	}()
}
