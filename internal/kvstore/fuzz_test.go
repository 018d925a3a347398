package kvstore

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzReadCommand throws arbitrary bytes at the server-side command parser.
// The invariants: never panic, never allocate proportionally to a hostile
// length prefix (the chunked readBlob path), and a successful parse yields
// at least the command word.
func FuzzReadCommand(f *testing.F) {
	f.Add([]byte("*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$0\r\n\r\n"))
	f.Add([]byte("PING\r\n"))                      // inline form
	f.Add([]byte("SET key value\r\n"))             // inline with args
	f.Add([]byte("*1\r\n$-1\r\n"))                 // null bulk inside a command
	f.Add([]byte("*1048577\r\n"))                  // element count over the cap
	f.Add([]byte("*1\r\n$536870913\r\n"))          // bulk length over the cap
	f.Add([]byte("*1\r\n$536870912\r\nhi\r\n"))    // huge claimed length, tiny payload
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$3\r\nab"))   // truncated payload
	f.Add([]byte("*1\r\n$2\r\nabXY"))              // missing CRLF terminator
	f.Add([]byte("\r\n"))                          // empty line
	f.Add([]byte("*-1\r\n"))                       // negative count
	f.Add([]byte("*1\r\n$999999999999999999\r\n")) // length prefix overflow

	f.Fuzz(func(t *testing.T, data []byte) {
		args, err := readCommand(bufio.NewReader(bytes.NewReader(data)))
		if err == nil && len(args) == 0 {
			t.Fatal("parse succeeded with zero arguments")
		}
	})
}

// FuzzReadReply throws arbitrary bytes at the client-side reply parser
// (hostile or corrupted server). Invariants: no panic, no stack exhaustion
// from nested arrays, no allocation driven by unparsed length prefixes.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte("-ERR boom\r\n"))
	f.Add([]byte(":42\r\n"))
	f.Add([]byte("$5\r\nhello\r\n"))
	f.Add([]byte("$-1\r\n"))
	f.Add([]byte("*2\r\n$1\r\na\r\n:7\r\n"))
	f.Add([]byte("*1\r\n*1\r\n*1\r\n:0\r\n")) // nesting
	f.Add(bytes.Repeat([]byte("*1\r\n"), 64)) // nesting past the depth cap
	f.Add([]byte("$536870912\r\nx\r\n"))      // huge claimed bulk, tiny payload
	f.Add([]byte("*1048577\r\n"))             // array count over the cap
	f.Add([]byte(":notanumber\r\n"))          // bad integer
	f.Add([]byte("$3\r\nabcXY"))              // missing CRLF
	f.Add([]byte("?what\r\n"))                // unknown type byte

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := readReply(bufio.NewReader(bytes.NewReader(data)))
		if err == nil {
			switch rep.kind {
			case '+', '-', ':', '$', '*':
			default:
				t.Fatalf("parse succeeded with bogus kind %q", rep.kind)
			}
		}
	})
}
