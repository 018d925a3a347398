package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"

	"texid/internal/limits"
)

// RESP (REdis Serialization Protocol) framing: requests are arrays of bulk
// strings; replies are simple strings, errors, integers, bulk strings, or
// arrays.

var errProtocol = errors.New("kvstore: protocol error")

// maxBulkLen bounds a single bulk string (512 MB, Redis's own limit).
const maxBulkLen = 512 << 20

// readCommand parses one client command (an array of bulk strings).
// It also accepts the inline format ("PING\r\n") for debugging with nc.
// The reader is a network peer (or a possibly corrupt AOF): every count and
// length parsed here is hostile until bounds-checked.
func readCommand(r *bufio.Reader) ([][]byte, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, errProtocol
	}
	if line[0] != '*' {
		// Inline command: split on spaces.
		var args [][]byte
		for _, f := range splitInline(line) {
			args = append(args, f)
		}
		if len(args) == 0 {
			return nil, errProtocol
		}
		return args, nil
	}
	// A command needs at least its name: reject empty arrays outright
	// (dispatching one would index args[0]).
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil || n < 1 || n > 1<<20 {
		return nil, errProtocol
	}
	// The element count is attacker-controlled: start small and let append
	// grow the slice only as elements actually parse.
	args := make([][]byte, 0, limits.Cap(n, 64))
	for i := 0; i < n; i++ {
		arg, err := readBulk(r)
		if err != nil {
			return nil, err
		}
		args = append(args, arg)
	}
	return args, nil
}

func splitInline(line []byte) [][]byte {
	var out [][]byte
	start := -1
	for i, c := range line {
		if c == ' ' {
			if start >= 0 {
				out = append(out, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, line[start:])
	}
	return out
}

func readBulk(r *bufio.Reader) ([]byte, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '$' {
		return nil, errProtocol
	}
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil || n < -1 || n > maxBulkLen {
		return nil, errProtocol
	}
	if n == -1 {
		return nil, nil // null bulk
	}
	return readBlob(r, n)
}

// readBlob reads an n-byte payload plus its trailing CRLF. The length
// prefix is attacker-controlled (up to maxBulkLen), so memory is committed
// chunk by chunk via limits.ReadChunked, only as payload bytes actually
// arrive — a hostile "$536870912\r\n" header costs the peer half a gigabyte
// of traffic, not us half a gigabyte of RAM.
func readBlob(r *bufio.Reader, n int) ([]byte, error) {
	buf, err := limits.ReadChunked(r, n+2, limits.DefaultChunk)
	if err != nil {
		return nil, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, errProtocol
	}
	return buf[:n], nil
}

func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, errProtocol
	}
	return line[:len(line)-2], nil
}

// Reply writers.

func writeSimple(w *bufio.Writer, s string) { fmt.Fprintf(w, "+%s\r\n", s) }
func writeError(w *bufio.Writer, s string)  { fmt.Fprintf(w, "-ERR %s\r\n", s) }
func writeInt(w *bufio.Writer, n int)       { fmt.Fprintf(w, ":%d\r\n", n) }

func writeBulk(w *bufio.Writer, b []byte) {
	if b == nil {
		w.WriteString("$-1\r\n")
		return
	}
	fmt.Fprintf(w, "$%d\r\n", len(b))
	w.Write(b)
	w.WriteString("\r\n")
}

func writeArrayHeader(w *bufio.Writer, n int) { fmt.Fprintf(w, "*%d\r\n", n) }

// Reply reading (client side).

// reply is a decoded RESP reply.
type reply struct {
	kind  byte // '+', '-', ':', '$', '*'
	str   string
	n     int
	bulk  []byte
	array []reply
}

// maxReplyDepth bounds array nesting so a malicious server cannot drive the
// recursive parser into stack exhaustion.
const maxReplyDepth = 32

// readReply parses one server reply. The reader is a network peer: counts
// and lengths are hostile until bounds-checked.
func readReply(r *bufio.Reader) (reply, error) {
	return readReplyDepth(r, 0)
}

func readReplyDepth(r *bufio.Reader, depth int) (reply, error) {
	if depth > maxReplyDepth {
		return reply{}, errProtocol
	}
	line, err := readLine(r)
	if err != nil {
		return reply{}, err
	}
	if len(line) == 0 {
		return reply{}, errProtocol
	}
	switch line[0] {
	case '+':
		return reply{kind: '+', str: string(line[1:])}, nil
	case '-':
		return reply{kind: '-', str: string(line[1:])}, nil
	case ':':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil {
			return reply{}, errProtocol
		}
		return reply{kind: ':', n: n}, nil
	case '$':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil || n < -1 || n > maxBulkLen {
			return reply{}, errProtocol
		}
		if n == -1 {
			return reply{kind: '$', bulk: nil}, nil
		}
		buf, err := readBlob(r, n)
		if err != nil {
			return reply{}, err
		}
		return reply{kind: '$', bulk: buf}, nil
	case '*':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil || n < 0 || n > 1<<20 {
			return reply{}, errProtocol
		}
		// Like readCommand: grow with parsed elements, never with the
		// untrusted header.
		arr := make([]reply, 0, limits.Cap(n, 64))
		for i := 0; i < n; i++ {
			el, err := readReplyDepth(r, depth+1)
			if err != nil {
				return reply{}, err
			}
			arr = append(arr, el)
		}
		return reply{kind: '*', array: arr}, nil
	}
	return reply{}, errProtocol
}
