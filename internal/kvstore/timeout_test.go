package kvstore

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDialTimeoutOnSilentServer verifies the bounded client: a server that
// accepts the connection but never replies must fail the exchange within
// the deadline instead of blocking forever.
func TestDialTimeoutOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never reply
		}
	}()

	c, err := DialTimeout(ln.Addr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Ping(); err == nil {
		t.Fatal("silent server did not error")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("timed out after %v, want ~100ms", waited)
	}
}

// TestLateReplyIsNotReadAsTheNextCommands: a reply that arrives after the
// client gave up on its command must never be read as the answer to a
// later one. The server withholds its first reply until the next command
// arrives on the same connection and then sends both, so a client that
// kept the connection after the timeout reads the stale +OK as DBSIZE's
// answer. A failed exchange must drop the connection; the next command
// redials and reads its own reply.
func TestLateReplyIsNotReadAsTheNextCommands(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serveLate(conn, accepted.Add(1) == 1)
		}
	}()

	c, err := DialTimeout(ln.Addr().String(), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("a", []byte("1")); err == nil {
		t.Fatal("SET succeeded while the server withheld its reply")
	}
	if n, err := c.DBSize(); err != nil || n != 7 {
		t.Fatalf("DBSIZE after a timed-out SET = %d, %v; want 7, its own reply", n, err)
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("server accepted %d connections, want 2 (the failed exchange's connection is not reused)", got)
	}
}

// serveLate answers SET with +OK and DBSIZE with :7. With late set it
// withholds its first reply until the next command arrives, then writes
// both in order.
func serveLate(conn net.Conn, late bool) {
	defer conn.Close()
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	var held [][]byte
	for {
		args, err := readCommand(r)
		if err != nil {
			return
		}
		if late {
			held, late = args, false
			continue
		}
		for _, cmd := range [][][]byte{held, args} {
			switch {
			case cmd == nil:
			case string(cmd[0]) == "DBSIZE":
				writeInt(w, 7)
			default:
				writeSimple(w, "OK")
			}
		}
		held = nil
		if w.Flush() != nil {
			return
		}
	}
}

// TestCloseUnblocksAParkedRequest: Close must not wait for the exchange
// lock. With no deadline, a request parked on a silent server ends only
// when Close shuts the socket under it, so Close waiting behind that
// request would hang both.
func TestCloseUnblocksAParkedRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readCommand(bufio.NewReader(conn)); err == nil {
			close(received)
		}
		_, _ = io.Copy(io.Discard, conn) // never reply; hold the line until the client hangs up
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pinged := make(chan error, 1)
	go func() { pinged <- c.Ping() }()
	<-received // PING is on the wire: the exchange holds mu, parked in its read

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited behind the parked request")
	}
	select {
	case err := <-pinged:
		if err == nil {
			t.Fatal("PING to a silent server succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked request outlived Close")
	}
	if err := c.Ping(); err == nil {
		t.Fatal("a closed client redialed")
	}
}

// scriptedConn is a net.Conn that answers every read from reply and fails
// SetDeadline or Write when told to: the client's exchange steps, one at a
// time, with no socket in the way.
type scriptedConn struct {
	net.Conn // nil: the methods below are all a Client calls
	reply    *strings.Reader
	deadline error
	write    error
	closed   bool
}

func (c *scriptedConn) Read(p []byte) (int, error) { return c.reply.Read(p) }

func (c *scriptedConn) Write(p []byte) (int, error) {
	if c.write != nil {
		return 0, c.write
	}
	return len(p), nil
}

func (c *scriptedConn) SetDeadline(time.Time) error { return c.deadline }

func (c *scriptedConn) Close() error {
	c.closed = true
	return nil
}

// TestExchangeReturnsTheStepError: when setting the deadline or flushing
// the request fails, the command must fail with that error and drop the
// connection, even though the peer would have answered.
func TestExchangeReturnsTheStepError(t *testing.T) {
	errStep := errors.New("injected")
	for _, tc := range []struct {
		name string
		conn *scriptedConn
	}{
		{"deadline", &scriptedConn{deadline: errStep}},
		{"flush", &scriptedConn{write: errStep}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.conn.reply = strings.NewReader("+PONG\r\n")
			c := &Client{timeout: time.Second, conn: tc.conn, r: bufio.NewReader(tc.conn), w: bufio.NewWriter(tc.conn)}
			if err := c.Ping(); !errors.Is(err, errStep) {
				t.Fatalf("Ping = %v, want the %s error", err, tc.name)
			}
			if !tc.conn.closed {
				t.Error("the failed exchange's connection was kept")
			}
		})
	}
}
