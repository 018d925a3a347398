package kvstore

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is a minimal RESP client for the kvstore server (or a real Redis,
// for the commands this package implements). It serializes requests over a
// single connection and is safe for concurrent use. An exchange that fails
// short of a reply (a deadline, a broken or garbled stream) drops the
// connection, and the next request dials a fresh one: a reply that arrives
// late must never be read as the answer to a later command.
type Client struct {
	addr    string
	timeout time.Duration // connect and per-exchange I/O deadline; 0 = none

	// mu owns r and w and serializes exchanges: it is held from a
	// request's write to its reply's read. Order: mu before connMu.
	mu sync.Mutex
	r  *bufio.Reader
	w  *bufio.Writer

	// connMu owns conn and closed and is never held across I/O, so Close
	// can close the socket under a request parked in do, which is what
	// unblocks it.
	connMu sync.Mutex
	conn   net.Conn // nil once an exchange failed, until the next do redials
	closed bool
}

// Dial connects to a RESP server with no I/O timeouts (a hung server blocks
// the caller indefinitely; prefer DialTimeout in serving paths).
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout connects to a RESP server, bounding both the connection
// attempt and every subsequent request/response exchange by timeout
// (0 disables the bound).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, timeout: timeout, conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Close closes the connection. A request parked in do fails at once.
func (c *Client) Close() error {
	c.connMu.Lock()
	conn := c.conn
	c.conn, c.closed = nil, true
	c.connMu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}

// do sends one command and reads its reply. The request/response exchange
// is atomic on the shared connection, so mu is held across it.
func (c *Client) do(args ...[]byte) (reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	conn, err := c.connect()
	if err != nil {
		return reply{}, err
	}
	rep, err := c.exchange(conn, args)
	if err != nil {
		// This command's reply may still be in flight; on this connection
		// the next command would read it as its own.
		c.drop(conn)
		return reply{}, err
	}
	if rep.kind == '-' {
		return reply{}, fmt.Errorf("kvstore: server error: %s", rep.str)
	}
	return rep, nil
}

// exchange writes one command to conn and reads one reply. The caller
// holds mu.
func (c *Client) exchange(conn net.Conn, args [][]byte) (reply, error) {
	if c.timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return reply{}, fmt.Errorf("kvstore: setting deadline: %w", err)
		}
	}
	writeArrayHeader(c.w, len(args))
	for _, a := range args {
		writeBulk(c.w, a)
	}
	if err := c.w.Flush(); err != nil {
		return reply{}, err
	}
	return readReply(c.r)
}

// connect returns the open connection, dialing a new one when a failed
// exchange dropped the last. The caller holds mu.
func (c *Client) connect() (net.Conn, error) {
	c.connMu.Lock()
	conn, closed := c.conn, c.closed
	c.connMu.Unlock()
	switch {
	case closed:
		return nil, net.ErrClosed
	case conn != nil:
		return conn, nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, err
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		_ = conn.Close() // Close ran during the dial; its caller wants no connection
		return nil, net.ErrClosed
	}
	c.conn = conn
	c.r.Reset(conn)
	c.w.Reset(conn)
	return conn, nil
}

// drop closes conn after a failed exchange so the next do redials. The
// caller holds mu.
func (c *Client) drop(conn net.Conn) {
	c.connMu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.connMu.Unlock()
	_ = conn.Close() // the exchange's error is the one reported
}

func bs(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// Ping checks connectivity.
func (c *Client) Ping() error {
	rep, err := c.do(bs("PING")...)
	if err != nil {
		return err
	}
	if rep.str != "PONG" {
		return fmt.Errorf("kvstore: unexpected PING reply %q", rep.str)
	}
	return nil
}

// Set stores value under key.
func (c *Client) Set(key string, value []byte) error {
	_, err := c.do([]byte("SET"), []byte(key), value)
	return err
}

// Get fetches key; the bool reports presence.
func (c *Client) Get(key string) ([]byte, bool, error) {
	rep, err := c.do(bs("GET", key)...)
	if err != nil {
		return nil, false, err
	}
	return rep.bulk, rep.bulk != nil, nil
}

// Del removes keys and returns how many existed.
func (c *Client) Del(keys ...string) (int, error) {
	args := append(bs("DEL"), bs(keys...)...)
	rep, err := c.do(args...)
	return rep.n, err
}

// Keys lists keys matching pattern.
func (c *Client) Keys(pattern string) ([]string, error) {
	rep, err := c.do(bs("KEYS", pattern)...)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rep.array))
	for i, r := range rep.array {
		out[i] = string(r.bulk)
	}
	return out, nil
}

// DBSize returns the number of keys.
func (c *Client) DBSize() (int, error) {
	rep, err := c.do(bs("DBSIZE")...)
	return rep.n, err
}
