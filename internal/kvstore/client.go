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
// single connection and is safe for concurrent use.
type Client struct {
	mu sync.Mutex
	// conn is immutable after Dial; Close uses it without mu by design
	// (closing the socket is what unblocks a request parked in do).
	conn net.Conn
	//texlint:guards mu
	r *bufio.Reader
	//texlint:guards mu
	w       *bufio.Writer
	timeout time.Duration // per-exchange I/O deadline; 0 = none
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
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), timeout: timeout}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// do sends one command and reads its reply.
//
//texlint:ignore lockcheck the request/response exchange must be atomic on the shared connection
func (c *Client) do(args ...[]byte) (reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
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
	rep, err := readReply(c.r)
	if err != nil {
		return reply{}, err
	}
	if rep.kind == '-' {
		return reply{}, fmt.Errorf("kvstore: server error: %s", rep.str)
	}
	return rep, nil
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
