package kvstore

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
)

// Server serves a Store over TCP using RESP.
type Server struct {
	store *Store
	ln    net.Listener

	// mu owns conns and closed. Close releases it before waiting on wg:
	// every connection goroutine takes it on the way out.
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts serving the store on addr (e.g. "127.0.0.1:0") and returns
// immediately; the listener runs until Close.
func Serve(store *Store, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{store: store, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and closes every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		_ = c.Close() // best-effort teardown; the listener error is the one reported
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		args, err := readCommand(r)
		if err != nil {
			return
		}
		if !s.dispatch(w, args) {
			_ = w.Flush() // QUIT reply delivery is best-effort; the conn closes either way
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// dispatch executes one command and writes its reply; it returns false when
// the connection should close (QUIT).
func (s *Server) dispatch(w *bufio.Writer, args [][]byte) bool {
	if len(args) == 0 {
		writeError(w, "empty command")
		return true
	}
	cmd := strings.ToUpper(string(args[0]))
	str := func(i int) string { return string(args[i]) }
	switch cmd {
	case "PING":
		if len(args) == 2 {
			writeBulk(w, args[1])
		} else {
			writeSimple(w, "PONG")
		}
	case "SET":
		if len(args) != 3 {
			writeError(w, "wrong number of arguments for 'set'")
			break
		}
		if err := s.store.Set(str(1), args[2]); err != nil {
			writeError(w, err.Error())
			break
		}
		writeSimple(w, "OK")
	case "GET":
		if len(args) != 2 {
			writeError(w, "wrong number of arguments for 'get'")
			break
		}
		v, ok := s.store.Get(str(1))
		if !ok {
			writeBulk(w, nil)
		} else {
			writeBulk(w, v)
		}
	case "DEL":
		if len(args) < 2 {
			writeError(w, "wrong number of arguments for 'del'")
			break
		}
		keys := make([]string, len(args)-1)
		for i := range keys {
			keys[i] = str(i + 1)
		}
		n, err := s.store.Del(keys...)
		if err != nil {
			writeError(w, err.Error())
			break
		}
		writeInt(w, n)
	case "KEYS":
		if len(args) != 2 {
			writeError(w, "wrong number of arguments for 'keys'")
			break
		}
		keys := s.store.Keys(str(1))
		writeArrayHeader(w, len(keys))
		for _, k := range keys {
			writeBulk(w, []byte(k))
		}
	case "DBSIZE":
		writeInt(w, s.store.DBSize())
	case "QUIT":
		writeSimple(w, "OK")
		return false
	default:
		writeError(w, fmt.Sprintf("unknown command '%s'", cmd))
	}
	return true
}
