package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
)

// Append-only-file persistence (Redis's AOF, simplified): every mutation is
// logged as a RESP command array and replayed on open, so a restarted
// store recovers its contents. The log format IS the wire protocol, which
// keeps one parser for both.

// Recovery contract: a record is acknowledged once append returns nil, and
// an unacknowledged record is wholly absent after a restart. A crash (or a
// failed write) can leave a prefix of one record at the end of the file;
// replay recognizes it by running out of file inside the record and cuts
// it off, and append cuts its own half-written record off when Flush
// fails, so a torn record never ends up buried mid-log. Records carry no
// checksum: any other damage — a record that parses wrong, or one replay
// does not know — is refused, not repaired.

// countFile is the log file plus a count of the bytes moved through it.
// Opened O_APPEND, so the count after replay is both the file's size and
// where the next record starts.
type countFile struct {
	*os.File
	n int64
}

func (c *countFile) Read(p []byte) (int, error) {
	n, err := c.File.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	c.n += int64(n)
	return n, err
}

// aofLog serializes mutations to disk.
type aofLog struct {
	// mu owns f and w. It is held across the write and flush of a whole
	// record: serializing records through the shared writer is its purpose.
	mu sync.Mutex
	f  *countFile
	w  *bufio.Writer
}

// append logs one command and flushes it (durability over throughput; the
// store's write volume is feature enrollments, not a hot path). When the
// flush fails, whatever part of the record reached the file is truncated
// away and the writer reset, so the log still ends on a whole record and a
// later append can succeed.
// Serializing whole records through the shared writer is this mutex's
// purpose, so it is held across the flush.
func (a *aofLog) append(args ...[]byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	start := a.f.n
	writeArrayHeader(a.w, len(args))
	for _, arg := range args {
		writeBulk(a.w, arg)
	}
	err := a.w.Flush()
	if err != nil {
		a.w.Reset(a.f)
		// The flush error is the one worth reporting; if the truncate fails
		// too the count keeps the bytes that did reach the file.
		if a.f.Truncate(start) == nil {
			a.f.n = start
		}
	}
	return err
}

// close flushes and closes the log; the final flush must not interleave
// with a concurrent append, so it runs under mu.
func (a *aofLog) close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.w.Flush(); err != nil {
		_ = a.f.Close() // the flush error is the one worth reporting
		return err
	}
	return a.f.Close()
}

// OpenAOF opens (or creates) an append-only-file-backed store at path:
// existing log records are replayed into a fresh store, a record cut off
// by the end of the file is dropped (see the recovery contract above), and
// every subsequent mutation is appended. Close the store with CloseAOF to
// flush.
func OpenAOF(path string) (*Store, error) {
	file, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s := NewStore()
	f := &countFile{File: file}
	fail := func(err error) (*Store, error) {
		_ = f.Close() // nothing was written through it; err is the report
		return nil, err
	}

	// Replay phase (s.aof is still nil, so nothing is logged back). whole
	// is the offset just past the last record replayed.
	r := bufio.NewReader(f)
	var whole int64
	for {
		args, err := readCommand(r)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			break // the end of the log, between records or inside the last
		}
		if err != nil {
			return fail(fmt.Errorf("kvstore: corrupt AOF %s: %w", path, err))
		}
		if err := s.replay(args); err != nil {
			return fail(fmt.Errorf("kvstore: replaying AOF %s: %w", path, err))
		}
		whole = f.n - int64(r.Buffered())
	}
	if torn := f.n - whole; torn > 0 {
		if err := f.Truncate(whole); err != nil {
			return fail(fmt.Errorf("kvstore: dropping the torn tail of AOF %s: %w", path, err))
		}
		log.Printf("kvstore: AOF %s ended inside a record; dropped the %d-byte unacknowledged tail, kept %d bytes", path, torn, whole)
		f.n = whole
	}

	s.mu.Lock()
	s.aof = &aofLog{f: f, w: bufio.NewWriter(f)}
	s.mu.Unlock()
	return s, nil
}

// CloseAOF flushes and closes the store's log (no-op for in-memory stores).
func (s *Store) CloseAOF() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aof == nil {
		return nil
	}
	a := s.aof
	s.aof = nil
	return a.close()
}

// replay applies one logged mutation.
func (s *Store) replay(args [][]byte) error {
	if len(args) == 0 {
		return fmt.Errorf("empty record")
	}
	cmd := string(args[0])
	switch cmd {
	case "SET":
		if len(args) != 3 {
			return fmt.Errorf("bad SET record")
		}
		return s.Set(string(args[1]), args[2])
	case "DEL":
		keys := make([]string, len(args)-1)
		for i := range keys {
			keys[i] = string(args[i+1])
		}
		_, err := s.Del(keys...)
		return err
	default:
		return fmt.Errorf("unknown record %q", cmd)
	}
}

// log appends a mutation record when AOF is enabled. Callers hold s.mu and
// apply the mutation only if it returns nil, so memory never runs ahead of
// the log.
func (s *Store) log(args ...[]byte) error {
	if s.aof == nil {
		return nil
	}
	if err := s.aof.append(args...); err != nil {
		return fmt.Errorf("kvstore: AOF write failed: %w", err)
	}
	return nil
}
