package kvstore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
)

// Append-only-file persistence (Redis's AOF, simplified): every mutation is
// logged as a RESP command array and replayed on open, so a restarted
// store recovers its contents. The log format IS the wire protocol, which
// keeps one parser for both.

// aofLog serializes mutations to disk.
type aofLog struct {
	mu sync.Mutex
	//texlint:guards mu
	f *os.File
	//texlint:guards mu
	w *bufio.Writer
}

// append logs one command and flushes it (durability over throughput; the
// store's write volume is feature enrollments, not a hot path).
//
//texlint:ignore lockcheck serializing whole records through the shared writer is this mutex's purpose
func (a *aofLog) append(args ...[]byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	writeArrayHeader(a.w, len(args))
	for _, arg := range args {
		writeBulk(a.w, arg)
	}
	return a.w.Flush()
}

//texlint:ignore lockcheck the final flush must not interleave with a concurrent append
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
// existing log records are replayed into a fresh store, and every
// subsequent mutation is appended. Close the store with CloseAOF to flush.
func OpenAOF(path string) (*Store, error) {
	s := NewStore()

	// Replay phase (no logging while replaying).
	if f, err := os.Open(path); err == nil {
		r := bufio.NewReader(f)
		for {
			// EOF before a record starts is a clean end; EOF (or anything
			// else) mid-record means a truncated/corrupt log.
			if _, err := r.Peek(1); err == io.EOF {
				break
			}
			args, err := readCommand(r)
			if err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("kvstore: corrupt AOF %s: %w", path, err)
			}
			if err := s.replay(args); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("kvstore: replaying AOF %s: %w", path, err)
			}
		}
		// Close errors are irrelevant for a file only ever read from.
		_ = f.Close()
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
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

// replay applies one logged mutation (s.aof is still nil, so nothing is
// logged back).
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
