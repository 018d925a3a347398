// Package kvstore is a minimal Redis-compatible in-memory key-value store:
// the metadata service of the distributed search system (Fig. 6 runs one
// Redis container; this package is the stdlib substitute). It speaks a
// subset of RESP (REdis Serialization Protocol) over TCP — enough for the
// system's needs, which are the paper's (Sec. 8): string keys holding
// serialized feature records, listed and counted at restart.
//
// Supported commands: PING, SET, GET, DEL, KEYS, DBSIZE, QUIT. Anything
// else answers "unknown command".
package kvstore

import (
	"sort"
	"strings"
	"sync"
)

// Store is the in-memory database. It is safe for concurrent use and can
// be used directly (embedded) or served over TCP.
type Store struct {
	// mu owns strings and aof. Writers hold it across the AOF append, so
	// memory never runs ahead of the log.
	mu      sync.RWMutex
	strings map[string][]byte
	aof     *aofLog // nil for purely in-memory stores
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{strings: make(map[string][]byte)}
}

// Set stores value under key, replacing any previous value. With an AOF
// the record is logged first and the store changes only once the log has
// it: a failed write leaves the key as it was.
func (s *Store) Set(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log([]byte("SET"), []byte(key), value); err != nil {
		return err
	}
	s.strings[key] = append([]byte(nil), value...)
	return nil
}

// Get returns the value under key, with a presence flag.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.strings[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Del removes keys, returning how many existed. Each removal is logged
// before it is applied; on a log failure the keys not yet removed stay.
func (s *Store) Del(keys ...string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range keys {
		if _, ok := s.strings[k]; !ok {
			continue
		}
		if err := s.log([]byte("DEL"), []byte(k)); err != nil {
			return n, err
		}
		delete(s.strings, k)
		n++
	}
	return n, nil
}

// Keys returns all keys matching the glob pattern (only "*" wildcards are
// supported, which covers Redis's common usage), sorted for determinism.
func (s *Store) Keys(pattern string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k := range s.strings {
		if globMatch(pattern, k) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// DBSize returns the number of keys.
func (s *Store) DBSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.strings)
}

// globMatch matches pattern against s where '*' matches any run of
// characters. '?' and character classes are not supported.
func globMatch(pattern, s string) bool {
	if pattern == "*" || pattern == "" {
		return true
	}
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == s
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for _, p := range parts[1 : len(parts)-1] {
		i := strings.Index(s, p)
		if i < 0 {
			return false
		}
		s = s[i+len(p):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}
