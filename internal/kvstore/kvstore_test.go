package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"texid/internal/limits"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.Set("a", []byte("1"))
	v, ok := s.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key found")
	}
	if n, err := s.Del("a", "missing"); n != 1 || err != nil {
		t.Fatalf("Del = %d, %v", n, err)
	}
	if s.DBSize() != 0 {
		t.Fatalf("DBSize = %d", s.DBSize())
	}
	// Keys is the order a restarted cluster re-enrolls in, so it is sorted,
	// not whatever the map yields.
	for i := 0; i < 100; i++ {
		s.Set(fmt.Sprintf("tex:%d", i*37%100), nil)
	}
	if keys := s.Keys("tex:*"); len(keys) != 100 || !sort.StringsAreSorted(keys) {
		t.Fatalf("Keys returned %d keys, sorted=%v", len(keys), sort.StringsAreSorted(keys))
	}
}

func TestStoreValueIsolation(t *testing.T) {
	s := NewStore()
	buf := []byte("abc")
	s.Set("k", buf)
	buf[0] = 'X' // caller mutation must not leak in
	v, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatalf("stored value aliased caller buffer: %q", v)
	}
	v[0] = 'Y' // returned copy mutation must not leak back
	v2, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Fatalf("returned value aliased store: %q", v2)
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "anything", true},
		{"tex:*", "tex:42", true},
		{"tex:*", "other:42", false},
		{"a*b*c", "aXXbYYc", true},
		{"a*b*c", "aXXbYY", false},
		{"exact", "exact", true},
		{"exact", "exactly", false},
	}
	for _, c := range cases {
		if got := globMatch(c.pattern, c.s); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v", c.pattern, c.s, got)
		}
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	srv, err := Serve(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0, 1, 2, 0xFF, '\r', '\n'}, 1000) // binary-safe
	if err := c.Set("tex:1", payload); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("tex:1")
	if err != nil || !ok || !bytes.Equal(v, payload) {
		t.Fatalf("Get round-trip failed: ok=%v err=%v len=%d", ok, err, len(v))
	}
	if _, ok, _ := c.Get("nope"); ok {
		t.Fatal("missing key reported present")
	}
	c.Set("tex:2", []byte("b"))
	c.Set("meta", []byte("3"))
	keys, err := c.Keys("tex:*")
	if err != nil || len(keys) != 2 || keys[0] != "tex:1" {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
	if n, _ := c.DBSize(); n != 3 {
		t.Fatalf("DBSize = %d", n)
	}
	if n, _ := c.Del("tex:1", "tex:2", "nope"); n != 2 {
		t.Fatalf("Del = %d", n)
	}
	if n, _ := c.DBSize(); n != 1 {
		t.Fatalf("DBSize after Del = %d", n)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv, err := Serve(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k:%d:%d", g, i)
				if err := c.Set(key, []byte(key)); err != nil {
					errs <- err
					return
				}
				v, ok, err := c.Get(key)
				if err != nil || !ok || string(v) != key {
					errs <- fmt.Errorf("get %s: %q %v %v", key, v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStoreLockContracts holds the store's RWMutex from the test, so each
// contract fails the same way on every run:
//   - a writer takes the write half: it waits while a reader holds the
//     read half (a map write under RLock races every reader);
//   - a reader reads the map inside its critical section: it runs first,
//     and a Set follows it with only mu between them, so -race reports a
//     read made after the unlock. The sleep only lets the read go first;
//     waiting on it would order it before the Set and hide the race.
func TestStoreLockContracts(t *testing.T) {
	writers := map[string]func(*Store) error{
		"Set": func(s *Store) error { return s.Set("k", []byte("v2")) },
		"Del": func(s *Store) error { _, err := s.Del("k"); return err },
	}
	for name, write := range writers {
		s := NewStore()
		if err := s.Set("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		s.mu.RLock()
		done := make(chan error, 1)
		go func() { done <- write(s) }()
		select {
		case <-done:
			s.mu.RUnlock()
			t.Fatalf("%s finished while a reader held mu: it does not take the write lock", name)
		case <-time.After(50 * time.Millisecond):
		}
		s.mu.RUnlock()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	readers := map[string]func(*Store){
		"Get":    func(s *Store) { _, _ = s.Get("k") },
		"Keys":   func(s *Store) { _ = s.Keys("*") },
		"DBSize": func(s *Store) { _ = s.DBSize() },
	}
	for name, read := range readers {
		s := NewStore()
		if err := s.Set("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			read(s)
			close(done)
		}()
		time.Sleep(10 * time.Millisecond) // the read has run; only mu orders it before the Set
		if err := s.Set("k2", []byte("v")); err != nil {
			t.Fatalf("%s then Set: %v", name, err)
		}
		<-done
	}
}

// TestReadersAndWriterKeepMoving: a reader that takes the read half twice
// (Keys asking DBSize for a capacity, say) deadlocks as soon as a writer
// queues between its two acquisitions, because a queued writer blocks new
// readers. Nothing can park a reader between two acquisitions inside one
// method, so this test loops: two readers spin on Keys while a writer
// Sets 20,000 times, and all three must finish.
func TestReadersAndWriterKeepMoving(t *testing.T) {
	s := NewStore()
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := s.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = s.Keys("*")
				}
			}
		}()
	}
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			if err := s.Set("w", []byte("v")); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
		readers.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Keys and Set stopped making progress: a reader re-acquired the read lock under a queued writer")
	}
}

// TestAcceptAfterCloseReleasesTheLock forces the accept loop's closed path,
// which otherwise needs Close to land between an Accept and the loop's
// lock: the test holds mu as Close does, lets a connection arrive, and
// marks the server closed before releasing it. The loop must drop the
// connection, exit, and leave mu free.
func TestAcceptAfterCloseReleasesTheLock(t *testing.T) {
	srv, err := Serve(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		srv.mu.Unlock()
		t.Fatal(err)
	}
	defer conn.Close()
	srv.closed = true
	srv.mu.Unlock()

	exited := make(chan struct{})
	go func() {
		srv.wg.Wait() // only the accept loop is counted: no connection registered
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("the accept loop did not exit on a closed server")
	}
	if !srv.mu.TryLock() {
		t.Fatal("the accept loop exited holding mu")
	}
	srv.mu.Unlock()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServerRejectsUnknownCommand(t *testing.T) {
	srv, _ := Serve(NewStore(), "127.0.0.1:0")
	defer srv.Close()
	c, _ := Dial(srv.Addr())
	defer c.Close()
	// FLUSHALL, HSET and INCR are Redis commands this store does not
	// serve: nothing in the system calls them.
	for _, cmd := range [][]string{{"BOGUS"}, {"FLUSHALL"}, {"HSET", "h", "f", "v"}, {"INCR", "n"}} {
		_, err := c.do(bs(cmd...)...)
		if err == nil || !strings.Contains(err.Error(), "unknown command") {
			t.Fatalf("%v: err = %v, want an unknown-command reply", cmd, err)
		}
	}
	// Connection must still work after an error reply.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestHostileFramesRefused feeds both parsers frames whose header is a
// claim the peer never backs with payload. One row per bound in resp.go: a
// count or length over its cap is a protocol error on the header itself,
// and one at the cap commits memory only as bytes arrive. Removing a bound
// turns its row into a different error, a success, or megabytes allocated.
func TestHostileFramesRefused(t *testing.T) {
	command := func(r *bufio.Reader) error { _, err := readCommand(r); return err }
	rep := func(r *bufio.Reader) error { _, err := readReply(r); return err }
	for _, f := range []struct {
		what     string
		parse    func(*bufio.Reader) error
		frame    string
		protocol bool // errProtocol, not merely an error
		maxAlloc uint64
	}{
		{"command: element count over the cap", command, "*1048577\r\n", true, 64 << 10},
		{"command: empty array", command, "*0\r\n", true, 64 << 10},
		{"command: element count at the cap, nothing sent", command, "*1048576\r\n", false, 64 << 10},
		{"command: bulk length over the cap", command, "*1\r\n$536870913\r\n", true, 64 << 10},
		{"command: bulk length at the cap, 2 bytes sent", command, "*1\r\n$536870912\r\nhi\r\n", false, 4 * limits.DefaultChunk},
		{"reply: bulk length over the cap", rep, "$536870913\r\n", true, 64 << 10},
		{"reply: bulk length at the cap, 1 byte sent", rep, "$536870912\r\nx\r\n", false, 4 * limits.DefaultChunk},
		{"reply: element count over the cap", rep, "*1048577\r\n", true, 64 << 10},
		{"reply: element count at the cap, nothing sent", rep, "*1048576\r\n", false, 64 << 10},
		{"reply: arrays nested past the depth cap", rep, strings.Repeat("*1\r\n", maxReplyDepth+2) + ":0\r\n", true, 64 << 10},
	} {
		r := bufio.NewReader(strings.NewReader(f.frame))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f.parse(r)
		runtime.ReadMemStats(&after)
		if err == nil || f.protocol && !errors.Is(err, errProtocol) {
			t.Errorf("%s: err = %v, want protocol error = %v", f.what, err, f.protocol)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > f.maxAlloc {
			t.Errorf("%s: parser allocated %d bytes for a %d-byte frame, want <= %d", f.what, grew, len(f.frame), f.maxAlloc)
		}
	}
}

func TestServerSurvivesGarbageBytes(t *testing.T) {
	// Protocol robustness: random bytes must never crash the server, and a
	// fresh connection must still work afterwards.
	srv, _ := Serve(NewStore(), "127.0.0.1:0")
	defer srv.Close()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1+rng.Intn(200))
		rng.Read(buf)
		conn.Write(buf)
		conn.Write([]byte("\r\n"))
		conn.Close()
	}
	// Mutated valid commands.
	valid := []byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n")
	for trial := 0; trial < 100; trial++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), valid...)
		mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		conn.Write(mut)
		conn.Close()
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("server unhealthy after garbage: %v", err)
	}
}

func TestAOFPersistence(t *testing.T) {
	path := t.TempDir() + "/store.aof"
	s, err := OpenAOF(path)
	if err != nil {
		t.Fatal(err)
	}
	binary := []byte{0, 1, '\r', '\n', 0xFF}
	s.Set("tex:1", binary)
	s.Set("tex:2", []byte("b"))
	s.Del("tex:2")
	s.Set("ctr", []byte("1"))
	s.Set("ctr", []byte("2"))
	if err := s.CloseAOF(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenAOF(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.CloseAOF()
	if v, ok := r.Get("tex:1"); !ok || !bytes.Equal(v, binary) {
		t.Fatalf("tex:1 = %q, %v", v, ok)
	}
	if _, ok := r.Get("tex:2"); ok {
		t.Fatal("deleted key replayed")
	}
	if v, _ := r.Get("ctr"); string(v) != "2" {
		t.Fatalf("ctr = %q, want the last write", v)
	}
	// Mutations after reopen append to the same log.
	r.Set("tex:9", []byte("z"))
	r.CloseAOF()
	r2, err := OpenAOF(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.CloseAOF()
	if _, ok := r2.Get("tex:9"); !ok {
		t.Fatal("post-reopen write lost")
	}
}

func TestAOFCorruptLog(t *testing.T) {
	path := t.TempDir() + "/store.aof"
	// A log that ends inside its only record is a torn tail, not corruption:
	// it opens empty (TestAOFTornTail cuts at every offset).
	os.WriteFile(path, []byte("*2\r\n$3\r\nSET\r\n$1"), 0o644)
	s, err := OpenAOF(path)
	if err != nil || s.DBSize() != 0 {
		t.Fatalf("torn one-record AOF: err = %v, want an empty store", err)
	}
	s.CloseAOF()
	// A well-formed record of a command the store does not log (a file from
	// another writer) is refused, not skipped.
	os.WriteFile(path, []byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n*1\r\n$8\r\nFLUSHALL\r\n"), 0o644)
	if _, err := OpenAOF(path); err == nil || !strings.Contains(err.Error(), `unknown record "FLUSHALL"`) {
		t.Fatalf("AOF holding FLUSHALL: err = %v, want unknown record", err)
	}
}

// TestAOFTornTail: power loss mid-enroll leaves a prefix of the last record
// at the end of the log. Wherever the cut falls, the store must reopen with
// every acknowledged record, drop the unacknowledged one, and keep logging
// onto a file that replays again; damage anywhere else is still refused.
func TestAOFTornTail(t *testing.T) {
	records := []string{
		"*3\r\n$3\r\nSET\r\n$5\r\ntex:1\r\n$4\r\n\x00\r\n\xff\r\n",
		"*3\r\n$3\r\nSET\r\n$5\r\ntex:2\r\n$1\r\nb\r\n",
		"*3\r\n$3\r\nSET\r\n$5\r\ntex:3\r\n$10\r\n0123456789\r\n",
	}
	whole := records[0] + records[1]
	path := t.TempDir() + "/store.aof"
	for cut := 0; cut < len(records[2]); cut++ {
		if err := os.WriteFile(path, []byte(whole+records[2][:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenAOF(path)
		if err != nil {
			t.Fatalf("cut %d bytes into the last record: %v", cut, err)
		}
		v1, ok1 := s.Get("tex:1")
		v2, ok2 := s.Get("tex:2")
		if !ok1 || string(v1) != "\x00\r\n\xff" || !ok2 || string(v2) != "b" || s.DBSize() != 2 {
			t.Fatalf("cut %d: tex:1 = %q %v, tex:2 = %q %v, DBSIZE %d; want both acknowledged keys and nothing else",
				cut, v1, ok1, v2, ok2, s.DBSize())
		}
		if err := s.Set("tex:9", []byte("z")); err != nil {
			t.Fatalf("cut %d: SET after recovery: %v", cut, err)
		}
		if err := s.CloseAOF(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenAOF(path)
		if err != nil {
			t.Fatalf("cut %d: reopening after a post-recovery SET: %v", cut, err)
		}
		if v, ok := r.Get("tex:9"); !ok || string(v) != "z" || r.DBSize() != 3 {
			t.Fatalf("cut %d: post-recovery SET replayed as %q %v, DBSIZE %d", cut, v, ok, r.DBSize())
		}
		r.CloseAOF()
	}

	// The same three records whole, with one byte of the middle one flipped
	// ("$3" no longer introduces a bulk string): not a tail, so not repaired.
	flipped := []byte(whole + records[2])
	flipped[len(records[0])+4] ^= 0x01
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAOF(path); err == nil || !strings.Contains(err.Error(), "corrupt AOF") {
		t.Fatalf("AOF with a damaged middle record: err = %v, want corrupt AOF", err)
	}
}

func TestAOFServedOverTCP(t *testing.T) {
	path := t.TempDir() + "/store.aof"
	s, _ := OpenAOF(path)
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := Dial(srv.Addr())
	c.Set("k", []byte("v"))
	c.Close()
	srv.Close()
	s.CloseAOF()
	r, _ := OpenAOF(path)
	defer r.CloseAOF()
	if v, ok := r.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("TCP-written key not persisted: %q %v", v, ok)
	}
}

// TestAOFWriteFailureIsAnErrorReply: a log write that fails (a full disk;
// here the file closed out from under the writer) must not take the server
// down or leave memory ahead of the log — the command is refused, the key
// stays absent, and the connection keeps serving.
func TestAOFWriteFailureIsAnErrorReply(t *testing.T) {
	path := t.TempDir() + "/store.aof"
	s, err := OpenAOF(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("kept", []byte("v")); err != nil {
		t.Fatal(err)
	}

	if err := s.aof.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("lost", []byte("v")); err == nil || !strings.Contains(err.Error(), "AOF write failed") {
		t.Fatalf("SET with a failing log: err = %v, want an AOF write error reply", err)
	}
	if n, err := c.Del("kept"); err == nil {
		t.Fatalf("DEL with a failing log removed %d keys without an error", n)
	}
	if _, ok, err := c.Get("lost"); ok || err != nil {
		t.Fatalf("refused key visible: ok=%v err=%v", ok, err)
	}
	if v, ok, err := c.Get("kept"); !ok || string(v) != "v" || err != nil {
		t.Fatalf("key whose DEL was refused: %q ok=%v err=%v", v, ok, err)
	}
	if n, err := c.DBSize(); n != 1 || err != nil {
		t.Fatalf("DBSIZE = %d, %v; want 1", n, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("server stopped serving after a log failure: %v", err)
	}

	// The failure is not sticky: once the file takes writes again so does
	// the log, and what it holds is the acknowledged records only.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	s.aof.mu.Lock()
	s.aof.f.File = f
	s.aof.mu.Unlock()
	if err := c.Set("after", []byte("v")); err != nil {
		t.Fatalf("SET once the log is writable again: %v", err)
	}
	if err := s.CloseAOF(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenAOF(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.CloseAOF()
	if _, kept := r.Get("kept"); !kept || r.DBSize() != 2 {
		t.Fatalf("replay after a refused write: kept=%v DBSIZE=%d, want kept + after", kept, r.DBSize())
	}
}

// TestAOFCloseReturnsTheFlushError: CloseAOF flushes what the log's writer
// still buffers before it closes the file, and when that flush fails it
// must return the flush's error, not the close's nil. The file is swapped
// for a read-only handle on the same log, so the write fails and the close
// succeeds.
func TestAOFCloseReturnsTheFlushError(t *testing.T) {
	path := t.TempDir() + "/store.aof"
	s, err := OpenAOF(path)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.aof.mu.Lock()
	rw := s.aof.f.File
	s.aof.f.File = ro
	writeBulk(s.aof.w, []byte("buffered at close"))
	s.aof.mu.Unlock()
	defer rw.Close()

	var pe *os.PathError
	if err := s.CloseAOF(); !errors.As(err, &pe) || pe.Op != "write" {
		t.Fatalf("CloseAOF with a failing flush = %v, want the write error", err)
	}
}
