package fixture

import (
	"sync"
	"time"
)

type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	n  int
}

func (c *counter) sendLocked() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ch <- c.n // want "c.mu is held across a channel send"
}

func (c *counter) recvLocked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return <-c.ch // want "c.mu is held across a channel receive"
}

func (c *counter) sleepLocked() {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want "c.mu is held across time.Sleep"
	c.mu.Unlock()
}

func (c *counter) earlyReturn(cond bool) {
	c.mu.Lock()
	if cond {
		return // want "return with c.mu still held"
	}
	c.mu.Unlock()
}

func (c *counter) readEarlyReturn(cond bool) int {
	c.rw.RLock()
	if cond {
		return 0 // want "return with c.rw still held"
	}
	c.rw.RUnlock()
	return c.n
}

func (c *counter) waitLocked(wg *sync.WaitGroup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wg.Wait() // want "c.mu is held across sync.WaitGroup.Wait"
}

// A select is one blocking operation: it is reported once, not again for
// each of its comm clauses.
func (c *counter) selectLocked(done chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select { // want "c.mu is held across a select statement"
	case v := <-c.ch:
		c.n = v
	case <-done:
	}
}
