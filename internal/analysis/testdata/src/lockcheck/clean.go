package fixture

// The blocking work happens outside the critical section, the early
// return unlocks on its own path, and the goroutine body runs after the
// caller releases the mutex — none of these may be flagged.

func (c *counter) sendAfterUnlock() {
	c.mu.Lock()
	v := c.n
	c.mu.Unlock()
	c.ch <- v
}

func (c *counter) guardedEarlyReturn(cond bool) {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
		return
	}
	c.n++
	c.mu.Unlock()
}

func (c *counter) deferredFastPath(cond bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cond {
		return 0
	}
	return c.n
}

func (c *counter) goroutineEscapes() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.ch <- 1
	}()
}

//texlint:ignore lockcheck fixture for the escape hatch: the send under lock is the point here
func (c *counter) suppressedSend() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ch <- c.n
}

// The deferred unlock need not be the statement right after the Lock: any
// defer that releases the mutex covers every later return.
func (c *counter) lateDefer(cond bool) int {
	c.mu.Lock()
	v := c.n
	defer c.mu.Unlock()
	if cond {
		return 0
	}
	return v
}

// A function literal does not inherit its creator's critical section: it
// runs whenever its caller decides, here after the mutex is released.
func (c *counter) closureRunsLater() func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() { c.ch <- 1 }
}
