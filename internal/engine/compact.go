package engine

// Compact rebuilds the reference store without dead slots. Removed
// references leave tombstoned slots behind in their batches (Update
// rewrites its slot in place and leaves none) — searches skip them, but
// they still burn cache memory and GEMM work. Compact drops every old
// batch and re-feeds the live references, in enrollment order as the same
// records (so the id map is never touched) and carrying their enrolled
// codes, through pending into sealLocked, the one batch builder, which
// re-places each record. It returns the number of dead slots reclaimed.
//
// Phantom batches carry no feature payload and cannot be rebuilt; engines
// holding phantom references return an error.
func (e *Engine) Compact() (reclaimed int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	live, dead, err := e.liveLocked()
	if err != nil || dead == 0 {
		return 0, err
	}
	for _, it := range e.hybrid.Items() {
		it.Payload.rb.Free()
		it.Payload.rb.FreeCodes()
		e.hybrid.Remove(it.ID)
	}
	for _, l := range live {
		e.pending = append(e.pending, l)
		if len(e.pending) == e.cfg.BatchSize {
			if err := e.sealLocked(); err != nil {
				return 0, err
			}
		}
	}
	return dead, e.sealLocked()
}
