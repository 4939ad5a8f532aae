package live

import "sync"

// callDedup makes a mutating RPC handler idempotent and bounded, the
// buildbarn replicator service shape: message-ID-keyed verdict replay
// (at-most-once execution — a retry or duplicate of an already-executed
// message is answered from the cache), in-flight deduplication (a
// duplicate arriving while the first copy still executes waits for that
// execution's result instead of starting a second), and a concurrency
// limit on executions admitted per node. Every execution yields a
// verdict: no handler turns a message away unexecuted. What is replayed is
// the verdict's bytes, so a retrying caller reads exactly what the one
// execution said — accepted, copied — and acts on it once
// (Node.sendCreateObj records the copy there). The verdict cache is
// retained for the node's lifetime: a cached verdict must survive until
// the caller is known to have seen it, and the live plane has no
// confirmation leg — runs are bounded, so the cache is too. IDs carry the
// sender's boot (Node.nextMsgID).
type callDedup struct {
	sem chan struct{}

	mu       sync.Mutex
	done     map[uint64][]byte
	inflight map[uint64]chan struct{}
	cur      int
	peak     int
	executed int64
}

// newCallDedup builds a dedup gate admitting at most limit concurrent
// executions (limit must be positive).
func newCallDedup(limit int) *callDedup {
	return &callDedup{
		sem:      make(chan struct{}, limit),
		done:     make(map[uint64][]byte),
		inflight: make(map[uint64]chan struct{}),
	}
}

// do returns the reply for msgID, running fn at most once across all
// retries and concurrent duplicates of the message and holding its result
// for replay. fn runs inside the concurrency gate.
func (d *callDedup) do(msgID uint64, fn func() []byte) []byte {
	d.mu.Lock()
	if r, ok := d.done[msgID]; ok {
		d.mu.Unlock()
		return r
	}
	if ch, ok := d.inflight[msgID]; ok {
		// A concurrent duplicate: wait for the first copy's execution and
		// read its verdict.
		d.mu.Unlock()
		<-ch
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.done[msgID]
	}
	ch := make(chan struct{})
	d.inflight[msgID] = ch
	d.mu.Unlock()

	d.sem <- struct{}{}
	d.mu.Lock()
	d.cur++
	if d.cur > d.peak {
		d.peak = d.cur
	}
	d.mu.Unlock()

	r := fn()

	d.mu.Lock()
	d.cur--
	d.executed++
	d.done[msgID] = r
	delete(d.inflight, msgID)
	d.mu.Unlock()
	<-d.sem
	close(ch)
	return r
}

// Peak returns the high-water mark of concurrent executions.
func (d *callDedup) Peak() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// Executed returns the number of actual executions (cache hits excluded).
func (d *callDedup) Executed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.executed
}
