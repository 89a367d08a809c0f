package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
)

// Cache is the service's one table keyed by sweep fingerprint. Under its
// one mutex, Do finds one of three cases:
//
//   - a done entry: a hit, once the SHA-256 recorded at insertion is
//     re-verified; a mismatch counts a corruption rejection and drops the
//     entry, so a corrupt entry is recomputed, never served;
//   - an in-flight entry: the request joins its execution (coalesced);
//   - no entry: the request leads, inserting an in-flight entry and
//     starting the execution detached from every client.
//
// A success that fits the byte budget becomes a done entry: a copy of the
// canonical JSON trajectory on an LRU list. A failed, panicking or
// oversize execution leaves no entry. Either way its waiters get its
// bytes or its error.
type Cache struct {
	mu    sync.Mutex
	max   int64
	used  int64
	ll    *list.List // done entries, front = most recently used
	items map[string]*centry

	hits, misses, evictions, corruptions int64
}

// centry is one fingerprint's entry. A done entry holds its payload copy
// and checksum and sits on the LRU list at el. An in-flight entry has a
// done channel, closed when its execution ends; payload and err are then
// the execution's result for its waiters.
type centry struct {
	key     string
	payload []byte
	sum     [sha256.Size]byte
	el      *list.Element

	done chan struct{} // nil for a done entry
	err  error
}

// NewCache returns a cache bounded at maxBytes of payload.
func NewCache(maxBytes int64) *Cache {
	return &Cache{max: maxBytes, ll: list.New(), items: map[string]*centry{}}
}

// Get returns the payload of the done entry under key, counting a hit or
// a miss; an in-flight entry is a miss. The returned slice is owned by
// the cache and must not be mutated.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.items[key]; e != nil && e.done == nil && c.verifyLocked(e) {
		return e.payload, true
	}
	c.misses++
	return nil, false
}

// Do returns the result for res.Key and how it was found: "hit",
// "coalesced" or "miss" (see Cache). On a miss, run(res) executes in its
// own goroutine. A caller whose ctx dies stops waiting (its error is the
// context's), but the execution goes on for the other waiters and the
// cache.
func (c *Cache) Do(ctx context.Context, res *Resolved, run func(*Resolved) ([]byte, error)) (b []byte, state string, err error) {
	c.mu.Lock()
	e := c.items[res.Key]
	if e != nil && e.done == nil {
		if c.verifyLocked(e) {
			c.mu.Unlock()
			return e.payload, "hit", nil
		}
		e = nil // corrupt, and dropped
	}
	c.misses++
	state = "coalesced"
	if e == nil {
		state = "miss"
		e = &centry{key: res.Key, done: make(chan struct{})}
		c.items[res.Key] = e
		go c.execute(e, res, run)
	}
	c.mu.Unlock()
	select {
	case <-e.done:
		return e.payload, state, e.err
	case <-ctx.Done():
		return nil, state, ctx.Err()
	}
}

// execute runs the execution of the in-flight entry e, then settles it: a
// success that fits the budget is replaced by a done entry, anything else
// is removed, and the waiters are released. A panic in run becomes an
// error for every waiter, never a stranded channel.
func (c *Cache) execute(e *centry, res *Resolved, run func(*Resolved) ([]byte, error)) {
	var b []byte
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: panic during coalesced execution: %v", r)
		}
		c.mu.Lock()
		if err == nil && int64(len(b)) <= c.max {
			c.insertLocked(newEntry(e.key, b))
		} else if c.items[e.key] == e {
			delete(c.items, e.key)
		}
		c.mu.Unlock()
		e.payload, e.err = b, err
		close(e.done)
	}()
	b, err = run(res)
}

// verifyLocked reports whether the done entry e still matches its
// checksum, counting the hit and refreshing its recency. A mismatch
// counts a corruption rejection and drops the entry. The caller holds
// the mutex.
func (c *Cache) verifyLocked(e *centry) bool {
	if sha256.Sum256(e.payload) != e.sum {
		c.corruptions++
		c.removeLocked(e)
		return false
	}
	c.ll.MoveToFront(e.el)
	c.hits++
	return true
}

// Put inserts (or refreshes) the payload under key, evicting
// least-recently-used entries until the byte budget holds. The payload is
// copied, so the caller's slice stays pristine: damage to the cached copy
// never reaches a response served from the caller's bytes.
// Payloads larger than the whole budget are not cached at all.
func (c *Cache) Put(key string, payload []byte) {
	if int64(len(payload)) > c.max {
		return
	}
	e := newEntry(key, payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(e)
}

// newEntry returns a done entry holding a checksummed copy of payload.
func newEntry(key string, payload []byte) *centry {
	stored := make([]byte, len(payload))
	copy(stored, payload)
	return &centry{key: key, payload: stored, sum: sha256.Sum256(stored)}
}

// insertLocked puts the done entry e under its key in place of whatever
// entry is there, and evicts from the LRU end until the budget holds. The
// caller holds the mutex.
func (c *Cache) insertLocked(e *centry) {
	if old := c.items[e.key]; old != nil && old.done == nil {
		c.removeLocked(old)
	}
	e.el = c.ll.PushFront(e)
	c.items[e.key] = e
	c.used += int64(len(e.payload))
	for c.used > c.max {
		back := c.ll.Back()
		if back == nil || back == e.el {
			break
		}
		c.evictions++
		c.removeLocked(back.Value.(*centry))
	}
}

// removeLocked drops a done entry; the caller holds the mutex.
func (c *Cache) removeLocked(e *centry) {
	c.ll.Remove(e.el)
	delete(c.items, e.key)
	c.used -= int64(len(e.payload))
}

// CacheStats is a consistent snapshot of the cache's counters and size.
type CacheStats struct {
	Hits, Misses, Evictions, CorruptionsRejected int64
	Entries                                      int
	Bytes                                        int64
}

// Stats snapshots the cache. Entries and Bytes count done entries only.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		CorruptionsRejected: c.corruptions,
		Entries:             c.ll.Len(),
		Bytes:               c.used,
	}
}

// HitRate is hits/(hits+misses), 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}
