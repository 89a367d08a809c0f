package service

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// Cache is the content-addressed result cache: canonical JSON trajectory
// bytes keyed by sweep fingerprint, bounded by total payload bytes with
// LRU eviction. Every entry carries the SHA-256 of its payload, recorded
// at insertion; Get re-verifies it and treats a mismatch as a miss,
// evicting the entry and counting the rejection — a corrupt entry is
// recomputed, never served.
type Cache struct {
	mu    sync.Mutex
	max   int64
	used  int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions, corruptions int64
}

type centry struct {
	key     string
	payload []byte
	sum     [sha256.Size]byte
}

// NewCache returns a cache bounded at maxBytes of payload.
func NewCache(maxBytes int64) *Cache {
	return &Cache{max: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the payload cached under key. The returned slice is owned
// by the cache and must not be mutated. A checksum mismatch counts as a
// corruption rejection and a miss, and drops the entry.
func (c *Cache) Get(key string) ([]byte, bool) { return c.get(key, true) }

// getNoMiss is the executor's post-singleflight re-check: a hit there is
// a real cache serve, but a miss is just the expected state before an
// execution and must not skew the hit rate.
func (c *Cache) getNoMiss(key string) ([]byte, bool) { return c.get(key, false) }

func (c *Cache) get(key string, countMiss bool) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		if countMiss {
			c.misses++
		}
		return nil, false
	}
	e := el.Value.(*centry)
	if sha256.Sum256(e.payload) != e.sum {
		c.corruptions++
		if countMiss {
			c.misses++
		}
		c.removeLocked(el)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return e.payload, true
}

// Put inserts (or refreshes) the payload under key, evicting
// least-recently-used entries until the byte budget holds. The payload is
// copied, so the caller's slice stays pristine: damage to the cached copy
// never reaches the response the leader is about to serve.
// Payloads larger than the whole budget are not cached at all.
func (c *Cache) Put(key string, payload []byte) {
	if int64(len(payload)) > c.max {
		return
	}
	stored := make([]byte, len(payload))
	copy(stored, payload)
	e := &centry{key: key, payload: stored, sum: sha256.Sum256(stored)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	el := c.ll.PushFront(e)
	c.items[key] = el
	c.used += int64(len(e.payload))
	for c.used > c.max {
		back := c.ll.Back()
		if back == nil || back == el {
			break
		}
		c.evictions++
		c.removeLocked(back)
	}
}

// removeLocked drops an entry; the caller holds the mutex.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*centry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.used -= int64(len(e.payload))
}

// CacheStats is a consistent snapshot of the cache's counters and size.
type CacheStats struct {
	Hits, Misses, Evictions, CorruptionsRejected int64
	Entries                                      int
	Bytes                                        int64
}

// Stats snapshots the cache.
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
