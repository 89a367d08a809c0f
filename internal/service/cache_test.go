package service

import (
	"bytes"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(100)
	pay := func(b byte) []byte { return bytes.Repeat([]byte{b}, 40) }
	c.Put("a", pay('a'))
	c.Put("b", pay('b'))
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes the LRU victim
		t.Fatal("a missing before eviction")
	}
	c.Put("c", pay('c'))

	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; want LRU victim")
	}
	if got, ok := c.Get("a"); !ok || !bytes.Equal(got, pay('a')) {
		t.Error("a lost or damaged by eviction")
	}
	if got, ok := c.Get("c"); !ok || !bytes.Equal(got, pay('c')) {
		t.Error("c lost or damaged by eviction")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 80 {
		t.Errorf("stats after eviction: %+v, want 1 eviction, 2 entries, 80 bytes", s)
	}
}

func TestCacheOversizePayloadNotCached(t *testing.T) {
	c := NewCache(10)
	c.Put("big", bytes.Repeat([]byte{'x'}, 11))
	if _, ok := c.Get("big"); ok {
		t.Error("payload larger than the whole budget was cached")
	}
}

func TestCachePutCopiesPayload(t *testing.T) {
	c := NewCache(100)
	p := []byte("trajectory")
	c.Put("k", p)
	p[0] = 'X' // caller mutates its slice after Put
	if got, ok := c.Get("k"); !ok || string(got) != "trajectory" {
		t.Errorf("cache shares the caller's backing array: got %q", got)
	}
}

// TestCacheCorruptionRejected: a stored payload whose bytes no longer
// match the recorded checksum must be treated as a miss and dropped — a
// corrupt entry is recomputed, never served. (TestCacheCorruptionIsNeverServed
// drives the same contract over HTTP.)
func TestCacheCorruptionRejected(t *testing.T) {
	c := NewCache(100)
	c.Put("k", []byte("pristine"))
	c.items["k"].Value.(*centry).payload[0] ^= 0xFF

	if got, ok := c.Get("k"); ok {
		t.Fatalf("corrupt entry served: %q", got)
	}
	s := c.Stats()
	if s.CorruptionsRejected != 1 {
		t.Errorf("corruptions rejected = %d, want 1", s.CorruptionsRejected)
	}
	if s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("corrupt entry not dropped: %+v", s)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("corrupt entry resurrected on second Get")
	}
}
