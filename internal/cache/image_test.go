package cache

import (
	"reflect"
	"testing"

	"repro/internal/phys"
)

// drive pushes a deterministic access mix through the cache — enough
// misses, hits and dirty evictions to churn tags, LRU stamps, clocks and
// counters in every bank.
func drive(c *Banked, salt uint64) {
	for i := uint64(0); i < 4096; i++ {
		a := phys.Addr(((i*2654435761 + salt) % (1 << 20)) &^ 63)
		c.Access(a, i%3 == 0)
	}
}

// TestBankSnapshotRestoreRoundTrip pins the tag-store checkpoint behind the
// warm-up image and the fast-forward rollback: after a hard divergence,
// Restore brings back every bank's tags, LRU stamps, valid and dirty
// masks, partial tags and LRU clock, and clears the counters. A second
// snapshot into the same image reuses its buffers.
func TestBankSnapshotRestoreRoundTrip(t *testing.T) {
	ctl := New(small(), phys.T2())
	sub := New(small(), phys.T2())
	drive(ctl, 1)
	drive(sub, 1)

	var img Image
	sub.SnapshotInto(&img)
	drive(sub, 99)
	sub.Restore(&img)

	for _, f := range []struct {
		name     string
		got, exp []uint64
	}{
		{"tags", sub.tags, ctl.tags},
		{"used stamps", sub.used, ctl.used},
		{"valid masks", sub.valid, ctl.valid},
		{"dirty masks", sub.dirty, ctl.dirty},
		{"partial tags", sub.ptags, ctl.ptags},
		{"clocks", sub.clocks, ctl.clocks},
	} {
		if !reflect.DeepEqual(f.got, f.exp) {
			t.Errorf("%s not restored", f.name)
		}
	}
	for b, s := range sub.BankStats() {
		if s != (Stats{}) {
			t.Errorf("bank %d counters %+v after restore, want zero", b, s)
		}
	}

	tagsCap, clocksCap := cap(img.tags), cap(img.clocks)
	sub.SnapshotInto(&img)
	if cap(img.tags) != tagsCap || cap(img.clocks) != clocksCap {
		t.Error("SnapshotInto reallocated on reuse")
	}
}

// TestBankRestoreLeavesOtherBanksAlone: a divergence confined to one bank
// — the shape of a declined fast-forward replay on a single stream — is
// rolled back in that bank, every other bank ends bit-identical to a cache
// that never diverged, and the per-set install versions are left alone:
// they stay monotonic, so a probe taken before the rollback is never
// mistaken for a current one.
func TestBankRestoreLeavesOtherBanksAlone(t *testing.T) {
	c := New(small(), phys.T2())
	ctl := New(small(), phys.T2())
	drive(c, 1)
	drive(ctl, 1)
	var img Image
	c.SnapshotInto(&img)
	before := append([]uint32(nil), c.vers...)

	// Bank 0 only: on the T2 mapping bits 8:6 select the bank.
	for i := 0; i < 512; i++ {
		a := phys.Addr(1<<22 + i*8*phys.LineSize)
		if c.mapping.Bank(a) != 0 {
			t.Fatalf("address %#x maps to bank %d, want 0", a, c.mapping.Bank(a))
		}
		c.Access(a, true)
	}
	c.Restore(&img)

	spb, w := c.setsPerBank, c.cfg.Ways
	if !reflect.DeepEqual(c.tags[:spb*w], ctl.tags[:spb*w]) || c.clocks[0] != ctl.clocks[0] {
		t.Error("diverged bank 0 not rolled back")
	}
	if !reflect.DeepEqual(c.tags[spb*w:], ctl.tags[spb*w:]) || !reflect.DeepEqual(c.clocks[1:], ctl.clocks[1:]) {
		t.Error("rollback of bank 0 disturbed other banks")
	}
	grew := false
	for s := range c.vers {
		if c.vers[s] < before[s] {
			t.Fatalf("set %d install version rewound %d -> %d", s, before[s], c.vers[s])
		}
		if s < spb && c.vers[s] > before[s] {
			grew = true
		}
		if s >= spb && c.vers[s] != before[s] {
			t.Fatalf("set %d outside bank 0 changed install version", s)
		}
	}
	if !grew {
		t.Error("bank 0 divergence installed nothing; the test is vacuous")
	}
}
