package cache

import (
	"reflect"
	"testing"

	"repro/internal/phys"
)

// drive pushes a deterministic access mix through the cache — enough
// misses, hits and dirty evictions to churn tags, recency stacks, valid and
// dirty masks and counters in every bank.
func drive(c *Banked, salt uint64) {
	for i := uint64(0); i < 4096; i++ {
		a := phys.Addr(((i*2654435761 + salt) % (1 << 20)) &^ 63)
		c.Access(a, i%3 == 0)
	}
}

// TestBankSnapshotRestoreRoundTrip pins the tag-store checkpoint behind the
// warm-up image: after a hard divergence, Restore brings back every bank's
// tags and whole set records (partial tags, recency stack, valid and dirty
// masks) and clears the counters.
func TestBankSnapshotRestoreRoundTrip(t *testing.T) {
	ctl := New(small(), phys.T2())
	sub := New(small(), phys.T2())
	drive(ctl, 1)
	drive(sub, 1)

	img := sub.Snapshot()
	drive(sub, 99)
	sub.Restore(img)

	if !reflect.DeepEqual(sub.tags, ctl.tags) {
		t.Error("tags not restored")
	}
	for s := range sub.sets {
		if sub.sets[s] != ctl.sets[s] {
			t.Fatalf("set %d: record %+v after restore, want %+v", s, sub.sets[s], ctl.sets[s])
		}
	}
	if s := sub.Stats(); s != (Stats{}) {
		t.Errorf("counters %+v after restore, want zero", s)
	}
}

// TestBankRestoreLeavesOtherBanksAlone: a divergence confined to one bank
// is rolled back in that bank, and every other bank ends bit-identical to a
// cache that never diverged.
func TestBankRestoreLeavesOtherBanksAlone(t *testing.T) {
	c := New(small(), phys.T2())
	ctl := New(small(), phys.T2())
	drive(c, 1)
	drive(ctl, 1)
	img := c.Snapshot()

	// Bank 0 only: on the T2 mapping bits 8:6 select the bank.
	for i := 0; i < 512; i++ {
		a := phys.Addr(1<<22 + i*8*phys.LineSize)
		if b := c.mapped.Bank(a); b != 0 {
			t.Fatalf("address %#x maps to bank %d, want 0", a, b)
		}
		c.Access(a, true)
	}
	if reflect.DeepEqual(c.sets, ctl.sets) {
		t.Fatal("bank 0 divergence changed no set record; the test is vacuous")
	}
	c.Restore(img)

	spb, w := c.setsPerBank, c.cfg.Ways
	if !reflect.DeepEqual(c.tags[:spb*w], ctl.tags[:spb*w]) || !reflect.DeepEqual(c.sets[:spb], ctl.sets[:spb]) {
		t.Error("diverged bank 0 not rolled back")
	}
	if !reflect.DeepEqual(c.tags[spb*w:], ctl.tags[spb*w:]) || !reflect.DeepEqual(c.sets[spb:], ctl.sets[spb:]) {
		t.Error("rollback of bank 0 disturbed other banks")
	}
}
