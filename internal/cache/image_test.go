package cache

import (
	"reflect"
	"slices"
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

// withoutVers returns the set records with their install counters zeroed:
// Restore brings back every other field and deliberately keeps those.
func withoutVers(sets []setMeta) []setMeta {
	out := slices.Clone(sets)
	for i := range out {
		out[i].vers = 0
	}
	return out
}

// TestBankSnapshotRestoreRoundTrip pins the tag-store checkpoint behind the
// warm-up image: after a hard divergence, Restore brings back every bank's
// tags and every set record's partial tags, recency stack, valid and dirty
// masks, clears the counters, and keeps each set's install counter
// monotonic.
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
	got, want := withoutVers(sub.sets), withoutVers(ctl.sets)
	for s := range got {
		if got[s] != want[s] {
			t.Fatalf("set %d: record %+v after restore, want %+v", s, got[s], want[s])
		}
		if sub.sets[s].vers < ctl.sets[s].vers {
			t.Fatalf("set %d install version rewound to %d, below the snapshot's %d", s, sub.sets[s].vers, ctl.sets[s].vers)
		}
	}
	if s := sub.Stats(); s != (Stats{}) {
		t.Errorf("counters %+v after restore, want zero", s)
	}
}

// TestBankRestoreLeavesOtherBanksAlone: a divergence confined to one bank
// is rolled back in that bank, every other bank ends bit-identical to a cache
// that never diverged, and the per-set install versions are left alone:
// they stay monotonic, so a probe taken before the rollback is never
// mistaken for a current one.
func TestBankRestoreLeavesOtherBanksAlone(t *testing.T) {
	c := New(small(), phys.T2())
	ctl := New(small(), phys.T2())
	drive(c, 1)
	drive(ctl, 1)
	img := c.Snapshot()
	before := make([]uint32, len(c.sets))
	for s := range c.sets {
		before[s] = c.sets[s].vers
	}

	// Bank 0 only: on the T2 mapping bits 8:6 select the bank.
	for i := 0; i < 512; i++ {
		a := phys.Addr(1<<22 + i*8*phys.LineSize)
		if c.mapping.Bank(a) != 0 {
			t.Fatalf("address %#x maps to bank %d, want 0", a, c.mapping.Bank(a))
		}
		c.Access(a, true)
	}
	c.Restore(img)

	spb, w := c.setsPerBank, c.cfg.Ways
	got, want := withoutVers(c.sets), withoutVers(ctl.sets)
	if !reflect.DeepEqual(c.tags[:spb*w], ctl.tags[:spb*w]) || !reflect.DeepEqual(got[:spb], want[:spb]) {
		t.Error("diverged bank 0 not rolled back")
	}
	if !reflect.DeepEqual(c.tags[spb*w:], ctl.tags[spb*w:]) || !reflect.DeepEqual(got[spb:], want[spb:]) {
		t.Error("rollback of bank 0 disturbed other banks")
	}
	grew := false
	for s := range c.sets {
		v := c.sets[s].vers
		if v < before[s] {
			t.Fatalf("set %d install version rewound %d -> %d", s, before[s], v)
		}
		if s < spb && v > before[s] {
			grew = true
		}
		if s >= spb && v != before[s] {
			t.Fatalf("set %d outside bank 0 changed install version", s)
		}
	}
	if !grew {
		t.Error("bank 0 divergence installed nothing; the test is vacuous")
	}
}
