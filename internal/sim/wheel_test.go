package sim

import (
	"fmt"
	"testing"
)

// bucketScript builds, from the handler of one event at time 0, buckets
// whose pushes arrive out of key order, cancels events in the middle and
// at the tail of a bucket's list, then links a new event behind the
// cancelled tail, cancels the second of two events that share a label,
// and finally schedules an event far enough out to grow the wheel while
// those lists are pending. It returns the dispatch order.
func bucketScript(e queue) []int32 {
	const d = 10
	e.SetPeriod(d)
	var got []int32
	e.SetHandler(func(_ Kind, arg int32) {
		got = append(got, arg)
		switch arg {
		case 1:
			// Section 3 of cycle 0: fresh back labels, l1 before l2.
			l1, l2 := e.ChildLabel(), e.ChildLabel()

			// Time 20: front, l2, then l1 twice and front again, each
			// below the tail's key, so each walks to its sorted place.
			e.Schedule(20, 0, 30)
			e.ScheduleLabelled(20, l2, 0, 22)
			e.ScheduleLabelled(20, l1, 0, 21)
			e.ScheduleLabelled(20, l1, 0, 23)
			e.Schedule(20, 0, 31)

			// Time 30: an insertion before the head.
			e.ScheduleLabelled(30, l2, 0, 52)
			e.Schedule(30, 0, 50)

			// Time 40: cancel the middle (61) and the tail (63), then
			// append behind the new tail.
			t61 := e.ScheduleLabelled(40, l1, 0, 61)
			e.ScheduleLabelled(40, l1, 0, 62)
			t63 := e.ScheduleLabelled(40, l2, 0, 63)
			e.Schedule(40, 0, 60)
			e.Cancel(t61)
			e.Cancel(t63)
			e.ScheduleLabelled(40, l2, 0, 64)

			// Time 45: a bucket emptied by Cancel, then refilled.
			e.Cancel(e.ScheduleLabelled(45, l1, 0, 70))
			e.ScheduleLabelled(45, l2, 0, 71)

			// Time 50: of two events under one label, cancel the second.
			e.ScheduleLabelled(50, l1, 0, 80)
			e.Cancel(e.ScheduleLabelled(50, l1, 0, 81))

			// Grow the wheel (256 slots at first) with the lists pending.
			e.Schedule(1000, 0, 99)
		case 21:
			// A section-3 event of time 20 (delay below the period) goes
			// to the tail.
			e.Schedule(20, 0, 40)
		}
	})
	e.Schedule(0, 0, 1)
	e.Run()
	return got
}

// TestWheelBucketListOrder pins sorted insertion and Cancel on the wheel's
// node lists: labelled and section-1 events pushed behind larger keys land
// at their sorted place, ties keep their push order, cancelling in the
// middle or at the tail leaves a list that later pushes link onto
// correctly, Cancel removes the named one of two equal-key events, and
// growth moves whole lists. The reference model must dispatch the same
// order.
func TestWheelBucketListOrder(t *testing.T) {
	want := "[1 30 31 21 23 22 40 50 52 60 62 64 71 80 99]"
	if got := fmt.Sprint(bucketScript(&Engine{})); got != want {
		t.Errorf("wheel order %s, want %s", got, want)
	}
	if got := fmt.Sprint(bucketScript(&refEngine{})); got != want {
		t.Errorf("reference model order %s, want %s", got, want)
	}
}

// TestCancelKeepsTheWheelConsistent: after cancelling the middle and the
// tail of a bucket, Pending counts only what is left, every node goes back
// to the pool for reuse, and cancelling a removed event panics.
func TestCancelKeepsTheWheelConsistent(t *testing.T) {
	var e Engine
	e.SetPeriod(4)
	var got []int32
	e.SetHandler(func(_ Kind, arg int32) { got = append(got, arg) })
	l := Label{key: 1}
	a := e.ScheduleLabelled(9, l, 0, 1)
	b := e.ScheduleLabelled(9, l, 0, 2)
	c := e.ScheduleLabelled(9, l, 0, 3)
	pool := len(e.nodes)
	e.Cancel(b)
	e.Cancel(c)
	if e.Pending() != 1 {
		t.Fatalf("%d pending after two of three cancelled, want 1", e.Pending())
	}
	e.ScheduleLabelled(9, l, 0, 4)
	e.ScheduleLabelled(9, l, 0, 5)
	if len(e.nodes) != pool {
		t.Errorf("node pool grew from %d to %d although two nodes were free", pool, len(e.nodes))
	}
	e.Run()
	if fmt.Sprint(got) != "[1 4 5]" {
		t.Errorf("ran %v, want [1 4 5]", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("cancelling a dispatched event did not panic")
		}
	}()
	e.Cancel(a)
}
