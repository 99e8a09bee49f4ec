//go:build !race

// The race runtime instruments allocation accounting, so the AllocsPerRun
// assertions here only run in the plain test suite (the tier-1 gate).
package event

import "testing"

// TestWheelScheduleAndDrainZeroAllocs asserts the steady state of the
// refresh machinery's access pattern: moving live deadlines, cancelling
// them and draining a few at a time through PopDueInto perform no heap
// allocations once the ring covers the schedule-ahead horizon.
func TestWheelScheduleAndDrainZeroAllocs(t *testing.T) {
	const ids = 128
	w := NewFrameWheel(64, ids, 40_000)
	buf := make([]WheelEntry, 0, ids)
	now := int64(0)
	cycle := func() {
		for id := 0; id < ids; id++ {
			w.Schedule(now+1000+int64(id)*64, id)
			w.Schedule(now+2000+int64(id)*64, id) // move the live node
		}
		for id := 0; id < ids; id += 8 {
			w.Cancel(id)
		}
		now += 40_000
		for w.Len() > 0 {
			buf = w.PopDueInto(now, 16, buf[:0])
		}
	}
	cycle() // settle the window
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("FrameWheel allocates %.2f objects per reschedule/cancel/drain cycle, want 0", avg)
	}
}

// TestFrameWheelZeroAllocs asserts the FrameWheel never allocates after
// construction: nodes are preallocated per id, and rescheduling moves them.
func TestFrameWheelZeroAllocs(t *testing.T) {
	const ids = 256
	w := NewFrameWheel(64, ids, 40_000)
	buf := make([]WheelEntry, 0, ids)
	now := int64(0)
	cycle := func() {
		for id := 0; id < ids; id++ {
			w.Schedule(now+1000+int64(id), id)
		}
		now += 40_000
		buf = w.PopDueInto(now, -1, buf[:0])
		if len(buf) != ids {
			t.Fatalf("drained %d entries, want %d", len(buf), ids)
		}
	}
	cycle() // settle the window
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("FrameWheel allocates %.2f objects per schedule/drain cycle, want 0", avg)
	}
}
