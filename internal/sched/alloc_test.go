//go:build !race

// The race runtime instruments allocation accounting, so the AllocsPerRun
// assertions here only run in the plain test suite (the tier-1 gate).
package sched

import "testing"

// TestSubmitDequeueZeroAllocs pins the hot-path contract: once the item free
// list, client queues and rings are warm, a full submit / cancel / dequeue /
// finish cycle allocates nothing.
func TestSubmitDequeueZeroAllocs(t *testing.T) {
	s := New(Config{Workers: 2})
	payload := &struct{ n int }{}
	clients := [2]string{"alice", "bob"}
	const perCycle = 4

	cycle := func() {
		for i := 0; i < perCycle; i++ {
			if _, ok := s.Submit(clients[i%2], Class(i%NumClasses), payload); !ok {
				t.Fatal("warm submit rejected")
			}
		}
		h, ok := s.Submit(clients[0], Background, payload)
		if !ok {
			t.Fatal("warm cancel-target submit rejected")
		}
		if !s.Cancel(h) {
			t.Fatal("warm cancel failed")
		}
		for drained := 0; drained < perCycle; drained++ {
			it := s.tryNext()
			if it == nil {
				t.Fatal("warm dequeue found nothing")
			}
			s.done(it)
		}
	}
	for i := 0; i < 64; i++ {
		cycle() // grow rings, client maps and the free list to steady state
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("warm submit/cancel/dequeue cycle allocates %.2f objects, want 0", avg)
	}
}
