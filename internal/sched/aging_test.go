package sched

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is an injectable Config.Now for aging tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestAgingPromotesOverdueItems pins the core aging behavior: a background
// item queued past AgeAfter moves into batch (and batch into interactive),
// young items stay put, and the per-transition counters record the hops.
func TestAgingPromotesOverdueItems(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Workers: 1, AgeAfter: time.Minute, Now: clk.now})

	if _, ok := s.Submit("tenant", Background, "old-bg"); !ok {
		t.Fatal("submit old-bg rejected")
	}
	if _, ok := s.Submit("tenant", Batch, "old-batch"); !ok {
		t.Fatal("submit old-batch rejected")
	}
	clk.advance(time.Minute)
	if _, ok := s.Submit("tenant", Background, "young-bg"); !ok {
		t.Fatal("submit young-bg rejected")
	}

	if n := s.AgeOnce(); n != 2 {
		t.Fatalf("AgeOnce aged %d items, want 2", n)
	}
	st := s.Stats()
	if st.Aged[Background][Batch] != 1 || st.Aged[Batch][Interactive] != 1 {
		t.Fatalf("Aged = %v, want one background->batch and one batch->interactive", st.Aged)
	}
	if st.Queued != [NumClasses]int{1, 1, 1} {
		t.Fatalf("Queued = %v, want [1 1 1]", st.Queued)
	}
	// The aged batch item is now the only interactive one and dequeues first.
	got := drainPayloads(s)
	want := []any{"old-batch", "old-bg", "young-bg"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dequeue order = %v, want %v", got, want)
	}
}

// TestAgingNeedsFullPeriodPerHop pins that the wait clock restarts on every
// hop: background reaches interactive only after two full AgeAfter periods.
func TestAgingNeedsFullPeriodPerHop(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Workers: 1, AgeAfter: time.Minute, Now: clk.now})
	if _, ok := s.Submit("tenant", Background, "bg"); !ok {
		t.Fatal("submit rejected")
	}
	clk.advance(time.Minute)
	s.AgeOnce()
	if q := s.Stats().Queued; q != [NumClasses]int{0, 1, 0} {
		t.Fatalf("after one period Queued = %v, want item in batch", q)
	}
	s.AgeOnce() // same instant: the clock restarted, nothing more ages
	if q := s.Stats().Queued; q != [NumClasses]int{0, 1, 0} {
		t.Fatalf("item double-hopped within one period: Queued = %v", q)
	}
	clk.advance(time.Minute)
	s.AgeOnce()
	if q := s.Stats().Queued; q != [NumClasses]int{1, 0, 0} {
		t.Fatalf("after two periods Queued = %v, want item in interactive", q)
	}
}

// TestAgingPreservesFIFOAndFairShare submits interleaved items of two
// clients into background, ages them all, and verifies the batch-class
// dequeue order still alternates clients with each client's items in
// submission order.
func TestAgingPreservesFIFOAndFairShare(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Workers: 1, AgeAfter: time.Minute, Now: clk.now})
	for i := 1; i <= 3; i++ {
		if _, ok := s.Submit("alice", Background, fmt.Sprintf("a%d", i)); !ok {
			t.Fatalf("submit a%d rejected", i)
		}
		if _, ok := s.Submit("bob", Background, fmt.Sprintf("b%d", i)); !ok {
			t.Fatalf("submit b%d rejected", i)
		}
	}
	clk.advance(2 * time.Minute)
	if n := s.AgeOnce(); n != 6 {
		t.Fatalf("AgeOnce aged %d items, want 6", n)
	}
	if q := s.Stats().Queued; q != [NumClasses]int{0, 6, 0} {
		t.Fatalf("Queued = %v, want all 6 in batch", q)
	}
	got := drainPayloads(s)
	want := []any{"a1", "b1", "a2", "b2", "a3", "b3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dequeue order = %v, want %v", got, want)
	}
}

// TestAgingKeepsHandlesValid pins that aging moves the item in place: a
// Handle taken at submit time still cancels the item after it aged, and the
// cancellation frees the slot in the class the item aged into.
func TestAgingKeepsHandlesValid(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Workers: 1, AgeAfter: time.Minute, Now: clk.now})
	h, ok := s.Submit("tenant", Background, "bg")
	if !ok {
		t.Fatal("submit rejected")
	}
	clk.advance(time.Minute)
	if n := s.AgeOnce(); n != 1 {
		t.Fatalf("AgeOnce aged %d items, want 1", n)
	}
	if !s.Cancel(h) {
		t.Fatal("Cancel failed on aged item: the handle went stale across aging")
	}
	if q := s.Stats().Queued; q != [NumClasses]int{0, 0, 0} {
		t.Fatalf("Queued = %v after cancel, want all empty (the batch slot freed)", q)
	}
}

// TestAgingOnAgeCallback verifies the callback fires once per hop with the
// payload and both classes, outside the scheduler mutex (it calls back in).
func TestAgingOnAgeCallback(t *testing.T) {
	clk := newFakeClock()
	type hop struct {
		payload  any
		from, to Class
	}
	var hops []hop
	var s *Scheduler
	s = New(Config{
		Workers:  1,
		AgeAfter: time.Minute,
		Now:      clk.now,
		OnAge: func(payload any, from, to Class) {
			s.Stats() // must not deadlock: callback runs outside the mutex
			hops = append(hops, hop{payload, from, to})
		},
	})
	if _, ok := s.Submit("tenant", Background, "bg"); !ok {
		t.Fatal("submit rejected")
	}
	clk.advance(time.Minute)
	s.AgeOnce()
	if len(hops) != 1 || hops[0] != (hop{"bg", Background, Batch}) {
		t.Fatalf("hops = %v, want one bg background->batch", hops)
	}
}

// TestAgingDisabledByDefault pins that a zero AgeAfter never ages anything.
func TestAgingDisabledByDefault(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Workers: 1, Now: clk.now})
	if _, ok := s.Submit("tenant", Background, "bg"); !ok {
		t.Fatal("submit rejected")
	}
	clk.advance(24 * time.Hour)
	if n := s.AgeOnce(); n != 0 {
		t.Fatalf("AgeOnce aged %d items with aging disabled, want 0", n)
	}
	if q := s.Stats().Queued; q != [NumClasses]int{0, 0, 1} {
		t.Fatalf("Queued = %v, want item still in background", q)
	}
}
