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

	if _, ok := s.Submit("g", "tenant", Background, "old-bg"); !ok {
		t.Fatal("submit old-bg rejected")
	}
	if _, ok := s.Submit("b", "tenant", Batch, "old-batch"); !ok {
		t.Fatal("submit old-batch rejected")
	}
	clk.advance(time.Minute)
	if _, ok := s.Submit("g2", "tenant", Background, "young-bg"); !ok {
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
	got := drainPayloads(s, 0)
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
	if _, ok := s.Submit("g", "tenant", Background, "bg"); !ok {
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
		if _, ok := s.Submit(fmt.Sprintf("a%d", i), "alice", Background, fmt.Sprintf("a%d", i)); !ok {
			t.Fatalf("submit a%d rejected", i)
		}
		if _, ok := s.Submit(fmt.Sprintf("b%d", i), "bob", Background, fmt.Sprintf("b%d", i)); !ok {
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
	got := drainPayloads(s, 0)
	want := []any{"a1", "b1", "a2", "b2", "a3", "b3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dequeue order = %v, want %v", got, want)
	}
}

// TestAgingRespectsDepthBound fills the batch class to its bound and
// verifies overdue background items wait (no overflow, no lost items) until
// capacity frees, then age on the next scan.
func TestAgingRespectsDepthBound(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{
		Workers:  1,
		AgeAfter: time.Minute,
		Depth:    [NumClasses]int{4, 2, 4},
		Now:      clk.now,
	})
	for i := 0; i < 2; i++ {
		if _, ok := s.Submit(fmt.Sprintf("b%d", i), "tenant", Batch, fmt.Sprintf("b%d", i)); !ok {
			t.Fatalf("submit b%d rejected", i)
		}
	}
	if _, ok := s.Submit("g", "tenant", Background, "bg"); !ok {
		t.Fatal("submit bg rejected")
	}
	clk.advance(time.Minute)
	// Batch is full (its own two items aged into interactive would free it —
	// but interactive has room, so they hop out and the background item can
	// follow into batch, all within the same scan's capacity accounting).
	if n := s.AgeOnce(); n != 3 {
		t.Fatalf("AgeOnce aged %d items, want 3", n)
	}
	if q := s.Stats().Queued; q != [NumClasses]int{2, 1, 0} {
		t.Fatalf("Queued = %v, want [2 1 0]", q)
	}

	// Now actually wedge the target: fill interactive AND batch, and verify
	// an overdue background item stays put without overflowing the bound.
	s2 := New(Config{
		Workers:  1,
		AgeAfter: time.Minute,
		Depth:    [NumClasses]int{1, 1, 4},
		Now:      clk.now,
	})
	if _, ok := s2.Submit("i", "tenant", Interactive, "i"); !ok {
		t.Fatal("submit i rejected")
	}
	if _, ok := s2.Submit("b", "tenant", Batch, "b"); !ok {
		t.Fatal("submit b rejected")
	}
	if _, ok := s2.Submit("g", "tenant", Background, "g"); !ok {
		t.Fatal("submit g rejected")
	}
	clk.advance(time.Minute)
	if n := s2.AgeOnce(); n != 0 {
		t.Fatalf("AgeOnce aged %d items into full classes, want 0", n)
	}
	if q := s2.Stats().Queued; q != [NumClasses]int{1, 1, 1} {
		t.Fatalf("Queued = %v, want untouched [1 1 1]", q)
	}
	// Drain the interactive item: batch can now age up, freeing batch for
	// the background item on the following scan.
	it := s2.tryNext(0)
	if it == nil || it.payload != "i" {
		t.Fatalf("dequeued %v, want i", it)
	}
	s2.done(it)
	clk.advance(time.Minute)
	if n := s2.AgeOnce(); n != 2 {
		t.Fatalf("AgeOnce aged %d items after capacity freed, want 2", n)
	}
	if q := s2.Stats().Queued; q != [NumClasses]int{1, 1, 0} {
		t.Fatalf("Queued = %v, want [1 1 0]", q)
	}
}

// TestAgingKeepsHandlesValid pins that aging moves the item in place: a
// Handle taken at submit time still cancels the item after it aged, and the
// cancellation frees the slot in the class the item aged into.
func TestAgingKeepsHandlesValid(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Workers: 1, AgeAfter: time.Minute, Now: clk.now})
	h, ok := s.Submit("g", "tenant", Background, "bg")
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
	if _, ok := s.Submit("g", "tenant", Background, "bg"); !ok {
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
	if _, ok := s.Submit("g", "tenant", Background, "bg"); !ok {
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
