package sched

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// drainPayloads pops everything queued and returns the payloads in dequeue
// order.
func drainPayloads(s *Scheduler) []any {
	var out []any
	for {
		it := s.tryNext()
		if it == nil {
			return out
		}
		out = append(out, it.payload)
		s.done(it)
	}
}

// TestPriorityOrdering pins that a single worker serves more urgent classes
// first: interactive before batch before background, FIFO within a class.
func TestPriorityOrdering(t *testing.T) {
	s := New(Config{Workers: 1})
	submit := func(name string, c Class) {
		if _, ok := s.Submit("tenant", c, name); !ok {
			t.Fatalf("submit %s rejected", name)
		}
	}
	submit("g1", Background)
	submit("g2", Background)
	submit("b1", Batch)
	submit("b2", Batch)
	submit("i1", Interactive)
	submit("i2", Interactive)

	got := drainPayloads(s)
	want := []any{"i1", "i2", "b1", "b2", "g1", "g2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dequeue order = %v, want %v", got, want)
	}
}

// TestWeightedSharesAcrossClasses pins the weighted-round-robin cycle: with
// every class backlogged and weights {3,2,1}, each cycle serves 3
// interactive, 2 batch and 1 background item, most urgent first.
func TestWeightedSharesAcrossClasses(t *testing.T) {
	s := New(Config{Workers: 1, Weights: [NumClasses]int{3, 2, 1}})
	for i := 0; i < 6; i++ {
		for c := Class(0); c < NumClasses; c++ {
			if _, ok := s.Submit("tenant", c, c); !ok {
				t.Fatalf("submit %v #%d rejected", c, i)
			}
		}
	}
	got := drainPayloads(s)
	want := []any{
		// Two full weighted cycles while every class is backlogged...
		Interactive, Interactive, Interactive, Batch, Batch, Background,
		Interactive, Interactive, Interactive, Batch, Batch, Background,
		// ...then interactive is empty and the leftovers drain by weight.
		Batch, Batch, Background, Background, Background, Background,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dequeue order = %v, want %v", got, want)
	}
}

// TestFairShareAcrossClients pins round-robin between clients flooding one
// class: a tenant with more queued work cannot starve a smaller one.
func TestFairShareAcrossClients(t *testing.T) {
	s := New(Config{Workers: 1})
	for i := 1; i <= 4; i++ {
		if _, ok := s.Submit("alice", Batch, fmt.Sprintf("a%d", i)); !ok {
			t.Fatalf("submit a%d rejected", i)
		}
	}
	for i := 1; i <= 2; i++ {
		if _, ok := s.Submit("bob", Batch, fmt.Sprintf("b%d", i)); !ok {
			t.Fatalf("submit b%d rejected", i)
		}
	}
	got := drainPayloads(s)
	want := []any{"a1", "b1", "a2", "b2", "a3", "a4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dequeue order = %v, want %v", got, want)
	}
}

// TestNoIdleWorkerWhileQueued is the live integration check: one client's
// backlog keeps every started worker busy.
func TestNoIdleWorkerWhileQueued(t *testing.T) {
	s := New(Config{Workers: 2})
	started := make(chan any, 8)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	s.Start(func(p any) {
		defer wg.Done()
		started <- p
		<-release
	})

	for i := 0; i < 4; i++ {
		if _, ok := s.Submit("tenant", Batch, i); !ok {
			t.Fatalf("submit %d rejected", i)
		}
	}
	// Both workers must pick up work from the one client's FIFO.
	<-started
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.Busy == 2 {
			if st.Queued[Batch] != 2 {
				t.Fatalf("queued[batch] = %d with both workers busy, want 2", st.Queued[Batch])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never both busy: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	s.Close()
	if st := s.Stats(); st.Busy != 0 || st.Queued[Batch] != 0 {
		t.Fatalf("stats after drain = %+v, want idle and empty", st)
	}
	if n := len(started); n != 2 {
		t.Fatalf("%d extra starts buffered, want 2 (4 items total)", n)
	}
}

// TestCreditsArePoolWide pins that the weighted round-robin credits belong
// to the pool, not to a worker: with weights {2,1,1}, an interactive flood
// and one background item, two workers take the first two interactive items
// and whichever of them frees first takes the background item.  Per-worker
// credits would hand out four interactive items first.
func TestCreditsArePoolWide(t *testing.T) {
	s := New(Config{Workers: 2, Weights: [NumClasses]int{2, 1, 1}})
	if _, ok := s.Submit("tenant", Background, "bg"); !ok {
		t.Fatal("submit bg rejected")
	}
	for i := 0; i < 10; i++ {
		if _, ok := s.Submit("flood", Interactive, fmt.Sprintf("i%d", i)); !ok {
			t.Fatalf("submit i%d rejected", i)
		}
	}
	started := make(chan string, 16)
	release := make(chan struct{})
	s.Start(func(p any) {
		started <- p.(string)
		<-release
	})
	defer s.Close()
	defer close(release)

	first := []string{<-started, <-started} // one per worker, both now busy
	sort.Strings(first)
	if fmt.Sprint(first) != "[i0 i1]" {
		t.Fatalf("first two dequeues = %v, want i0 and i1", first)
	}
	release <- struct{}{} // free one worker, whichever it is
	if got := <-started; got != "bg" {
		t.Fatalf("third dequeue = %v, want bg (the pool's interactive credits are spent)", got)
	}
}

// TestDrainedClientsLeaveNoTrace pins that client labels — arbitrary wire
// input — do not accumulate state: once a client's FIFO drains (by dequeue
// or by cancellation), its map entry is gone and the struct is recycled.
func TestDrainedClientsLeaveNoTrace(t *testing.T) {
	s := New(Config{Workers: 1})
	for i := 0; i < 1000; i++ {
		h, ok := s.Submit(fmt.Sprintf("client-%d", i), Batch, i)
		if !ok {
			t.Fatalf("submit %d rejected", i)
		}
		if i%2 == 0 {
			if !s.Cancel(h) {
				t.Fatalf("cancel %d failed", i)
			}
		}
	}
	for {
		it := s.tryNext()
		if it == nil {
			break
		}
		s.done(it)
	}
	cq := &s.classes[Batch]
	if n := len(cq.clients); n != 0 {
		t.Fatalf("%d drained client queues still mapped, want 0", n)
	}
	if n := len(cq.ring); n != 0 {
		t.Fatalf("%d drained client queues still in ring, want 0", n)
	}
	// Recycled structs serve new clients.
	if _, ok := s.Submit("fresh", Batch, "x"); !ok {
		t.Fatal("post-drain submit rejected")
	}
	if got := drainPayloads(s); fmt.Sprint(got) != fmt.Sprint([]any{"x"}) {
		t.Fatalf("drained %v, want [x]", got)
	}
}

// TestCancelStaleHandle pins handle invalidation: cancelling twice, or
// cancelling a dequeued item, reports false and touches nothing.
func TestCancelStaleHandle(t *testing.T) {
	s := New(Config{Workers: 1})
	h, ok := s.Submit("tenant", Batch, "x")
	if !ok {
		t.Fatal("submit rejected")
	}
	if !s.Cancel(h) {
		t.Fatal("first cancel reported false")
	}
	if s.Cancel(h) {
		t.Fatal("second cancel succeeded on a stale handle")
	}
	h2, _ := s.Submit("tenant", Batch, "y")
	it := s.tryNext()
	if it == nil || it.payload != "y" {
		t.Fatalf("dequeued %v, want y", it)
	}
	if s.Cancel(h2) {
		t.Fatal("cancel succeeded on a running item")
	}
	s.done(it)
	if s.Cancel(h2) {
		t.Fatal("cancel succeeded on a finished (recycled) item")
	}
}

// TestPromote pins class moves: a promoted item dequeues with its new class
// and the handle returned by Promote stays cancellable.
func TestPromote(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, ok := s.Submit("tenant", Background, "a"); !ok {
		t.Fatal("submit a rejected")
	}
	hb, ok := s.Submit("tenant", Background, "b")
	if !ok {
		t.Fatal("submit b rejected")
	}
	hb2, ok := s.Promote(hb, Interactive)
	if !ok {
		t.Fatal("promote reported false")
	}
	if st := s.Stats(); st.Queued[Interactive] != 1 || st.Queued[Background] != 1 {
		t.Fatalf("queued after promote = %v", st.Queued)
	}
	it := s.tryNext()
	if it.payload != "b" {
		t.Fatalf("dequeued %v first, want the promoted b", it.payload)
	}
	s.done(it)
	if _, ok := s.Promote(hb2, Background); ok {
		t.Fatal("promote succeeded on a finished item")
	}
	if got := drainPayloads(s); fmt.Sprint(got) != fmt.Sprint([]any{"a"}) {
		t.Fatalf("remaining = %v, want [a]", got)
	}
	// The handle Promote returns cancels the moved item.
	hc, _ := s.Submit("tenant", Background, "c")
	hc2, ok := s.Promote(hc, Batch)
	if !ok || !s.Cancel(hc2) {
		t.Fatal("promoted handle not cancellable")
	}
	if q := s.Queued(); q != 0 {
		t.Fatalf("queued = %d after cancelling the promoted item, want 0", q)
	}
}

// TestPromoteWaitAttribution pins the latency accounting across a
// promotion: the wait OnDequeue reports is the time spent in the class the
// item was dequeued from, after the promotion restarted its clock.
func TestPromoteWaitAttribution(t *testing.T) {
	now := time.Unix(0, 0)
	var gotClass Class
	var gotWait time.Duration
	s := New(Config{Workers: 1, Now: func() time.Time { return now },
		OnDequeue: func(_ any, class Class, wait time.Duration) { gotClass, gotWait = class, wait }})
	h, ok := s.Submit("tenant", Background, "x")
	if !ok {
		t.Fatal("submit rejected")
	}
	now = now.Add(10 * time.Second)
	if _, ok := s.Promote(h, Interactive); !ok {
		t.Fatal("promote failed")
	}
	now = now.Add(1 * time.Second)
	it := s.tryNext()
	s.dispatchGuarded(func(any) {}, it)
	s.done(it)
	if gotClass != Interactive || gotWait != 1*time.Second {
		t.Fatalf("OnDequeue wait = %v in %v, want 1s in interactive (post-promotion only)", gotWait, gotClass)
	}
	st := s.Stats()
	if st.WaitCount[Background] != 0 || st.WaitCount[Interactive] != 1 {
		t.Fatalf("dequeues = %d background, %d interactive; want 0 and 1", st.WaitCount[Background], st.WaitCount[Interactive])
	}
}

// TestCloseDrainsQueued verifies Close lets workers finish everything queued
// before returning, and that submissions after Close are rejected.
func TestCloseDrainsQueued(t *testing.T) {
	s := New(Config{Workers: 1})
	var mu sync.Mutex
	var ran []any
	gate := make(chan struct{})
	s.Start(func(p any) {
		<-gate
		mu.Lock()
		ran = append(ran, p)
		mu.Unlock()
	})
	for i := 0; i < 3; i++ {
		if _, ok := s.Submit("tenant", Batch, i); !ok {
			t.Fatalf("submit %d rejected", i)
		}
	}
	close(gate)
	s.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 3 {
		t.Fatalf("Close returned with %d of 3 items run", len(ran))
	}
	if _, ok := s.Submit("tenant", Batch, 9); ok {
		t.Fatal("submit after Close accepted")
	}
}

// TestWaitLatencyAccounting verifies the queue wait OnDequeue reports and
// the dequeue count, using an injected clock.
func TestWaitLatencyAccounting(t *testing.T) {
	now := time.Unix(0, 0)
	var gotWait time.Duration
	s := New(Config{Workers: 1, Now: func() time.Time { return now },
		OnDequeue: func(_ any, _ Class, wait time.Duration) { gotWait = wait }})
	if _, ok := s.Submit("tenant", Interactive, "x"); !ok {
		t.Fatal("submit rejected")
	}
	now = now.Add(250 * time.Millisecond)
	it := s.tryNext()
	s.dispatchGuarded(func(any) {}, it)
	s.done(it)
	if st := s.Stats(); st.WaitCount[Interactive] != 1 || gotWait != 250*time.Millisecond {
		t.Fatalf("wait accounting = count %v wait %v, want 1 / 250ms", st.WaitCount[Interactive], gotWait)
	}
}

// TestParseClass pins the wire labels.
func TestParseClass(t *testing.T) {
	for _, c := range []Class{Interactive, Batch, Background} {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("turbo"); err == nil {
		t.Error("ParseClass(turbo) succeeded")
	}
	if _, err := ParseClass(""); err == nil {
		t.Error("ParseClass of empty string succeeded (callers pick defaults)")
	}
}

// TestRequeueIsNextFromClass pins Requeue: an item a worker took and gave
// back is the next one taken from its class, ahead of its own client's
// queue and of other clients the round-robin cursor would serve first,
// whether or not its client still has items queued.  Its queued handle
// cancels and promotes like a submitted item's.
func TestRequeueIsNextFromClass(t *testing.T) {
	s := New(Config{Workers: 1})
	for _, sub := range []struct{ client, name string }{
		{"a", "a1"}, {"b", "b1"}, {"a", "a2"}, {"c", "c1"}, {"b", "b2"},
	} {
		if _, ok := s.Submit(sub.client, Background, sub.name); !ok {
			t.Fatalf("submit %s rejected", sub.name)
		}
	}
	take := func(want string) {
		t.Helper()
		it := s.tryNext()
		if it == nil || it.payload != want {
			t.Fatalf("dequeued %v, want %s", it, want)
		}
		s.done(it)
	}
	take("a1") // the cursor moves on to b
	if _, ok := s.Requeue("a", Background, "a1"); !ok {
		t.Fatal("requeue rejected")
	}
	take("a1")
	take("b1")
	if _, ok := s.Requeue("b", Background, "b1"); !ok {
		t.Fatal("requeue rejected")
	}
	got := drainPayloads(s)
	want := []any{"b1", "c1", "a2", "b2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dequeue order after requeues = %v, want %v", got, want)
	}

	// A requeued client whose FIFO had drained re-enters the ring at the
	// cursor, and a more urgent class still goes first.
	s.Submit("x", Background, "x1")
	s.Submit("y", Background, "y1")
	s.Requeue("z", Background, "z1")
	s.Submit("i", Interactive, "i1")
	if got, want := fmt.Sprint(drainPayloads(s)), fmt.Sprint([]any{"i1", "z1", "x1", "y1"}); got != want {
		t.Fatalf("dequeue order = %v, want %v", got, want)
	}

	// The handle works like Submit's.
	h, _ := s.Requeue("a", Background, "gone")
	if !s.Cancel(h) {
		t.Fatal("cancel of a requeued item failed")
	}
	h, _ = s.Requeue("a", Background, "moved")
	if _, ok := s.Promote(h, Interactive); !ok {
		t.Fatal("promote of a requeued item failed")
	}
	if st := s.Stats(); st.Queued != [NumClasses]int{1, 0, 0} {
		t.Fatalf("queued after cancel and promote = %v, want [1 0 0]", st.Queued)
	}
	drainPayloads(s)
}
