package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"refrint/internal/config"
)

// The TestWheel* cases pin the timing-wheel contract (ordering, max-limited
// drains, coarse buckets, window growth and rebasing) on frameWheel, the
// Refrint banks' timing wheel.  They drain it through PopDueInto, the
// two-phase reference drain below, which TestSentryDrainMatchesReference
// also uses as the oracle for Bank.advanceRefrint.

// newFrameWheel returns a wheel built by init.
func newFrameWheel(granularity int64, ids int, horizon int64) *frameWheel {
	w := new(frameWheel)
	w.init(granularity, ids, horizon)
	return w
}

// wheelEntry is one due deadline returned by PopDueInto.
type wheelEntry struct {
	Cycle int64 // the deadline
	ID    int64 // the frame
}

// PopDueInto appends up to max due entries (deadline <= now) to dst in
// non-decreasing bucket order (within-bucket in schedule order) and returns
// the extended slice.  A negative max means no limit.  It allocates only if
// dst lacks capacity.
func (w *frameWheel) PopDueInto(now int64, max int, dst []wheelEntry) []wheelEntry {
	if w.count == 0 || max == 0 {
		return dst
	}
	popped := 0
	nowBucket := now >> w.granShift
	windowEnd := w.next + int64(len(w.head))
	stop := nowBucket
	if stop >= windowEnd {
		stop = windowEnd - 1 // nodes only exist inside the window
	}
	blocked := false // a not-yet-due node pins w.next at its bucket
	for b := w.next; b <= stop && w.count > 0; b++ {
		slot := b & w.mask
		id := w.head[slot]
		for id != noNode {
			n := &w.nodes[id]
			nextID := n.next
			if n.deadline <= now {
				dst = append(dst, wheelEntry{Cycle: n.deadline, ID: int64(id)})
				w.unlink(id)
				popped++
				if max >= 0 && popped >= max {
					return dst
				}
			} else {
				blocked = true
			}
			id = nextID
		}
		if !blocked && w.head[slot] == noNode {
			w.next = b + 1
		}
		if blocked {
			return dst
		}
	}
	return dst
}

// NextDeadline returns the earliest pending deadline and true, or (0, false)
// if the wheel is empty.  The scan is bounded by the ring size.
func (w *frameWheel) NextDeadline() (int64, bool) {
	if w.count == 0 {
		return 0, false
	}
	for b := w.next; b < w.next+int64(len(w.head)); b++ {
		id := w.head[b&w.mask]
		if id == noNode {
			continue
		}
		min := w.nodes[id].deadline
		for id = w.nodes[id].next; id != noNode; id = w.nodes[id].next {
			if d := w.nodes[id].deadline; d < min {
				min = d
			}
		}
		return min, true
	}
	return 0, false
}

// Cancel removes the pending deadline of id, if any.
func (w *frameWheel) Cancel(id int) {
	if w.nodes[id].prev != unlinked {
		w.unlink(int32(id))
	}
}

// Deadline returns the pending deadline of id and whether one is registered.
func (w *frameWheel) Deadline(id int) (int64, bool) {
	n := &w.nodes[id]
	return n.deadline, n.prev != unlinked
}

// popDue drains into a fresh slice.
func popDue(w *frameWheel, now int64, max int) []wheelEntry {
	return w.PopDueInto(now, max, nil)
}

func TestWheelBasic(t *testing.T) {
	w := newFrameWheel(1, 4, 0)
	if w.Len() != 0 {
		t.Fatal("new wheel should be empty")
	}
	if _, ok := w.NextDeadline(); ok {
		t.Fatal("empty wheel should have no deadline")
	}
	w.Schedule(100, 1)
	w.Schedule(50, 2)
	w.Schedule(150, 3)
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	if d, ok := w.NextDeadline(); !ok || d != 50 {
		t.Fatalf("NextDeadline = %d,%v want 50,true", d, ok)
	}
	due := popDue(w, 99, -1)
	if len(due) != 1 || due[0].ID != 2 {
		t.Fatalf("PopDueInto(99) = %+v, want the ID 2 entry", due)
	}
	due = popDue(w, 200, -1)
	if len(due) != 2 {
		t.Fatalf("PopDueInto(200) returned %d entries, want 2", len(due))
	}
	if w.Len() != 0 {
		t.Errorf("wheel should be empty, len = %d", w.Len())
	}
}

func TestWheelNothingDue(t *testing.T) {
	w := newFrameWheel(16, 2, 0)
	w.Schedule(1000, 1)
	if due := popDue(w, 999, -1); len(due) != 0 {
		t.Errorf("PopDueInto before deadline returned %+v", due)
	}
	if w.Len() != 1 {
		t.Errorf("entry should remain, len = %d", w.Len())
	}
}

func TestWheelMaxLimit(t *testing.T) {
	w := newFrameWheel(1, 10, 0)
	for i := 0; i < 10; i++ {
		w.Schedule(int64(i), i)
	}
	due := popDue(w, 100, 3)
	if len(due) != 3 {
		t.Fatalf("PopDueInto(max=3) returned %d entries", len(due))
	}
	if w.Len() != 7 {
		t.Errorf("Len = %d, want 7", w.Len())
	}
	// Remaining entries still retrievable.
	rest := popDue(w, 100, -1)
	if len(rest) != 7 {
		t.Errorf("rest = %d entries, want 7", len(rest))
	}
}

func TestWheelCoarseGranularity(t *testing.T) {
	w := newFrameWheel(64, 4, 0)
	w.Schedule(70, 1)  // bucket 1
	w.Schedule(130, 2) // bucket 2
	w.Schedule(10, 3)  // bucket 0
	due := popDue(w, 70, -1)
	ids := map[int64]bool{}
	for _, e := range due {
		ids[e.ID] = true
	}
	if !ids[1] || !ids[3] || ids[2] {
		t.Errorf("PopDueInto(70) = %+v, want IDs 1 and 3 only", due)
	}
	if d, ok := w.NextDeadline(); !ok || d != 130 {
		t.Errorf("NextDeadline = %d,%v, want 130", d, ok)
	}
}

func TestWheelReschedulingAfterDrain(t *testing.T) {
	w := newFrameWheel(8, 3, 0)
	w.Schedule(10, 1)
	popDue(w, 20, -1)
	// After a full drain the wheel must accept earlier deadlines again.
	w.Schedule(5, 2)
	if d, ok := w.NextDeadline(); !ok || d != 5 {
		t.Errorf("NextDeadline after drain = %d,%v, want 5", d, ok)
	}
	due := popDue(w, 5, -1)
	if len(due) != 1 || due[0].ID != 2 {
		t.Errorf("PopDueInto = %+v", due)
	}
}

func TestWheelDeadlinesNeverLostProperty(t *testing.T) {
	// Property: every scheduled entry is eventually returned exactly once,
	// and never before its deadline.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		w := newFrameWheel(16, count, 0)
		deadlines := map[int64]int64{}
		for i := 0; i < count; i++ {
			d := rng.Int63n(10_000)
			w.Schedule(d, i)
			deadlines[int64(i)] = d
		}
		seen := map[int64]bool{}
		for now := int64(0); now <= 10_000; now += 500 {
			for _, e := range popDue(w, now, -1) {
				if seen[e.ID] {
					return false // duplicate
				}
				if deadlines[e.ID] > now {
					return false // returned early
				}
				seen[e.ID] = true
			}
		}
		return len(seen) == count && w.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestWheelNextDeadlineCoarseGranularity pins NextDeadline behaviour when
// buckets hold several cycles: the earliest cycle must win even when a
// later-scheduled entry lands in the same bucket.
func TestWheelNextDeadlineCoarseGranularity(t *testing.T) {
	w := newFrameWheel(64, 4, 0)
	w.Schedule(130, 1) // bucket 2
	w.Schedule(100, 2) // bucket 1
	w.Schedule(120, 3) // bucket 1, later insertion, earlier than 130
	if d, ok := w.NextDeadline(); !ok || d != 100 {
		t.Fatalf("NextDeadline = %d,%v, want 100,true", d, ok)
	}
	// Drain only the first bucket; the minimum moves to the next bucket.
	due := popDue(w, 127, -1)
	if len(due) != 2 {
		t.Fatalf("PopDueInto(127) returned %d entries, want 2", len(due))
	}
	if d, ok := w.NextDeadline(); !ok || d != 130 {
		t.Errorf("NextDeadline after drain = %d,%v, want 130,true", d, ok)
	}
}

// TestWheelNextDeadlineAfterMaxLimitedPop checks that a max-limited drain
// that stops mid-bucket leaves NextDeadline pointing at the remaining
// entries.
func TestWheelNextDeadlineAfterMaxLimitedPop(t *testing.T) {
	w := newFrameWheel(4, 8, 0)
	for i := 0; i < 8; i++ {
		w.Schedule(int64(10+i), i) // buckets 2 to 4
	}
	due := popDue(w, 100, 3)
	if len(due) != 3 {
		t.Fatalf("PopDueInto(max=3) returned %d entries", len(due))
	}
	if d, ok := w.NextDeadline(); !ok || d != 13 {
		t.Errorf("NextDeadline = %d,%v, want 13,true", d, ok)
	}
	rest := popDue(w, 100, -1)
	if len(rest) != 5 {
		t.Errorf("rest = %d entries, want 5", len(rest))
	}
	if _, ok := w.NextDeadline(); ok || w.Len() != 0 {
		t.Errorf("wheel should be empty, len = %d", w.Len())
	}
}

// TestWheelMaxLimitCoarseBuckets drains a coarse-bucketed wheel a few
// entries at a time and checks nothing is lost, duplicated or early.
func TestWheelMaxLimitCoarseBuckets(t *testing.T) {
	const n = 40
	w := newFrameWheel(16, n, 0)
	for i := 0; i < n; i++ {
		w.Schedule(int64(i*7), i)
	}
	seen := map[int64]bool{}
	for w.Len() > 0 {
		due := popDue(w, n*7, 3)
		if len(due) == 0 {
			t.Fatal("PopDueInto made no progress")
		}
		for _, e := range due {
			if seen[e.ID] {
				t.Fatalf("duplicate id %d", e.ID)
			}
			seen[e.ID] = true
		}
	}
	if len(seen) != n {
		t.Errorf("drained %d entries, want %d", len(seen), n)
	}
}

// TestWheelOverflowBeyondRing schedules far past the ring window, so the
// wheel must grow its ring, then checks the entries drain correctly.
func TestWheelOverflowBeyondRing(t *testing.T) {
	w := newFrameWheel(1, 4, 0) // default ring: 64 buckets
	w.Schedule(5, 1)
	w.Schedule(10_000, 2) // far beyond the window: grow
	w.Schedule(5_000, 3)
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	if len(w.head) <= defaultRingBuckets {
		t.Fatalf("ring has %d buckets, want it grown past %d", len(w.head), defaultRingBuckets)
	}
	if d, ok := w.NextDeadline(); !ok || d != 5 {
		t.Fatalf("NextDeadline = %d,%v, want 5,true", d, ok)
	}
	if due := popDue(w, 5, -1); len(due) != 1 || due[0].ID != 1 {
		t.Fatalf("PopDueInto(5) = %+v", due)
	}
	if d, ok := w.NextDeadline(); !ok || d != 5_000 {
		t.Fatalf("NextDeadline = %d,%v, want 5000,true", d, ok)
	}
	if due := popDue(w, 6_000, -1); len(due) != 1 || due[0].ID != 3 {
		t.Fatalf("PopDueInto(6000) = %+v", due)
	}
	if due := popDue(w, 10_000, -1); len(due) != 1 || due[0].ID != 2 {
		t.Fatalf("PopDueInto(10000) = %+v", due)
	}
	if w.Len() != 0 {
		t.Errorf("Len = %d, want 0", w.Len())
	}
}

// TestWheelScheduleEarlierThanPending rebases the window when a deadline
// earlier than everything pending is scheduled and the pending span no
// longer fits the ring.
func TestWheelScheduleEarlierThanPending(t *testing.T) {
	w := newFrameWheel(1, 4, 0)
	w.Schedule(1000, 1)
	w.Schedule(1063, 2) // same window as 1000 (64 buckets)
	w.Schedule(990, 3)  // earlier: the window moves back and 1063 no longer fits
	var got []int64
	for _, e := range popDue(w, 2000, -1) {
		got = append(got, e.ID)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Errorf("drain order = %v, want [3 1 2]", got)
	}
}

// TestWheelPopDueIntoReuse checks that PopDueInto appends into the supplied
// buffer and drains a bucket in schedule order, round after round.
func TestWheelPopDueIntoReuse(t *testing.T) {
	w := newFrameWheel(4, 10, 1024)
	buf := make([]wheelEntry, 0, 16)
	for round := int64(0); round < 50; round++ {
		base := round * 20
		for i := 0; i < 10; i++ {
			w.Schedule(base+int64(i), i)
		}
		buf = w.PopDueInto(base+19, -1, buf[:0])
		if len(buf) != 10 {
			t.Fatalf("round %d: drained %d entries, want 10", round, len(buf))
		}
		for i, e := range buf {
			if e.ID != int64(i) {
				t.Fatalf("round %d: order %+v", round, buf)
			}
		}
	}
	if w.Len() != 0 {
		t.Errorf("Len = %d, want 0", w.Len())
	}
}

// TestRingBucketsSizing checks ringBuckets covers the requested span with a
// power-of-two ring, and falls back to defaultRingBuckets without one.
func TestRingBucketsSizing(t *testing.T) {
	tests := []struct {
		granularity, horizon int64
		want                 int64
	}{
		{64, 0, defaultRingBuckets},
		{64, -1, defaultRingBuckets},
		{64, 64 * 62, defaultRingBuckets},
		{64, 64 * 63, 128},
		{64, 33_616, 1024},
		{1, 33_616, 1 << 16},
		{sentryBucketCycles, 4_000_000, 1 << 16},
	}
	for _, tt := range tests {
		got := ringBuckets(tt.granularity, tt.horizon)
		if got != tt.want {
			t.Errorf("ringBuckets(%d, %d) = %d, want %d", tt.granularity, tt.horizon, got, tt.want)
		}
		if got&(got-1) != 0 {
			t.Errorf("ringBuckets(%d, %d) = %d, not a power of two", tt.granularity, tt.horizon, got)
		}
		if tt.horizon > 0 && got < tt.horizon/tt.granularity+2 {
			t.Errorf("ring of %d buckets cannot cover a %d-cycle horizon", got, tt.horizon)
		}
	}
}

// TestMaxSentryRetentionRingBound checks config.MaxSentryRetentionCycles
// keeps a Refrint bank's sentry ring at no more than 2^16 buckets.
func TestMaxSentryRetentionRingBound(t *testing.T) {
	if got := ringBuckets(sentryBucketCycles, config.MaxSentryRetentionCycles); got > 1<<16 {
		t.Errorf("a sentry retention of %d cycles needs %d wheel buckets, want at most %d", config.MaxSentryRetentionCycles, got, 1<<16)
	}
}

// TestWheelHorizonSizing checks newFrameWheel covers the requested span:
// scheduling a horizon ahead of a pending deadline does not grow the ring.
func TestWheelHorizonSizing(t *testing.T) {
	w := newFrameWheel(64, 2, 33_616)
	buckets := len(w.head)
	if buckets < 33_616/64+2 {
		t.Errorf("ring %d buckets cannot cover a 33616-cycle horizon", buckets)
	}
	w.Schedule(100, 0)
	w.Schedule(100+33_616, 1)
	if len(w.head) != buckets {
		t.Errorf("horizon-sized wheel grew from %d to %d buckets", buckets, len(w.head))
	}
}

// TestFrameWheelRandomizedAgainstReference drives random operations against
// a map[id]deadline model: Schedule (including moving a live id, deadlines
// before the window start that rebase it and deadlines past the ring that
// grow it), Cancel, and max-limited PopDueInto.  Nothing may be lost,
// duplicated or returned early, and Len, Deadline, NextDeadline and
// MaybeDue must agree with the model after every operation.
func TestFrameWheelRandomizedAgainstReference(t *testing.T) {
	const ids = 48
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newFrameWheel(int64(1)<<rng.Intn(6), ids, 0)
		model := map[int]int64{}
		now := int64(0)
		for step := 0; step < 400; step++ {
			id := rng.Intn(ids)
			switch op := rng.Intn(10); {
			case op < 5:
				d := now + rng.Int63n(2000)
				switch rng.Intn(6) {
				case 0: // past the initial ring (64 buckets of <= 32 cycles): grow
					d = now + 4096 + rng.Int63n(8192)
				case 1: // before the window start: rebase
					if start := w.next << w.granShift; w.Len() > 0 && start > 0 {
						d = start - 1 - rng.Int63n(min(start, 1000))
					}
				}
				w.Schedule(d, id)
				model[id] = d
			case op < 7:
				w.Cancel(id)
				delete(model, id)
			default:
				now += rng.Int63n(600)
				max := -1
				if rng.Intn(3) == 0 {
					max = rng.Intn(4)
				}
				due := popDue(w, now, max)
				if max >= 0 && len(due) > max {
					return false
				}
				lastBucket := int64(-1)
				for _, e := range due {
					d, ok := model[int(e.ID)]
					if !ok || d != e.Cycle || d > now {
						return false // lost, duplicated or early
					}
					if b := e.Cycle >> w.granShift; b < lastBucket {
						return false // out of bucket order
					} else {
						lastBucket = b
					}
					delete(model, int(e.ID))
				}
				if max < 0 {
					for _, d := range model {
						if d <= now {
							return false // a due entry was left behind
						}
					}
				}
			}
			if !agrees(w, model, now) {
				return false
			}
		}
		for _, e := range popDue(w, 1<<40, -1) {
			if d, ok := model[int(e.ID)]; !ok || d != e.Cycle {
				return false
			}
			delete(model, int(e.ID))
		}
		return len(model) == 0 && w.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// agrees reports whether the wheel's observable state matches the model.
func agrees(w *frameWheel, model map[int]int64, now int64) bool {
	if w.Len() != len(model) {
		return false
	}
	earliest, pending := int64(0), false
	for id := range w.nodes {
		d, ok := w.Deadline(id)
		if md, in := model[id]; ok != in || (ok && d != md) {
			return false
		}
		if ok && (!pending || d < earliest) {
			earliest, pending = d, true
		}
	}
	if d, ok := w.NextDeadline(); ok != pending || (ok && d != earliest) {
		return false
	}
	// MaybeDue is a lower-bound test: it may say yes when nothing is due,
	// but never no when something is.
	if pending && earliest <= now && !w.MaybeDue(now) {
		return false
	}
	return pending || !w.MaybeDue(now)
}

// wheelScript drives a wheel through random schedules, cancels and drains
// from time `from`, with some deadlines far past the ring so it grows, and
// returns every drain's output in order.  Deadlines may still be pending
// when it returns.
func wheelScript(w *frameWheel, rng *rand.Rand, ids int, from, horizon int64) [][]wheelEntry {
	var out [][]wheelEntry
	now := from
	for step := 0; step < 400; step++ {
		switch r := rng.Intn(10); {
		case r < 6:
			ahead := 1 + rng.Int63n(horizon)
			if rng.Intn(20) == 0 {
				ahead *= 16 // past the ring: forces growth
			}
			w.Schedule(now+ahead, rng.Intn(ids))
		case r < 7:
			w.Cancel(rng.Intn(ids))
		default:
			now += rng.Int63n(horizon / 2)
			out = append(out, w.PopDueInto(now, -1, nil))
		}
	}
	return out
}

// TestFrameWheelResetMatchesFresh pins that a wheel reset after growth, and
// after a change of horizon, drains exactly as a freshly built one.
func TestFrameWheelResetMatchesFresh(t *testing.T) {
	const ids, gran = 300, 64
	for _, horizons := range [][2]int64{{4096, 4096}, {16384, 2048}, {2048, 16384}} {
		rng := rand.New(rand.NewSource(horizons[0] ^ horizons[1]))
		w := newFrameWheel(gran, ids, horizons[0])
		built := len(w.head)
		wheelScript(w, rng, ids, 1000, horizons[0])
		if len(w.head) <= built || w.Len() == 0 {
			t.Fatalf("horizon %d: the first script left %d pending in a ring of %d (built %d); want growth and pending deadlines",
				horizons[0], w.Len(), len(w.head), built)
		}
		w.Reset(horizons[1])
		if w.Len() != 0 {
			t.Fatalf("Len after Reset = %d, want 0", w.Len())
		}
		fresh := newFrameWheel(gran, ids, horizons[1])
		seed := rng.Int63()
		got := wheelScript(w, rand.New(rand.NewSource(seed)), ids, 0, horizons[1])
		want := wheelScript(fresh, rand.New(rand.NewSource(seed)), ids, 0, horizons[1])
		got = append(got, w.PopDueInto(1<<40, -1, nil))
		want = append(want, fresh.PopDueInto(1<<40, -1, nil))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("horizons %v: reset wheel drains\n%v\nfresh wheel drains\n%v", horizons, got, want)
		}
	}
}
