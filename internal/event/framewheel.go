// Package event holds the simulator's timing wheel, FrameWheel, which
// tracks the refresh deadline of every cache line frame (the Refrint
// sentries).  The simulation run loop orders its events with its own typed
// heap (sim.(*System).RunContext), not with this package.
package event

// FrameWheel is a timing wheel specialised for the refresh machinery's
// access pattern: deadlines are keyed by a dense id space (cache line frame
// indices) and each id has at most one live deadline at a time.  Instead of
// appending entries to bucket slices — which leaves a stale entry behind on
// every reschedule and makes the consumer filter them out — the wheel links
// one preallocated node per id into an intrusive doubly-linked list per
// bucket.  Rescheduling an id moves its node, so the wheel only ever holds
// live deadlines and performs no allocation after construction.
//
// Buckets drain in ascending order and nodes within a bucket drain in the
// order their ids were (re)scheduled into it.  PopDueInto compares each
// node's exact deadline with now, so coarse buckets never return an entry
// early; a granularity of 1 also makes the drain order exact.
type FrameWheel struct {
	granShift   uint  // log2(granularity)
	granularity int64 // power of two
	nodes       []frameNode
	head        []int32 // head[slot] is the first node of the bucket's list, -1 if empty
	tail        []int32
	mask        int64
	next        int64 // earliest bucket that may contain nodes
	count       int
}

// frameNode is the intrusive list node of one id: 16 bytes, since every
// line frame of every refreshable bank has one.
type frameNode struct {
	// next and prev are the neighbouring ids in the bucket list, noNode at
	// the ends; prev is unlinked while id has no deadline pending.
	next, prev int32
	deadline   int64
}

const (
	noNode   = int32(-1)
	unlinked = int32(-2)
)

// WheelEntry is one due deadline returned by PopDueInto.
type WheelEntry struct {
	Cycle int64 // the deadline
	ID    int64 // consumer-defined identifier (e.g. line index)
}

// defaultRingBuckets is the ring size used when no horizon is given.
const defaultRingBuckets = 64

// NewFrameWheel returns a wheel for ids 0..ids-1 whose ring covers at least
// `horizon` cycles beyond the earliest pending deadline.  Scheduling past
// the covered window grows the ring (a rare, amortised event); sizing the
// horizon to the caller's maximum schedule-ahead distance avoids it.  The
// granularity is rounded up to a power of two so bucketing is a shift.
func NewFrameWheel(granularity int64, ids int, horizon int64) *FrameWheel {
	if granularity <= 0 {
		granularity = 1
	}
	for granularity&(granularity-1) != 0 {
		granularity++
	}
	shift := uint(0)
	for g := granularity; g > 1; g >>= 1 {
		shift++
	}
	w := &FrameWheel{
		granShift:   shift,
		granularity: granularity,
		nodes:       make([]frameNode, ids),
	}
	w.Reset(horizon)
	return w
}

// Reset empties the wheel and sizes its ring for `horizon` exactly as
// NewFrameWheel would, without allocating when the ring it already has is
// large enough: a ring grown by an earlier run, or sized for a longer
// horizon, is kept.  Ring size never changes which entries PopDueInto
// returns or their order, so a reset wheel behaves as a fresh one.
func (w *FrameWheel) Reset(horizon int64) {
	buckets := int64(defaultRingBuckets)
	if horizon > 0 {
		need := horizon/w.granularity + 2
		for buckets < need {
			buckets <<= 1
		}
	}
	if int64(len(w.head)) < buckets {
		w.head = make([]int32, buckets)
		w.tail = make([]int32, buckets)
		w.mask = buckets - 1
	}
	for i := range w.head {
		w.head[i] = noNode
		w.tail[i] = noNode
	}
	for i := range w.nodes {
		w.nodes[i] = frameNode{next: noNode, prev: unlinked}
	}
	w.next = 0
	w.count = 0
}

// Len returns the number of pending deadlines.
func (w *FrameWheel) Len() int { return w.count }

// MaybeDue reports whether any deadline could be due at `now`: a
// lower-bound test (the earliest pending deadline is at or after bucket
// `next`) that owners use to skip draining entirely on the hot path.
func (w *FrameWheel) MaybeDue(now int64) bool {
	return w.count != 0 && now>>w.granShift >= w.next
}

// Deadline returns the pending deadline of id and whether one is registered.
func (w *FrameWheel) Deadline(id int) (int64, bool) {
	n := &w.nodes[id]
	return n.deadline, n.prev != unlinked
}

// Schedule registers (or moves) the deadline of id.
func (w *FrameWheel) Schedule(cycle int64, id int) {
	n := &w.nodes[id]
	if n.prev != unlinked {
		if n.deadline == cycle {
			return
		}
		w.unlink(int32(id))
	}
	b := cycle >> w.granShift
	switch {
	case w.count == 0:
		w.next = b
	case b < w.next:
		w.rebase(b)
	}
	if b >= w.next+int64(len(w.head)) {
		w.grow(b)
	}
	slot := b & w.mask
	n.deadline = cycle
	n.next = noNode
	n.prev = w.tail[slot]
	if n.prev == noNode {
		w.head[slot] = int32(id)
	} else {
		w.nodes[n.prev].next = int32(id)
	}
	w.tail[slot] = int32(id)
	w.count++
}

// Cancel removes the pending deadline of id, if any.
func (w *FrameWheel) Cancel(id int) {
	if w.nodes[id].prev != unlinked {
		w.unlink(int32(id))
	}
}

// unlink removes a linked node from its bucket list.
func (w *FrameWheel) unlink(id int32) {
	n := &w.nodes[id]
	slot := (n.deadline >> w.granShift) & w.mask
	if n.prev == noNode {
		w.head[slot] = n.next
	} else {
		w.nodes[n.prev].next = n.next
	}
	if n.next == noNode {
		w.tail[slot] = n.prev
	} else {
		w.nodes[n.next].prev = n.prev
	}
	n.next, n.prev = noNode, unlinked
	w.count--
}

// maxBucket returns the largest bucket holding a node (count must be > 0).
func (w *FrameWheel) maxBucket() int64 {
	max := int64(-1 << 62)
	for id := range w.nodes {
		n := &w.nodes[id]
		if n.prev != unlinked {
			if b := n.deadline >> w.granShift; b > max {
				max = b
			}
		}
	}
	return max
}

// rebase lowers the window start to bucket b (a deadline earlier than every
// pending one was scheduled), growing the ring if the pending span no longer
// fits.  Rare: the refresh machinery only schedules forward.
func (w *FrameWheel) rebase(b int64) {
	if span := w.maxBucket() - b + 1; span > int64(len(w.head)) {
		w.rebuild(b, span)
	}
	w.next = b
}

// grow widens the ring so bucket b fits in the window [next, next+buckets).
func (w *FrameWheel) grow(b int64) {
	w.rebuild(w.next, b-w.next+1)
}

// rebuild re-links every node into a ring of at least minSpan buckets
// starting at windowStart, preserving bucket order and within-bucket order.
func (w *FrameWheel) rebuild(windowStart, minSpan int64) {
	buckets := int64(len(w.head))
	for buckets < minSpan {
		buckets <<= 1
	}
	oldHead := w.head
	oldMask := w.mask
	oldNext := w.next
	oldCount := w.count
	w.head = make([]int32, buckets)
	w.tail = make([]int32, buckets)
	w.mask = buckets - 1
	for i := range w.head {
		w.head[i] = noNode
		w.tail[i] = noNode
	}
	w.next = windowStart
	w.count = 0
	if oldCount == 0 {
		return
	}
	// Walk the old ring in bucket order, relinking each list into the new
	// ring.  Old window: [oldNext, oldNext+len(oldHead)).
	for b := oldNext; b < oldNext+int64(len(oldHead)); b++ {
		id := oldHead[b&oldMask]
		for id != noNode {
			n := &w.nodes[id]
			nextID := n.next
			n.next, n.prev = noNode, unlinked
			w.Schedule(n.deadline, int(id))
			id = nextID
		}
	}
}

// PopDueInto appends up to max due entries (deadline <= now) to dst in
// non-decreasing bucket order (within-bucket in schedule order) and returns
// the extended slice.  A negative max means no limit.  It allocates only if
// dst lacks capacity.
func (w *FrameWheel) PopDueInto(now int64, max int, dst []WheelEntry) []WheelEntry {
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
				dst = append(dst, WheelEntry{Cycle: n.deadline, ID: int64(id)})
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
func (w *FrameWheel) NextDeadline() (int64, bool) {
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
