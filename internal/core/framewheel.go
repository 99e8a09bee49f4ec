package core

// frameWheel is the timing wheel that holds the sentry deadline of every
// line frame of a Refrint bank.  It is specialised for the refresh
// machinery's access pattern: deadlines are keyed by a dense id space (cache
// line frame indices) and each id has at most one live deadline at a time.
// Instead of appending entries to bucket slices — which leaves a stale entry
// behind on every reschedule and makes the consumer filter them out — the
// wheel links one preallocated node per id into an intrusive doubly-linked
// list per bucket.  Rescheduling an id moves its node, so the wheel only
// ever holds live deadlines and performs no allocation after construction.
//
// Buckets drain in ascending order and nodes within a bucket drain in the
// order their ids were (re)scheduled into it.  The drain,
// Bank.advanceRefrint, walks the bucket lists itself and compares each
// node's exact deadline with now, so coarse buckets never fire a sentry
// early.  Every node lies in the ring window [next, next+len(head)), so no
// two buckets holding nodes share a slot.
type frameWheel struct {
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

// sentryBucketCycles is the bucket width, in cycles, of a bank's sentry
// wheel.
const sentryBucketCycles = 64

// defaultRingBuckets is the ring size used when no horizon is given.
const defaultRingBuckets = 64

// ringBuckets returns the number of buckets a wheel with buckets of
// `granularity` cycles needs so that a deadline `horizon` cycles beyond the
// earliest pending one fits without growing the ring: horizon/granularity+2
// (the earliest deadline's bucket may be partly past, and the last one
// partly ahead), rounded up to a power of two so a bucket's slot is a mask,
// and never fewer than defaultRingBuckets.
func ringBuckets(granularity, horizon int64) int64 {
	buckets := int64(defaultRingBuckets)
	if horizon > 0 && granularity > 0 {
		need := horizon/granularity + 2
		for buckets < need {
			buckets <<= 1
		}
	}
	return buckets
}

// init makes w an empty wheel for ids 0..ids-1 whose ring covers at least
// `horizon` cycles beyond the earliest pending deadline.  Scheduling past
// the covered window grows the ring (a rare, amortised event); sizing the
// horizon to the caller's maximum schedule-ahead distance avoids it.  The
// granularity is rounded up to a power of two so bucketing is a shift.
func (w *frameWheel) init(granularity int64, ids int, horizon int64) {
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
	*w = frameWheel{
		granShift:   shift,
		granularity: granularity,
		nodes:       make([]frameNode, ids),
	}
	w.Reset(horizon)
}

// Reset empties the wheel and sizes its ring for `horizon` exactly as
// init would, without allocating when the ring it already has is
// large enough: a ring grown by an earlier run, or sized for a longer
// horizon, is kept.  Ring size never changes which deadlines a drain finds
// due or their order, so a reset wheel behaves as a fresh one.
func (w *frameWheel) Reset(horizon int64) {
	buckets := ringBuckets(w.granularity, horizon)
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
func (w *frameWheel) Len() int { return w.count }

// MaybeDue reports whether any deadline could be due at `now`: a
// lower-bound test (the earliest pending deadline is at or after bucket
// `next`) that owners use to skip draining entirely on the hot path.
func (w *frameWheel) MaybeDue(now int64) bool {
	return w.count != 0 && now>>w.granShift >= w.next
}

// Schedule registers (or moves) the deadline of id.
func (w *frameWheel) Schedule(cycle int64, id int) {
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

// unlink removes a linked node from its bucket list.
func (w *frameWheel) unlink(id int32) {
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
func (w *frameWheel) maxBucket() int64 {
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
func (w *frameWheel) rebase(b int64) {
	if span := w.maxBucket() - b + 1; span > int64(len(w.head)) {
		w.rebuild(b, span)
	}
	w.next = b
}

// grow widens the ring so bucket b fits in the window [next, next+buckets).
func (w *frameWheel) grow(b int64) {
	w.rebuild(w.next, b-w.next+1)
}

// rebuild re-links every node into a ring of at least minSpan buckets
// starting at windowStart, preserving bucket order and within-bucket order.
func (w *frameWheel) rebuild(windowStart, minSpan int64) {
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
