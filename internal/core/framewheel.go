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
// early.  Every node lies in the ring window [next, next+mask+1), so no
// two buckets holding nodes share a slot.
//
// Each bucket list is circular through a sentinel node of its own: nodes
// holds the ids frame nodes and then one sentinel per ring slot, node
// ids+slot, whose next and prev are the list's first and last node (itself
// when the bucket is empty).  Linking or unlinking a node therefore never
// tests for a list end.
type frameWheel struct {
	granShift   uint  // log2(granularity)
	granularity int64 // power of two
	ids         int   // frame nodes; nodes[ids+slot] is slot's sentinel
	nodes       []frameNode
	mask        int64 // ring slots - 1
	next        int64 // earliest bucket that may contain nodes
	count       int
}

// frameNode is the intrusive list node of one id or one slot's sentinel:
// 16 bytes, since every line frame of every refreshable bank has one.
type frameNode struct {
	// next and prev are the neighbouring nodes in the circular bucket
	// list; prev is unlinked while id has no deadline pending.
	next, prev int32
	deadline   int64
}

const unlinked = int32(-1)

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
		ids:         ids,
	}
	w.Reset(horizon)
}

// Reset empties the wheel and sizes its ring for `horizon` exactly as
// init would, without allocating when the ring it already has is
// large enough: a ring grown by an earlier run, or sized for a longer
// horizon, is kept.  Ring size never changes which deadlines a drain finds
// due or their order, so a reset wheel behaves as a fresh one.
func (w *frameWheel) Reset(horizon int64) {
	if buckets := ringBuckets(w.granularity, horizon); int64(len(w.nodes)-w.ids) < buckets {
		w.nodes = make([]frameNode, int64(w.ids)+buckets)
		w.mask = buckets - 1
	}
	for i := range w.nodes[:w.ids] {
		w.nodes[i] = frameNode{prev: unlinked}
	}
	w.clearSentinels()
	w.next = 0
	w.count = 0
}

// clearSentinels empties every bucket list.
func (w *frameWheel) clearSentinels() {
	for s := w.ids; s < len(w.nodes); s++ {
		w.nodes[s] = frameNode{next: int32(s), prev: int32(s)}
	}
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
	if n := &w.nodes[id]; n.prev != unlinked {
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
	if b > w.next+w.mask {
		w.grow(b)
	}
	// rebase and grow may reallocate nodes.
	nodes := w.nodes
	sent := int32(w.ids) + int32(b&w.mask)
	last := nodes[sent].prev
	nodes[id] = frameNode{next: sent, prev: last, deadline: cycle}
	nodes[last].next = int32(id)
	nodes[sent].prev = int32(id)
	w.count++
}

// unlink removes a linked node from its bucket list.
func (w *frameWheel) unlink(id int32) {
	n := &w.nodes[id]
	w.nodes[n.prev].next = n.next
	w.nodes[n.next].prev = n.prev
	n.prev = unlinked
	w.count--
}

// maxBucket returns the largest bucket holding a node (count must be > 0).
func (w *frameWheel) maxBucket() int64 {
	max := int64(-1 << 62)
	for i := range w.nodes[:w.ids] {
		n := &w.nodes[i]
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
	if span := w.maxBucket() - b + 1; span > w.mask+1 {
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
// It reallocates nodes, keeping every frame node's deadline.
func (w *frameWheel) rebuild(windowStart, minSpan int64) {
	buckets := w.mask + 1
	for buckets < minSpan {
		buckets <<= 1
	}
	old, oldMask, oldNext, oldCount := w.nodes, w.mask, w.next, w.count
	w.nodes = make([]frameNode, int64(w.ids)+buckets)
	w.mask = buckets - 1
	for i := range w.nodes[:w.ids] {
		w.nodes[i] = frameNode{prev: unlinked, deadline: old[i].deadline}
	}
	w.clearSentinels()
	w.next = windowStart
	w.count = 0
	if oldCount == 0 {
		return
	}
	// Walk the old ring in bucket order, relinking each list into the new
	// ring.  Old window: [oldNext, oldNext+oldMask+1).
	for b := oldNext; b <= oldNext+oldMask; b++ {
		sent := int32(w.ids) + int32(b&oldMask)
		for id := old[sent].next; id != sent; id = old[id].next {
			w.Schedule(old[id].deadline, int(id))
		}
	}
}
