// Package sched is the priority-aware scheduler behind the sweep service:
// one shared set of queues that a pool of worker goroutines pulls from.
//
//   - Three priority classes (Interactive > Batch > Background), each a set
//     of FIFO queues, dequeued by weighted round-robin so low classes cannot
//     starve but an interactive submission starts ahead of queued batch work.
//     The round-robin credits belong to the pool, not to a worker: whichever
//     worker pops next spends them.
//   - Weighted fair share across submitting clients inside a class: each
//     client has its own FIFO and active clients are served round-robin, so
//     one tenant flooding a class cannot monopolize it.
//   - First-class cancellation: Cancel removes a queued item immediately, so
//     dead work never counts as queued.
//
// Items share no state (the sweep service submits one independent
// simulation cell per item), so there is nothing to gain from tying an item
// to a worker: every worker serves every queue, and no worker idles while
// any queue holds work.
//
// The hot submit/dequeue path performs no heap allocations in steady state:
// items come from a free list and client queues are reusable ring buffers.
// All state is guarded by one mutex; items are heavyweight (milliseconds to
// seconds of simulation), so scheduling cost is noise next to execution
// cost — the mutex buys simple invariants: exact per-class/per-client live
// counts, and a condition variable that guarantees a waiting worker is woken
// whenever work exists.
package sched

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// Class is a scheduling priority class.  Lower values are more urgent.
type Class int

// The three priority classes, most to least urgent.
const (
	Interactive Class = iota
	Batch
	Background
)

// NumClasses is the number of priority classes.
const NumClasses = 3

// String returns the wire label of the class.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	case Background:
		return "background"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass maps a wire label to a Class.  The empty string is not accepted
// here; callers pick their own default.
func ParseClass(s string) (Class, error) {
	switch s {
	case "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	case "background":
		return Background, nil
	}
	return 0, fmt.Errorf("sched: unknown priority class %q (want interactive, batch or background)", s)
}

// DefaultWeights are the weighted-round-robin dequeue weights per class when
// Config.Weights is unset: with all classes backlogged, one full cycle serves
// 16 interactive, 4 batch and 1 background item.
var DefaultWeights = [NumClasses]int{16, 4, 1}

// Config tunes a Scheduler.  The zero value is usable.
type Config struct {
	// Workers is the number of worker goroutines Start spawns (default 2).
	Workers int
	// Weights are the weighted-round-robin dequeue shares per class
	// (default DefaultWeights; minimum 1 each).
	Weights [NumClasses]int
	// OnPanic, when set, receives every panic recovered from a run
	// callback or an OnDequeue hook.  Worker goroutines always recover: a
	// panicking callback loses its item, never the worker (and with it the
	// process).  With OnPanic unset the recovered value is discarded, so
	// owners that need the signal (the server logs it and fails the job)
	// must install the hook.  Called outside the scheduler mutex.
	OnPanic func(payload any, recovered any, stack []byte)
	// OnDequeue, when set, is invoked by the worker that popped an item,
	// after the scheduler mutex is released and before run executes it,
	// with the class the item was dequeued from and the time it spent
	// queued in that class (the clock restarts on Promote).
	// This surfaces the queue-phase timestamps to the owner for tracing
	// and latency histograms; callbacks may take their own locks.
	OnDequeue func(payload any, class Class, wait time.Duration)
	// Now is the clock used for scheduling-latency accounting (default
	// time.Now; injectable for tests).
	Now func() time.Time
}

// Handle identifies one queued submission for Cancel/Promote.  The zero
// value is inert: Cancel and Promote on it report false.  A handle stays
// valid for the lifetime of its item; once the item finishes (or is
// cancelled) the handle goes stale and all operations on it report false,
// even after the scheduler recycles the item's memory.
type Handle struct {
	it  *item
	gen uint32
}

// Item lifecycle states.
const (
	itemQueued uint8 = iota
	itemCancelled
	itemTaken
)

// item is one queued submission.  Items are pooled: gen increments on every
// release so stale Handles cannot touch a recycled item.
type item struct {
	payload any
	client  string
	class   Class
	at      time.Time
	wait    time.Duration // queue wait measured at dequeue, for OnDequeue
	state   uint8
	gen     uint32
	next    *item // free list link
}

// clientQueue is one client's FIFO within a class: a reusable ring buffer.
type clientQueue struct {
	name   string
	buf    []*item
	head   int
	n      int
	inRing bool
}

func (q *clientQueue) push(it *item) {
	if q.n == len(q.buf) {
		grown := make([]*item, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = it
	q.n++
}

// pushFront queues it ahead of every queued item.
func (q *clientQueue) pushFront(it *item) {
	q.push(it) // grows the buffer when it is full
	q.popBack()
	q.head = (q.head + len(q.buf) - 1) % len(q.buf)
	q.buf[q.head] = it
	q.n++
}

func (q *clientQueue) front() *item { return q.buf[q.head] }
func (q *clientQueue) back() *item  { return q.buf[(q.head+q.n-1)%len(q.buf)] }

func (q *clientQueue) popFront() *item {
	it := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return it
}

func (q *clientQueue) popBack() *item {
	i := (q.head + q.n - 1) % len(q.buf)
	it := q.buf[i]
	q.buf[i] = nil
	q.n--
	return it
}

// classQueue is one priority class: per-client FIFOs served round-robin via
// the active-client ring.
type classQueue struct {
	clients map[string]*clientQueue
	ring    []*clientQueue // clients with buffered items, in arrival order
	next    int            // round-robin cursor into ring
}

// Scheduler dispatches submitted items to worker goroutines.
type Scheduler struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	classes [NumClasses]classQueue
	credits [NumClasses]int // weighted round-robin credits left this cycle
	queued  [NumClasses]int // live (not cancelled) queued items per class
	busy    int             // workers currently running an item
	closed  bool
	free    *item          // free list of recycled items
	cqFree  []*clientQueue // free list of recycled client FIFOs
	wg      sync.WaitGroup

	waitCount [NumClasses]int64
}

// New builds a scheduler.  Call Start to spawn the workers (tests drive the
// queues directly instead) and Close to stop them.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	for c := 0; c < NumClasses; c++ {
		if cfg.Weights[c] <= 0 {
			cfg.Weights[c] = DefaultWeights[c]
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Scheduler{cfg: cfg, credits: cfg.Weights}
	s.cond = sync.NewCond(&s.mu)
	for c := range s.classes {
		s.classes[c].clients = make(map[string]*clientQueue)
	}
	return s
}

// Submit enqueues payload under the given client label and class.  It
// reports false when the class is out of range or the scheduler is closed.
// The returned Handle cancels or promotes the item while it is still queued.
//
//refrint:alloc-free
func (s *Scheduler) Submit(client string, class Class, payload any) (Handle, bool) {
	return s.add(client, class, payload, false)
}

// Requeue is Submit for an item a worker took and gave back unfinished
// (the sweep service's preempted cell): payload goes to the front of its
// client's FIFO in class, and that client to the round-robin cursor, so it
// is the next item taken from the class.  Its wait clock starts afresh, so
// its second queue wait is accounted like the first.  Cancel and Promote
// work on it as on a submitted item.
func (s *Scheduler) Requeue(client string, class Class, payload any) (Handle, bool) {
	return s.add(client, class, payload, true)
}

// add is Submit and Requeue.
//
//refrint:alloc-free
func (s *Scheduler) add(client string, class Class, payload any, front bool) (Handle, bool) {
	if class < 0 || class >= NumClasses {
		return Handle{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Handle{}, false
	}
	it := s.newItemLocked()
	it.payload = payload
	it.client = client
	it.class = class
	it.at = s.cfg.Now()
	it.state = itemQueued
	c := s.enqueueLocked(it, front)
	if front {
		s.serveNextLocked(&s.classes[class], c)
	}
	s.cond.Signal()
	return Handle{it: it, gen: it.gen}, true
}

// Cancel removes a queued item: it leaves the class's queued count at once,
// and a worker never runs it.  It reports false when the handle is stale or
// the item already started.
func (s *Scheduler) Cancel(h Handle) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.it == nil || h.it.gen != h.gen || h.it.state != itemQueued {
		return false
	}
	s.cancelLocked(h.it)
	return true
}

// Promote moves a still-queued item to another class (in either direction),
// into the same client's FIFO there.  The item's wait clock restarts, so the
// wait OnDequeue reports is the time it spent in the class it is dequeued
// from.  It returns the handle now identifying the item and reports false
// when the item is no longer queued.
func (s *Scheduler) Promote(h Handle, to Class) (Handle, bool) {
	if to < 0 || to >= NumClasses {
		return h, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	it := h.it
	if it == nil || it.gen != h.gen || it.state != itemQueued {
		return h, false
	}
	if it.class == to {
		return h, true
	}
	// Capture before cancelLocked: edge-trimming may recycle it.
	payload, client := it.payload, it.client
	s.cancelLocked(it)
	nit := s.newItemLocked()
	nit.payload = payload
	nit.client = client
	nit.class = to
	nit.at = s.cfg.Now()
	nit.state = itemQueued
	s.enqueueLocked(nit, false)
	return Handle{it: nit, gen: nit.gen}, true
}

// Start spawns the worker goroutines; run is invoked once per dequeued
// payload, behind a recover guard (see Config.OnPanic) so a panicking
// callback can never kill a worker.  Items submitted before Start simply
// wait.
func (s *Scheduler) Start(run func(payload any)) {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				it := s.next()
				if it == nil {
					return
				}
				s.dispatchGuarded(run, it)
				s.done(it)
			}
		}()
	}
}

// dispatchGuarded runs one dequeued item — the OnDequeue hook and then run —
// inside a single panic guard: a panic in either loses only this item (run
// does not execute after a panicking OnDequeue; the caller still reaches
// done(it) to release the slot), never the worker.
func (s *Scheduler) dispatchGuarded(run func(payload any), it *item) {
	defer func() {
		if r := recover(); r != nil && s.cfg.OnPanic != nil {
			s.cfg.OnPanic(it.payload, r, debug.Stack())
		}
	}()
	if s.cfg.OnDequeue != nil {
		s.cfg.OnDequeue(it.payload, it.class, it.wait)
	}
	run(it.payload)
}

// Close rejects further submissions, lets the workers drain every queued
// item (each still passes through run, which observes its cancelled context)
// and waits for them to exit.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// Stats is a snapshot of the scheduler's counters.
type Stats struct {
	// Workers and Busy count worker goroutines (total / currently running
	// an item).
	Workers, Busy int
	// Queued counts live queued items per class.
	Queued [NumClasses]int
	// WaitCount counts dequeues per class.
	WaitCount [NumClasses]int64
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Workers:   s.cfg.Workers,
		Busy:      s.busy,
		Queued:    s.queued,
		WaitCount: s.waitCount,
	}
}

// Queued returns the total number of live queued items.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.queued {
		n += q
	}
	return n
}

// --- internals (caller holds s.mu unless noted) ---

func (s *Scheduler) newItemLocked() *item {
	if it := s.free; it != nil {
		s.free = it.next
		it.next = nil
		return it
	}
	return &item{}
}

// releaseLocked recycles an item.  The gen bump invalidates every
// outstanding Handle to it.
func (s *Scheduler) releaseLocked(it *item) {
	it.payload = nil
	it.client = ""
	it.gen++
	it.next = s.free
	s.free = it
}

// enqueueLocked adds a queued item at the back of its client's FIFO, or at
// the front, and returns that FIFO.
func (s *Scheduler) enqueueLocked(it *item, front bool) *clientQueue {
	cq := &s.classes[it.class]
	c := cq.clients[it.client]
	if c == nil {
		if n := len(s.cqFree); n > 0 {
			c = s.cqFree[n-1]
			s.cqFree = s.cqFree[:n-1]
		} else {
			c = &clientQueue{}
		}
		c.name = it.client
		cq.clients[it.client] = c
	}
	if front {
		c.pushFront(it)
	} else {
		c.push(it)
	}
	if !c.inRing {
		cq.ring = append(cq.ring, c)
		c.inRing = true
	}
	s.queued[it.class]++
	return c
}

// cancelLocked tombstones a queued item, drops it from every live count and
// trims tombstones off both ends of its client FIFO so a fully-cancelled
// queue releases its items without waiting for a dequeue visit.
func (s *Scheduler) cancelLocked(it *item) {
	it.state = itemCancelled
	cq := &s.classes[it.class]
	c := cq.clients[it.client]
	s.queued[it.class]--
	for c.n > 0 && c.front().state == itemCancelled {
		s.releaseLocked(c.popFront())
	}
	for c.n > 0 && c.back().state == itemCancelled {
		s.releaseLocked(c.popBack())
	}
	if c.n == 0 {
		s.unringLocked(cq, c)
		s.retireClientLocked(cq, c)
	}
}

// unringLocked removes a client FIFO from its class's active ring, keeping
// the round-robin cursor stable.
func (s *Scheduler) unringLocked(cq *classQueue, c *clientQueue) {
	for i, rc := range cq.ring {
		if rc == c {
			cq.ring = append(cq.ring[:i], cq.ring[i+1:]...)
			if cq.next > i {
				cq.next--
			}
			break
		}
	}
}

// serveNextLocked moves the client FIFO c, which is in the active ring, to
// the round-robin cursor's slot, so the next dequeue from its class serves
// it.
func (s *Scheduler) serveNextLocked(cq *classQueue, c *clientQueue) {
	s.unringLocked(cq, c)
	if cq.next >= len(cq.ring) {
		cq.next = 0
	}
	cq.ring = append(cq.ring, nil)
	copy(cq.ring[cq.next+1:], cq.ring[cq.next:])
	cq.ring[cq.next] = c
}

// retireClientLocked removes a drained client FIFO from its class map and
// recycles the struct (keeping its ring buffer): client labels are arbitrary
// wire input, so drained queues must not accumulate for the process
// lifetime.  The caller has already taken c out of the active ring.
func (s *Scheduler) retireClientLocked(cq *classQueue, c *clientQueue) {
	delete(cq.clients, c.name)
	c.name = ""
	c.head = 0
	c.inRing = false
	s.cqFree = append(s.cqFree, c)
}

// pickClassLocked chooses the class served next: the most urgent class with
// queued work that still has round-robin credit, refilling all credits when
// every class with work has spent its share.  Weighted fair: with everything
// backlogged a full cycle serves Weights[c] items of class c, most urgent
// first, so a sustained interactive flood cannot starve lower classes.  The
// credits are the pool's: every worker's dequeue spends from one budget.
// The caller guarantees some class has queued work.
func (s *Scheduler) pickClassLocked() Class {
	for pass := 0; pass < 2; pass++ {
		for c := Class(0); c < NumClasses; c++ {
			if s.queued[c] > 0 && s.credits[c] > 0 {
				s.credits[c]--
				return c
			}
		}
		s.credits = s.cfg.Weights
	}
	return -1
}

// popClassLocked dequeues the next live item of one class: clients are served
// round-robin, tombstoned (cancelled) items are skipped and recycled, and a
// client whose FIFO empties leaves the ring until its next submission.  The
// caller guarantees the class has a live item.
func (s *Scheduler) popClassLocked(class Class) *item {
	cq := &s.classes[class]
	for {
		if cq.next >= len(cq.ring) {
			cq.next = 0
		}
		c := cq.ring[cq.next]
		for c.n > 0 && c.front().state == itemCancelled {
			s.releaseLocked(c.popFront())
		}
		if c.n == 0 {
			cq.ring = append(cq.ring[:cq.next], cq.ring[cq.next+1:]...)
			s.retireClientLocked(cq, c)
			continue
		}
		it := c.popFront()
		s.queued[class]--
		if c.n == 0 {
			cq.ring = append(cq.ring[:cq.next], cq.ring[cq.next+1:]...)
			s.retireClientLocked(cq, c)
		} else {
			cq.next++
		}
		return it
	}
}

// takeLocked is one dequeue attempt: the class is chosen by the pool's
// weighted round-robin credits, the item by client round-robin within it.
// Accounting (busy, scheduling latency) happens here.
func (s *Scheduler) takeLocked() *item {
	if s.queued == [NumClasses]int{} {
		return nil
	}
	it := s.popClassLocked(s.pickClassLocked())
	it.state = itemTaken
	s.busy++
	it.wait = s.cfg.Now().Sub(it.at)
	s.waitCount[it.class]++
	return it
}

// next blocks until there is an item to run, or returns nil when the
// scheduler is closed and fully drained.
func (s *Scheduler) next() *item {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if it := s.takeLocked(); it != nil {
			return it
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// tryNext is the non-blocking form of next, used by tests and benchmarks to
// drive the queues without worker goroutines.
//
//refrint:alloc-free
func (s *Scheduler) tryNext() *item {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.takeLocked()
}

// done returns a finished item to the pool.
//
//refrint:alloc-free
func (s *Scheduler) done(it *item) {
	s.mu.Lock()
	s.busy--
	s.releaseLocked(it)
	s.mu.Unlock()
}
