// Package core implements the paper's contribution: the Refrint refresh
// machinery for eDRAM cache banks.
//
// A Bank couples one cache bank (package cache) with
//
//   - the eDRAM retention model (package edram),
//   - a time-based refresh policy — Periodic group refresh or Refrint
//     sentry-bit interrupts (Table 3.1),
//   - a data-based refresh policy — All, Valid, Dirty or WB(n,m) — including
//     the per-line budget maintenance and the decision logic of Figure 4.1,
//   - the port-occupancy accounting that makes refresh activity visible in
//     execution time (refresh interrupts take priority over demand requests;
//     periodic sweeps block the bank), and
//   - the decay rule: a line whose cells were not recharged within the
//     retention period has lost its data.
//
// Banks are used for every level of the hierarchy; an SRAM bank simply has
// no retention model and never refreshes, so the same code path serves the
// paper's full-SRAM baseline.
//
// Lines are addressed by cache.Frame handles throughout: a frame number is
// simultaneously the replacement-array slot and the flat index the refresh
// machinery schedules by, so there is no pointer->index translation on any
// hot path.
package core

import (
	"fmt"
	"math"
	"sync"

	"refrint/internal/cache"
	"refrint/internal/config"
	"refrint/internal/edram"
	"refrint/internal/mem"
	"refrint/internal/stats"
)

// Hooks are the callbacks a Bank uses to interact with the rest of the
// hierarchy when its refresh policy writes back or invalidates a line.  The
// simulator wires these to the next-lower level, the coherence directory and
// the network model.  Either hook may be nil.
type Hooks struct {
	// Writeback is called when the policy writes a dirty line back to the
	// next lower level (the line stays in the cache, now clean).
	Writeback func(addr mem.LineAddr, now int64)
	// Invalidate is called when the policy invalidates a line.  wasDirty
	// reports whether the invalidated copy was dirty in THIS cache (the
	// policy only invalidates clean lines, so this is false for policy
	// invalidations, but decay can destroy dirty data).
	Invalidate func(addr mem.LineAddr, wasDirty bool, now int64)
}

// Bank is one refresh-managed cache bank.  The zero Bank is ready for
// Reset.  The simulator holds its banks by value, and a Bank must not be
// copied: a copy would fork the bank's clock, port and refresh state from
// the arrays both copies share.
type Bank struct {
	// A zero-size copy guard: `go vet` (copylocks) rejects a copy of a
	// struct that holds a sync.Mutex.
	_ [0]sync.Mutex

	// Hooks connect the bank's refresh policy to the rest of the
	// hierarchy.  Reset keeps them.
	Hooks Hooks

	cacheCfg config.CacheConfig
	cell     config.CellConfig
	policy   config.Policy

	arr   cache.Cache
	ret   edram.Retention
	sched edram.PeriodicSchedule
	// wheel holds the pending sentry-decay deadline of each line frame
	// (in use only when sentries is set).  The wheel keeps exactly one live
	// deadline per frame — rescheduling moves the frame's node — so
	// draining never sees stale entries and scheduling never allocates.
	wheel    frameWheel
	sentries bool // refreshable Refrint bank: wheel is live
	// deferred is advanceRefrint's reusable buffer of the frames whose
	// relinks it must hold back to the end of a pass.
	deferred []int32

	// Per-frame refresh state, kept only on banks whose policy reads it.  A
	// Refrint bank's charge time is its frame's wheel deadline minus
	// SentryCycles.  charged[f] is the charge time on Periodic Dirty and WB
	// banks, the other banks that may decay; counts[f] is the WB(n,m) budget
	// on WB banks.
	charged []int64
	counts  []int32

	// The watch of the WB(n,m) budgets a Valid bank does not enforce, off
	// (empty) unless WatchBudgets turns it on.  watch[f] is twice the
	// refreshes frame f received since its last demand charge, plus 1 if the
	// line was dirty at that charge; watchMax[d] is the largest such word
	// seen before a refresh, for d = 0 (clean) and d = 1 (dirty), or -1.
	// watchDecayed records a probe that a WB bank would have found decayed.
	// watchPeriodic marks a watching Periodic bank, which scans each line of
	// a group and whose decay test drops nothing.
	watch         []int32
	watchMax      [2]int32
	watchDecayed  bool
	watchPeriodic bool

	// Per-group occupancy for Periodic sweeps (empty for other banks):
	// groupValid[g] counts the valid lines in sweep group g, so
	// advancePeriodic skips empty groups entirely and stops scanning a group
	// once every valid line has been visited.  Only the simulator's
	// bookkeeping is skipped; the modelled port blocking of a sweep is
	// charged regardless of occupancy.
	groupValid    []int32
	linesPerGroup int

	// Hot-path precomputation: refreshable says the bank is eDRAM under a
	// refresh policy; for
	// Periodic banks sweepInterval/blockCycles mirror the schedule and
	// nextFire is the cycle of the next group firing, giving AdvanceTo an
	// O(1) "nothing due" test without touching the schedule arithmetic.
	refreshable   bool
	sweepInterval int64
	blockCycles   int64
	nextFire      int64
	// mayDecay is false when the policy structurally recharges every line
	// within its retention period (Periodic All/Valid), letting Probe skip
	// the decay test; such banks keep no charge times unless they watch.
	mayDecay bool
	// frameState says the bank keeps per-frame refresh state (a live
	// wheel, charge times, budgets or a watch) that a demand charge
	// updates; Touch and Insert skip that update on every other bank.
	frameState bool

	st  *stats.Stats
	ctr *stats.LevelCounters // st.Level(level), hoisted off the hot path

	// portBusyUntil is the cycle up to which the bank's port is occupied by
	// refresh work.  Demand accesses arriving earlier wait.
	portBusyUntil int64
	// periodicFired counts how many group firings have been processed.
	periodicFired int64
	// clock is the bank-local time up to which refresh work has been
	// processed.  Only a refreshable bank advances it.
	clock int64
}

// Reset makes b an empty bank of the given geometry, cell and policy,
// counting into st's counters for level, and keeps its Hooks.  The cache
// array is cleared rather than rebuilt when its geometry is unchanged.  A
// wheel, group counters or per-frame refresh state that the new policy does
// not use stay attached, idle, for a later reset.
func (b *Bank) Reset(cacheCfg config.CacheConfig, cell config.CellConfig, policy config.Policy, level stats.Level, st *stats.Stats) {
	if err := policy.Validate(); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	arr, wheel := b.arr, b.wheel
	if arr.Config() != cacheCfg {
		arr, wheel = cache.New(cacheCfg), frameWheel{}
	} else {
		arr.Clear()
	}
	*b = Bank{
		Hooks:      b.Hooks,
		cacheCfg:   cacheCfg,
		cell:       cell,
		policy:     policy,
		arr:        arr,
		ret:        edram.NewRetention(cell),
		wheel:      wheel,
		deferred:   b.deferred[:0],
		groupValid: b.groupValid[:0],
		charged:    b.charged[:0],
		counts:     b.counts[:0],
		watch:      b.watch[:0],
		st:         st,
		ctr:        st.Level(level),
	}
	b.refreshable = b.cell.Refreshable() && b.policy.Time != config.NoRefresh
	b.mayDecay = b.refreshable &&
		!(b.policy.Time == config.PeriodicTime &&
			(b.policy.Data == config.AllData || b.policy.Data == config.ValidData))
	if b.refreshable {
		if err := b.ret.Validate(); err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		b.sched = edram.NewPeriodicSchedule(b.ret, cacheCfg.SubArrays, b.arr.NumLines())
		switch policy.Time {
		case config.RefrintTime:
			// Size the wheel's ring to the sentry horizon: deadlines are
			// normally scheduled at most one sentry period past the drain
			// point, so a horizon-sized ring makes ring growth (the wheel's
			// escape hatch for port-backlogged deadlines) a rare event.
			b.sentries = true
			if len(b.wheel.nodes) == 0 {
				b.wheel.init(sentryBucketCycles, b.arr.NumLines(), b.ret.SentryCycles)
			} else {
				b.wheel.Reset(b.ret.SentryCycles)
			}
		case config.PeriodicTime:
			b.linesPerGroup = b.sched.LinesPerGroup()
			b.groupValid = zeroed(b.groupValid, b.sched.Groups)
			// Mirrors GroupAt: firing k happens at (k+1)*(Period/Groups).
			b.sweepInterval = b.sched.Period / int64(b.sched.Groups)
			b.blockCycles = b.sched.BlockCycles()
			b.nextFire = b.sweepInterval
			if b.mayDecay {
				b.charged = zeroed(b.charged, b.arr.NumLines())
			}
		}
		if policy.Data == config.WBData {
			b.counts = zeroed(b.counts, b.arr.NumLines())
		}
	}
	b.noteFrameState()
}

// noteFrameState sets frameState from the per-frame state the bank keeps.
func (b *Bank) noteFrameState() {
	b.frameState = b.sentries || len(b.charged) != 0 || len(b.counts) != 0 || len(b.watch) != 0
}

// WatchBudgets makes a refreshable Valid bank watch the WB(n,m) budgets it
// does not enforce, so that Watch can tell which WB(n,m) bank, run on the
// same accesses, would have computed exactly what this bank did.  Call it
// after Reset, before the bank's first access; the next Reset turns the
// watch off.  It reports whether the bank watches: other banks do not.
//
// A WB(n,m) bank acts like a Valid bank until some line is due for a
// refresh with no budget left.  The watch keeps, per frame, what the budget
// depends on (the refreshes since the last demand charge, and whether the
// line was dirty at that charge) and reads nothing else.  A Refrint bank
// runs exactly as before.  A Periodic Valid bank otherwise sweeps a group
// from its occupancy count and never decays, while a WB bank scans each
// line and may decay, so a watching Periodic bank scans each line, keeps
// charge times, and runs the WB bank's decay test on every probe, dropping
// nothing.
func (b *Bank) WatchBudgets() bool {
	if !b.refreshable || b.policy.Data != config.ValidData {
		return false
	}
	b.watch = zeroed(b.watch, b.arr.NumLines())
	b.watchMax = [2]int32{-1, -1}
	if b.policy.Time == config.PeriodicTime {
		b.charged = zeroed(b.charged, b.arr.NumLines())
		b.mayDecay = true
		b.watchPeriodic = true
	}
	b.noteFrameState()
	return true
}

// Watch is what watching Valid banks saw of the WB(n,m) budgets.
type Watch struct {
	// Dirty and Clean are the most refreshes a line had already received
	// since its last demand charge when it came due for another, for lines
	// dirty and clean at that charge, or -1 where no such line came due.
	// WB(n,m) refreshes a line only while that number is below its budget.
	Dirty, Clean int32
	// Decayed records a probe that would have found the line decayed in a
	// WB bank, which exhausts every budget.
	Decayed bool
}

// Spares reports whether WB(n,m) never runs out of budget on the watched
// accesses, and so computes exactly what the watched Valid banks did.  A
// valid policy's budgets fit the int32 counts a WB bank keeps
// (config.Policy.Validate), so the conversion is exact.
func (w Watch) Spares(n, m int) bool {
	return !w.Decayed && w.Dirty < int32(n) && w.Clean < int32(m)
}

// Merge returns the watch of w's banks and o's together.
func (w Watch) Merge(o Watch) Watch {
	return Watch{Dirty: max(w.Dirty, o.Dirty), Clean: max(w.Clean, o.Clean), Decayed: w.Decayed || o.Decayed}
}

// Watch returns what the bank's watch saw (see WatchBudgets).  A bank that
// does not watch knows of no budget that holds.
func (b *Bank) Watch() Watch {
	if len(b.watch) == 0 {
		return Watch{Dirty: math.MaxInt32, Clean: math.MaxInt32}
	}
	return Watch{Dirty: b.watchMax[1] >> 1, Clean: b.watchMax[0] >> 1, Decayed: b.watchDecayed}
}

// watchRefresh records a refresh of frame f on a watching bank.
//
//refrint:alloc-free
func (b *Bank) watchRefresh(f cache.Frame) {
	v := b.watch[f]
	b.watch[f] = v + 2
	if v > b.watchMax[v&1] {
		b.watchMax[v&1] = v
	}
}

// zeroed returns s resized to n zeroed elements, reusing its storage when
// the capacity suffices.
func zeroed[T int32 | int64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// noteValid adjusts the valid-line count of frame f's sweep group.
//
//refrint:alloc-free
func (b *Bank) noteValid(f cache.Frame, delta int32) {
	if len(b.groupValid) != 0 {
		b.groupValid[int(f)/b.linesPerGroup] += delta
	}
}

// Cache exposes the underlying array (tests and the hierarchy use it for
// probes that must not disturb refresh state).
func (b *Bank) Cache() *cache.Cache { return &b.arr }

// counters returns the stats counters for this bank's level.
func (b *Bank) counters() *stats.LevelCounters { return b.ctr }

// PortStart returns the earliest cycle at or after `now` at which a demand
// access can use the bank port, given pending refresh work.  It also records
// the stall in the level counters.
func (b *Bank) PortStart(now int64) int64 {
	if b.portBusyUntil <= now {
		return now
	}
	b.counters().RefreshStall += b.portBusyUntil - now
	return b.portBusyUntil
}

// recharge records a demand charge of frame f's cells at cycle `at`.  On a
// Refrint bank it moves the frame's sentry deadline (the wheel moves the
// frame's node, or does nothing if the deadline is unchanged, so earlier
// deadlines never linger).
//
//refrint:alloc-free
func (b *Bank) recharge(f cache.Frame, at int64) {
	if b.sentries {
		b.wheel.Schedule(b.ret.SentryDeadline(at), int(f))
	} else if len(b.charged) != 0 {
		b.charged[f] = at
	}
}

// chargedAt returns the cycle frame f's cells were last charged (banks with
// mayDecay only).
//
//refrint:alloc-free
func (b *Bank) chargedAt(f cache.Frame) int64 {
	if b.sentries {
		return b.wheel.nodes[f].deadline - b.ret.SentryCycles
	}
	return b.charged[f]
}

// resetCount re-arms the WB(n,m) budget of a frame after a normal access,
// following Figure 4.1: dirty lines get n, clean lines get m.  A watching
// bank restarts the frame's watch word from the same Dirty(f).
//
//refrint:alloc-free
func (b *Bank) resetCount(f cache.Frame) {
	if len(b.counts) == 0 {
		if len(b.watch) != 0 {
			b.watch[f] = 0
			if b.arr.Dirty(f) {
				b.watch[f] = 1
			}
		}
		return
	}
	if b.arr.Dirty(f) {
		b.counts[f] = int32(b.policy.N)
	} else {
		b.counts[f] = int32(b.policy.M)
	}
}

// Probe looks up addr for a demand access at cycle `now`.  If the line is
// present but its cells have decayed (possible only when the data policy let
// it lapse), the line is dropped and the probe misses.
func (b *Bank) Probe(addr mem.LineAddr, now int64) (cache.Frame, bool) {
	b.AdvanceTo(now)
	f, ok := b.arr.Probe(addr)
	if ok && b.mayDecay {
		return b.probeDecay(f, now)
	}
	return f, ok
}

// probeDecay finishes a Probe that found frame f on a bank whose lines may
// decay.
func (b *Bank) probeDecay(f cache.Frame, now int64) (cache.Frame, bool) {
	if b.ret.Decayed(b.chargedAt(f), now) {
		if b.watchPeriodic {
			// A WB bank would lose the line here; a Periodic Valid bank
			// does not.  (A Refrint WB bank decays exactly as its Valid
			// bank does.)
			b.watchDecayed = true
			return f, true
		}
		// Data lost.  Dirty data that decays silently would be a correctness
		// bug in a real system; the policies are designed never to let that
		// happen, and the counter lets tests assert it.
		b.counters().Decays++
		wasDirty := b.arr.Dirty(f)
		if b.Hooks.Invalidate != nil {
			b.Hooks.Invalidate(b.arr.Tag(f), wasDirty, now)
		}
		// The hook can re-enter this bank and invalidate the frame itself
		// (an L2 decay writeback probes the home L3, whose sweep may send an
		// inclusion invalidation right back); only account the line once.
		if b.arr.Valid(f) {
			b.noteValid(f, -1)
			b.arr.Reset(f)
		}
		return cache.NoFrame, false
	}
	return f, true
}

// Touch records a demand hit on a frame: the access refreshes the cells and
// the sentry bit and re-arms the WB(n,m) count.
//
//refrint:alloc-free
func (b *Bank) Touch(f cache.Frame, now int64) {
	b.arr.Touch(f, now)
	if b.frameState {
		b.charge(f, now)
	}
}

// charge records a demand charge of frame f at cycle `now` in the bank's
// per-frame refresh state.
//
//refrint:alloc-free
func (b *Bank) charge(f cache.Frame, now int64) {
	b.resetCount(f)
	b.recharge(f, now)
}

// Insert places a new line in the bank (a fill from the next lower level) and
// returns the frame plus the victim information exactly as cache.Insert does.
func (b *Bank) Insert(addr mem.LineAddr, state mem.State, now int64) (f cache.Frame, victim mem.Line, evicted bool) {
	b.AdvanceTo(now)
	f, victim, evicted = b.arr.Insert(addr, state, now)
	if !evicted {
		b.noteValid(f, 1)
	}
	if b.frameState {
		b.charge(f, now)
	}
	b.counters().Fills++
	if evicted {
		b.counters().Evictions++
	}
	return f, victim, evicted
}

// SetState changes the MESI state of a line frame in place, keeping the
// bank's occupancy accounting coherent.  The simulator uses it for silent
// upgrades (E->M), downgrades (M->S) and write hits that previously assigned
// the state directly.  It must not be used to invalidate a line (use
// Invalidate) — but it does tolerate the opposite: an upgrade may find its
// frame freshly invalidated by a refresh sweep that ran during the
// directory transaction, and the assignment then revives the frame exactly
// as the direct store used to.
//
//refrint:alloc-free
func (b *Bank) SetState(f cache.Frame, state mem.State) {
	if len(b.groupValid) != 0 && !b.arr.State(f).Valid() && state.Valid() {
		b.noteValid(f, 1)
	}
	b.arr.SetState(f, state)
}

// Invalidate drops addr from the bank (coherence or inclusion), returning the
// old copy.
//
// It deliberately takes no timestamp and does not advance the bank's refresh
// clock: the timing of a coherence operation belongs to the requesting core,
// whose clock may be far ahead of this bank's owner, and letting it drive
// this bank's refresh processing would charge future refresh work against
// the owner's next (earlier) access.
func (b *Bank) Invalidate(addr mem.LineAddr) (mem.Line, bool) {
	f, ok := b.arr.Probe(addr)
	if !ok {
		return mem.Line{}, false
	}
	old := b.arr.Line(f)
	b.noteValid(f, -1)
	b.arr.Reset(f)
	b.counters().Invalidations++
	return old, true
}

// Peek looks up addr without advancing the bank's refresh clock and without
// decay handling.  Coherence operations initiated by other cores use it to
// read or adjust a remote cache's line state (their timestamps must not
// drive the remote bank's refresh processing).
//
//refrint:alloc-free
func (b *Bank) Peek(addr mem.LineAddr) (cache.Frame, bool) {
	return b.arr.Probe(addr)
}

// State returns the MESI state of a frame (no clock advance).
//
//refrint:alloc-free
func (b *Bank) State(f cache.Frame) mem.State { return b.arr.State(f) }

// Dirty reports whether a frame holds dirty data (no clock advance).
//
//refrint:alloc-free
func (b *Bank) Dirty(f cache.Frame) bool { return b.arr.Dirty(f) }

// AdvanceTo processes all refresh work with deadlines at or before `now`.
// It is idempotent and monotone: calling it with an earlier time is a no-op.
// The common case — the clock moves but nothing is due yet — is O(1).  A
// bank that never refreshes has no refresh work, and keeps no clock.
func (b *Bank) AdvanceTo(now int64) {
	if b.refreshable && now > b.clock {
		b.advance(now)
	}
}

// advance moves a refreshable bank's clock forward to `now`.
func (b *Bank) advance(now int64) {
	switch b.policy.Time {
	case config.RefrintTime:
		if b.wheel.MaybeDue(now) {
			b.advanceRefrint(now)
		}
	case config.PeriodicTime:
		if now >= b.nextFire {
			b.advancePeriodic(now)
		}
	}
	b.clock = now
}

// advanceRefrint drains the sentry interrupts due by `now` (Figure 4.1) in
// passes over the wheel's bucket lists.  A pass handles every node due at
// its start, in bucket and list order: it unlinks the node, takes the port
// slot max(portBusyUntil, deadline), applies the data policy and relinks
// the node at its new deadline.  A frame invalidated since it was scheduled
// raises no interrupt and stays unlinked until it is refilled.
//
// The order is exactly that of popping every due node first and handling
// them after.  A new deadline after `now` lands behind every node present
// at pass start, so it is linked at once.  Two kinds wait in `deferred` to
// be linked at the end of the pass, in processing order: a deadline already
// due, which the next pass handles, and a bucket outside the pass-start
// ring window, whose slot may still hold nodes.  Either way the node's
// deadline, which is the line's charge time plus SentryCycles, is set at
// once.  The drain ends after a pass that deferred no due deadline.
//
// Writebacks and invalidations, which call the hooks, go through
// applyDataPolicy.  The hooks never touch this bank's wheel.
//
//refrint:alloc-free
func (b *Bank) advanceRefrint(now int64) {
	w := &b.wheel
	nodes := w.nodes
	states, counts := b.arr.States(), b.counts
	data := b.policy.Data
	watching := len(b.watch) != 0
	sentry := b.ret.SentryCycles
	shift := w.granShift
	nowBucket := now >> shift
	var irqs, refreshes int64
	for {
		head, tail, mask := w.head, w.tail, w.mask
		windowEnd := w.next + int64(len(head))
		stop := min(nowBucket, windowEnd-1)
		deferred := b.deferred[:0]
		dueAgain := false
		for bk := w.next; bk <= stop && w.count > 0; bk++ {
			slot := bk & mask
			blocked := false
			for id := head[slot]; id != noNode; {
				n := &nodes[id]
				next := n.next
				if n.deadline > now {
					blocked = true
					id = next
					continue
				}
				if n.prev == noNode {
					head[slot] = next
				} else {
					nodes[n.prev].next = next
				}
				if next == noNode {
					tail[slot] = n.prev
				} else {
					nodes[next].prev = n.prev
				}
				n.next, n.prev = noNode, unlinked
				w.count--
				f := id
				id = next
				if states[f] == mem.Invalid {
					continue
				}
				irqs++
				at := max(b.portBusyUntil, n.deadline)
				b.portBusyUntil = at + 1
				switch {
				case data == config.AllData || data == config.ValidData ||
					data == config.DirtyData && states[f] == mem.Modified ||
					data == config.WBData && counts[f] >= 1:
					if data == config.WBData {
						counts[f]--
					} else if watching {
						b.watchRefresh(cache.Frame(f))
					}
					refreshes++
				case !b.applyDataPolicy(cache.Frame(f), at):
					continue // invalidated
				}
				d := at + sentry
				n.deadline = d
				nb := d >> shift
				if d <= now || nb >= windowEnd {
					//refrint:allow allocfree -- grows to the bank's largest deferred batch, then is reused
					deferred = append(deferred, f)
					dueAgain = dueAgain || d <= now
					continue
				}
				s := nb & mask
				n.prev = tail[s]
				if n.prev == noNode {
					head[s] = f
				} else {
					nodes[n.prev].next = f
				}
				tail[s] = f
				w.count++
			}
			if !blocked && head[slot] == noNode {
				w.next = bk + 1
			}
		}
		for _, f := range deferred {
			w.Schedule(nodes[f].deadline, int(f))
		}
		b.deferred = deferred
		if !dueAgain {
			break
		}
	}
	b.st.SentryInterrupts += irqs
	b.ctr.Refreshes += refreshes
	b.st.PolicyRefreshes += refreshes
}

// advancePeriodic performs the staggered group sweeps due by `now`.  The
// firing sequence (group periodicFired mod Groups at cycle nextFire, which
// steps by sweepInterval) reproduces sched.GroupAt exactly.
func (b *Bank) advancePeriodic(now int64) {
	groups := int64(b.sched.Groups)
	for b.nextFire <= now {
		cycle := b.nextFire
		group := int(b.periodicFired % groups)
		b.periodicFired++
		b.nextFire += b.sweepInterval
		b.st.PeriodicGroupScans++
		// The sweep blocks the bank port for one cycle per line in the
		// group, starting at the firing time (Section 3.2 / 6.5).  The
		// blocking models the hardware and is charged regardless of how
		// much scanning the occupancy counters let the simulator skip.
		if b.portBusyUntil < cycle {
			b.portBusyUntil = cycle
		}
		b.portBusyUntil += b.blockCycles
		b.sweepGroup(group, cycle)
	}
}

// sweepGroup applies the data policy to every frame of one sweep group,
// using the group occupancy counters to do work proportional to occupancy:
// an empty group is handled arithmetically, and a partially filled group
// stops scanning once the last valid line has been visited (the tail is
// all-invalid by construction).
func (b *Bank) sweepGroup(group int, cycle int64) {
	start, end := b.sched.GroupRange(group)
	valid := b.groupValid[group]
	// All and Valid sweeps refresh every valid line unconditionally, which
	// has two consequences the simulator can exploit: lines on such banks
	// can never decay (every line is recharged once per retention period by
	// construction, and AdvanceTo applies due sweeps before any probe), and
	// therefore such banks keep no charge times.
	// Only the counters matter, and those follow from the occupancy count —
	// the whole sweep is O(1) regardless of group size.  Probe skips the
	// decay check on these banks for the same reason (see mayDecay).
	if !b.watchPeriodic && (b.policy.Data == config.AllData || b.policy.Data == config.ValidData) {
		refreshed := int64(valid)
		if b.policy.RefreshesInvalid() {
			refreshed = int64(end - start) // the All policy counts every frame
		}
		b.ctr.Refreshes += refreshed
		b.st.PolicyRefreshes += refreshed
		return
	}
	// Dirty and WB sweeps, and watching Valid sweeps, make per-line
	// decisions; invalid frames need no work (only the All policy, handled
	// above, refreshes them).  `valid` is the occupancy at sweep start; the
	// policy may invalidate the line under scan, but never other unvisited
	// lines of this bank, so counting visited-valid lines against the
	// snapshot is exact.
	if valid == 0 {
		return
	}
	seen := int32(0)
	for idx := start; idx < end && seen < valid; idx++ {
		f := cache.Frame(idx)
		if !b.arr.Valid(f) {
			continue
		}
		seen++
		b.applyDataPolicy(f, cycle)
	}
}

// applyDataPolicy executes the data-based refresh decision for one frame that
// is due for refresh at cycle `at` (Figure 4.1 for WB(n,m); Table 3.1 for the
// others).  It reports whether the line was recharged at `at`, refreshed or
// written back; a Refrint drain then re-arms the line's sentry.
//
//refrint:alloc-free
func (b *Bank) applyDataPolicy(f cache.Frame, at int64) (recharged bool) {
	switch b.policy.Data {
	case config.AllData, config.ValidData:
		// Only valid lines reach this point; always refresh.
		if len(b.watch) != 0 {
			b.watchRefresh(f)
		}
		b.refreshLine(f, at)
		return true

	case config.DirtyData:
		if b.arr.Dirty(f) {
			b.refreshLine(f, at)
			return true
		}
		b.invalidateLine(f, at)

	case config.WBData:
		switch {
		case b.counts[f] >= 1:
			b.counts[f]--
			b.refreshLine(f, at)
			return true
		case b.arr.Dirty(f):
			// Count exhausted on a dirty line: write it back, keep it as
			// valid clean, re-arm the clean budget.  The writeback itself
			// refreshes the line.
			b.writebackLine(f, at)
			return true
		default:
			// Count exhausted on a valid clean line: let it go.
			b.invalidateLine(f, at)
		}
	}
	return false
}

// refreshLine recharges the cells of a frame.  A Refrint drain moves the
// frame's deadline itself, so only a Periodic bank's charge time is stored.
//
//refrint:alloc-free
func (b *Bank) refreshLine(f cache.Frame, at int64) {
	if len(b.charged) != 0 {
		b.charged[f] = at
	}
	b.counters().Refreshes++
	b.st.PolicyRefreshes++
}

// writebackLine implements the WB(n,m) "write back and keep clean" action.
//
//refrint:alloc-free
func (b *Bank) writebackLine(f cache.Frame, at int64) {
	b.counters().Writebacks++
	b.st.PolicyWritebacks++
	if b.Hooks.Writeback != nil {
		b.Hooks.Writeback(b.arr.Tag(f), at)
	}
	b.arr.SetState(f, mem.Exclusive) // valid clean
	b.counts[f] = int32(b.policy.M)
	// The writeback read the line and rewrote it: the cells are recharged
	// (on a Refrint bank, by the drain that called this).
	if len(b.charged) != 0 {
		b.charged[f] = at
	}
}

// invalidateLine implements the policy invalidation of a clean line.
//
//refrint:alloc-free
func (b *Bank) invalidateLine(f cache.Frame, at int64) {
	b.counters().Invalidations++
	b.st.PolicyInvalidates++
	if b.Hooks.Invalidate != nil {
		b.Hooks.Invalidate(b.arr.Tag(f), b.arr.Dirty(f), at)
	}
	// As in the decay path, the hook may already have invalidated the frame
	// through a re-entrant inclusion invalidation; account the line once.
	if b.arr.Valid(f) {
		b.noteValid(f, -1)
		b.arr.Reset(f)
	}
}

// Drain processes all refresh work up to endCycle (used at the end of a run
// so refresh energy for the whole execution is accounted).
func (b *Bank) Drain(endCycle int64) {
	b.AdvanceTo(endCycle)
}

// FlushCount invalidates every line and returns how many were dirty (the
// end-of-run writeback charge).
func (b *Bank) FlushCount() int64 {
	clear(b.groupValid)
	return b.arr.FlushCount()
}

// ValidLines returns the number of valid lines a Periodic bank is tracking
// (falling back to a scan for other banks).  Tests use it to cross-check the
// occupancy counters against ground truth.
func (b *Bank) ValidLines() int {
	if len(b.groupValid) == 0 {
		return b.arr.ValidCount()
	}
	n := 0
	for _, v := range b.groupValid {
		n += int(v)
	}
	return n
}

// PendingRefreshWork reports how many sentry deadlines are registered
// (Refrint) — useful for tests and debugging.
func (b *Bank) PendingRefreshWork() int {
	if !b.sentries {
		return 0
	}
	return b.wheel.Len()
}
