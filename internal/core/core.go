// Package core implements the paper's contribution: the Refrint refresh
// machinery for eDRAM cache banks.
//
// A Bank couples one cache bank (package cache) with
//
//   - the eDRAM retention model (package edram),
//   - a time-based refresh policy — Periodic group refresh or Refrint
//     sentry-bit interrupts (Table 3.1),
//   - a data-based refresh policy — All, Valid, Dirty or WB(n,m) — including
//     the per-line Count maintenance and the decision logic of Figure 4.1,
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

	"refrint/internal/cache"
	"refrint/internal/config"
	"refrint/internal/edram"
	"refrint/internal/event"
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

// Bank is one refresh-managed cache bank.
type Bank struct {
	cacheCfg config.CacheConfig
	cell     config.CellConfig
	policy   config.Policy
	level    stats.Level

	arr   *cache.Cache
	ret   edram.Retention
	sched edram.PeriodicSchedule
	// wheel holds the pending sentry-decay deadline of each line frame
	// (Refrint banks only).  The FrameWheel keeps exactly one live deadline
	// per frame — rescheduling moves the frame's node — so draining never
	// sees stale entries and scheduling never allocates.
	wheel *event.FrameWheel
	// dueBuf is the reusable drain buffer for sentry interrupts, so a
	// steady-state AdvanceTo performs no allocation.  Safe because a bank's
	// refresh hooks never re-enter the same bank's AdvanceTo.
	dueBuf []event.WheelEntry

	// Per-group occupancy for Periodic sweeps (nil for other banks):
	// groupValid[g] and groupDirty[g] count the valid and dirty (Modified)
	// lines in sweep group g, so advancePeriodic skips empty groups entirely
	// and stops scanning a group once every valid line has been visited.
	// Only the simulator's bookkeeping is skipped; the modelled port
	// blocking of a sweep is charged regardless of occupancy.
	groupValid    []int32
	groupDirty    []int32
	linesPerGroup int

	// Hot-path precomputation: refreshable caches Refreshable(); for
	// Periodic banks sweepInterval/blockCycles mirror the schedule and
	// nextFire is the cycle of the next group firing, giving AdvanceTo an
	// O(1) "nothing due" test without touching the schedule arithmetic.
	refreshable   bool
	sweepInterval int64
	blockCycles   int64
	nextFire      int64
	// mayDecay is false when the policy structurally recharges every line
	// within its retention period (Periodic All/Valid), letting Probe skip
	// the decay test.  Matches the sweeps' skipped LastRefresh stores.
	mayDecay bool

	hooks Hooks
	st    *stats.Stats
	ctr   *stats.LevelCounters // st.Level(level), hoisted off the hot path

	// portBusyUntil is the cycle up to which the bank's port is occupied by
	// refresh work.  Demand accesses arriving earlier wait.
	portBusyUntil int64
	// periodicFired counts how many group firings have been processed.
	periodicFired int64
	// clock is the bank-local time up to which refresh work has been
	// processed.
	clock int64
}

// NewBank builds a refresh-managed bank.
func NewBank(cacheCfg config.CacheConfig, cell config.CellConfig, policy config.Policy, level stats.Level, st *stats.Stats, hooks Hooks) *Bank {
	if err := policy.Validate(); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	b := &Bank{
		cacheCfg: cacheCfg,
		cell:     cell,
		policy:   policy,
		level:    level,
		arr:      cache.New(cacheCfg),
		ret:      edram.NewRetention(cell),
		hooks:    hooks,
		st:       st,
		ctr:      st.Level(level),
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
			b.wheel = event.NewFrameWheel(64, b.arr.NumLines(), b.ret.SentryCycles)
		case config.PeriodicTime:
			b.linesPerGroup = b.sched.LinesPerGroup()
			b.groupValid = make([]int32, b.sched.Groups)
			b.groupDirty = make([]int32, b.sched.Groups)
			// Mirrors GroupAt: firing k happens at (k+1)*(Period/Groups).
			b.sweepInterval = b.sched.Period / int64(b.sched.Groups)
			b.blockCycles = b.sched.BlockCycles()
			b.nextFire = b.sweepInterval
		}
	}
	return b
}

// noteValid adjusts the valid-line count of frame f's sweep group.
//
//refrint:alloc-free
func (b *Bank) noteValid(f cache.Frame, delta int32) {
	if b.groupValid != nil {
		b.groupValid[int(f)/b.linesPerGroup] += delta
	}
}

// noteDirty adjusts the dirty-line count of frame f's sweep group.
//
//refrint:alloc-free
func (b *Bank) noteDirty(f cache.Frame, delta int32) {
	if b.groupDirty != nil {
		b.groupDirty[int(f)/b.linesPerGroup] += delta
	}
}

// Cache exposes the underlying array (tests and the hierarchy use it for
// probes that must not disturb refresh state).
func (b *Bank) Cache() *cache.Cache { return b.arr }

// Policy returns the refresh policy the bank runs.
func (b *Bank) Policy() config.Policy { return b.policy }

// Level returns the stats level this bank reports under.
func (b *Bank) Level() stats.Level { return b.level }

// Refreshable reports whether the bank is built from eDRAM and therefore
// needs refresh.
func (b *Bank) Refreshable() bool { return b.refreshable }

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

// occupyPort reserves one cycle of the bank port for refresh work happening
// at cycle `at` (or as soon after as the port is free) and returns the cycle
// the work occupies.
func (b *Bank) occupyPort(at int64) int64 {
	if b.portBusyUntil < at {
		b.portBusyUntil = at
	}
	cycle := b.portBusyUntil
	b.portBusyUntil++
	return cycle
}

// scheduleSentry registers the sentry-decay deadline of a frame, replacing
// any previously registered deadline for the same frame.
//
//refrint:alloc-free
func (b *Bank) scheduleSentry(f cache.Frame) {
	if b.wheel == nil || b.policy.Time != config.RefrintTime || f < 0 {
		return
	}
	// The wheel moves the frame's node to the new deadline (or does nothing
	// if it is unchanged), so earlier deadlines of this frame never linger.
	b.wheel.Schedule(b.ret.SentryDeadline(b.arr.LastRefresh(f)), int(f))
}

// resetCount re-arms the WB(n,m) budget of a frame after a normal access,
// following Figure 4.1: dirty lines get n, clean lines get m.
//
//refrint:alloc-free
func (b *Bank) resetCount(f cache.Frame) {
	if b.policy.Data != config.WBData {
		return
	}
	if b.arr.Dirty(f) {
		b.arr.SetCount(f, b.policy.N)
	} else {
		b.arr.SetCount(f, b.policy.M)
	}
}

// Probe looks up addr for a demand access at cycle `now`.  If the line is
// present but its cells have decayed (possible only when the data policy let
// it lapse), the line is dropped and the probe misses.
func (b *Bank) Probe(addr mem.LineAddr, now int64) (cache.Frame, bool) {
	b.AdvanceTo(now)
	f, ok := b.arr.Probe(addr)
	if !ok {
		return cache.NoFrame, false
	}
	if b.mayDecay && b.ret.Decayed(b.arr.LastRefresh(f), now) {
		// Data lost.  Dirty data that decays silently would be a correctness
		// bug in a real system; the policies are designed never to let that
		// happen, and the counter lets tests assert it.
		b.counters().Decays++
		wasDirty := b.arr.Dirty(f)
		if b.hooks.Invalidate != nil {
			b.hooks.Invalidate(b.arr.Tag(f), wasDirty, now)
		}
		// The hook can re-enter this bank and invalidate the frame itself
		// (an L2 decay writeback probes the home L3, whose sweep may send an
		// inclusion invalidation right back); only account the line once.
		if b.arr.Valid(f) {
			if b.groupValid != nil {
				b.noteValid(f, -1)
				if b.arr.Dirty(f) {
					b.noteDirty(f, -1)
				}
			}
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
	b.resetCount(f)
	if b.policy.Time == config.RefrintTime {
		b.scheduleSentry(f)
	}
}

// Insert places a new line in the bank (a fill from the next lower level) and
// returns the frame plus the victim information exactly as cache.Insert does.
func (b *Bank) Insert(addr mem.LineAddr, state mem.State, now int64) (f cache.Frame, victim mem.Line, evicted bool) {
	b.AdvanceTo(now)
	f, victim, evicted = b.arr.Insert(addr, state, now)
	if b.groupValid != nil {
		if evicted {
			if victim.Dirty() {
				b.noteDirty(f, -1)
			}
		} else {
			b.noteValid(f, 1)
		}
		if b.arr.Dirty(f) {
			b.noteDirty(f, 1)
		}
	}
	b.resetCount(f)
	b.counters().Fills++
	if evicted {
		b.counters().Evictions++
	}
	if b.policy.Time == config.RefrintTime {
		b.scheduleSentry(f)
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
	old := b.arr.State(f)
	if b.groupValid != nil && old != state {
		if !old.Valid() && state.Valid() {
			b.noteValid(f, 1)
		}
		if old.Dirty() != state.Dirty() {
			if state.Dirty() {
				b.noteDirty(f, 1)
			} else {
				b.noteDirty(f, -1)
			}
		}
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
	if b.groupValid != nil {
		b.noteValid(f, -1)
		if old.Dirty() {
			b.noteDirty(f, -1)
		}
	}
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
// The common case — the clock moves but nothing is due yet — is O(1).
func (b *Bank) AdvanceTo(now int64) {
	if now <= b.clock {
		return
	}
	if b.refreshable {
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
	}
	b.clock = now
}

// advanceRefrint drains sentry interrupts due by `now`, in deadline order,
// applying the data policy to each interrupting line (Figure 4.1).  The
// FrameWheel holds exactly one live deadline per frame (rescheduling moves
// it), so every popped entry reflects the frame's current deadline; entries
// whose frame has since been invalidated raise no interrupt — an invalid
// frame has no charge to preserve — and its sentry stays quiet until the
// frame is refilled.
func (b *Bank) advanceRefrint(now int64) {
	for {
		// Drain into the bank-owned reusable buffer: zero allocations in
		// steady state.  Processing an interrupt can schedule new deadlines
		// (they land in the wheel, not the buffer) and can call hooks, which
		// never re-enter this bank's AdvanceTo.
		b.dueBuf = b.wheel.PopDueInto(now, -1, b.dueBuf[:0])
		if len(b.dueBuf) == 0 {
			return
		}
		for _, entry := range b.dueBuf {
			f := cache.Frame(entry.ID)
			if !b.arr.Valid(f) {
				// Invalid frames have no charge to preserve; their sentry
				// raises no further interrupts until the frame is refilled.
				continue
			}
			// A genuine sentry interrupt.
			b.st.SentryInterrupts++
			at := b.occupyPort(entry.Cycle)
			b.applyDataPolicy(f, at)
		}
	}
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
	// therefore the per-line LastRefresh/Sentry stores are unobservable.
	// Only the counters matter, and those follow from the occupancy count —
	// the whole sweep is O(1) regardless of group size.  Probe skips the
	// decay check on these banks for the same reason (see mayDecay).
	if b.policy.Data == config.AllData || b.policy.Data == config.ValidData {
		refreshed := int64(valid)
		if b.policy.RefreshesInvalid() {
			refreshed = int64(end - start) // the All policy counts every frame
		}
		b.ctr.Refreshes += refreshed
		b.st.PolicyRefreshes += refreshed
		return
	}
	// Dirty and WB sweeps make per-line decisions; invalid frames need no
	// work (only the All policy, handled above, refreshes them).  `valid`
	// is the occupancy at sweep start; the policy may invalidate the line
	// under scan, but never other unvisited lines of this bank, so counting
	// visited-valid lines against the snapshot is exact.
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
// others).
//
//refrint:alloc-free
func (b *Bank) applyDataPolicy(f cache.Frame, at int64) {
	switch b.policy.Data {
	case config.AllData:
		b.refreshLine(f, at)

	case config.ValidData:
		// Only valid lines reach this point; always refresh.
		b.refreshLine(f, at)

	case config.DirtyData:
		if b.arr.Dirty(f) {
			b.refreshLine(f, at)
		} else {
			b.invalidateLine(f, at)
		}

	case config.WBData:
		switch {
		case b.arr.Count(f) >= 1:
			b.arr.SetCount(f, b.arr.Count(f)-1)
			b.refreshLine(f, at)
		case b.arr.Dirty(f):
			// Count exhausted on a dirty line: write it back, keep it as
			// valid clean, re-arm the clean budget.  The writeback itself
			// refreshes the line.
			b.writebackLine(f, at)
		default:
			// Count exhausted on a valid clean line: let it go.
			b.invalidateLine(f, at)
		}
	}
}

// refreshLine recharges the cells and sentry bit of a frame.
//
//refrint:alloc-free
func (b *Bank) refreshLine(f cache.Frame, at int64) {
	b.arr.Recharge(f, at)
	b.counters().Refreshes++
	b.st.PolicyRefreshes++
	if b.policy.Time == config.RefrintTime {
		b.scheduleSentry(f)
	}
}

// writebackLine implements the WB(n,m) "write back and keep clean" action.
//
//refrint:alloc-free
func (b *Bank) writebackLine(f cache.Frame, at int64) {
	b.counters().Writebacks++
	b.st.PolicyWritebacks++
	if b.hooks.Writeback != nil {
		b.hooks.Writeback(b.arr.Tag(f), at)
	}
	b.noteDirty(f, -1)
	b.arr.SetState(f, mem.Exclusive) // valid clean
	b.arr.SetCount(f, b.policy.M)
	// The writeback read the line and rewrote it: the cells are recharged.
	b.arr.Recharge(f, at)
	if b.policy.Time == config.RefrintTime {
		b.scheduleSentry(f)
	}
}

// invalidateLine implements the policy invalidation of a clean line.
//
//refrint:alloc-free
func (b *Bank) invalidateLine(f cache.Frame, at int64) {
	b.counters().Invalidations++
	b.st.PolicyInvalidates++
	if b.hooks.Invalidate != nil {
		b.hooks.Invalidate(b.arr.Tag(f), b.arr.Dirty(f), at)
	}
	// As in the decay path, the hook may already have invalidated the frame
	// through a re-entrant inclusion invalidation; account the line once.
	if b.arr.Valid(f) {
		b.noteValid(f, -1)
		if b.arr.Dirty(f) {
			b.noteDirty(f, -1)
		}
		b.arr.Reset(f)
	}
}

// Drain processes all refresh work up to endCycle (used at the end of a run
// so refresh energy for the whole execution is accounted).
func (b *Bank) Drain(endCycle int64) {
	b.AdvanceTo(endCycle)
}

// FlushInto invalidates every line, appends the dirty copies to the
// caller-owned dst (mirroring event.FrameWheel.PopDueInto) and returns the
// extended buffer, so repeated end-of-run flushes reuse one buffer instead
// of allocating a fresh slice per call.
func (b *Bank) FlushInto(dst []mem.Line) []mem.Line {
	for i := range b.groupValid {
		b.groupValid[i] = 0
	}
	for i := range b.groupDirty {
		b.groupDirty[i] = 0
	}
	return b.arr.FlushInto(dst)
}

// FlushCount is FlushInto for callers that only need the number of dirty
// lines (the end-of-run writeback charge): no per-line copies are made.
func (b *Bank) FlushCount() int64 {
	var n int64
	if b.groupDirty != nil {
		n = int64(b.DirtyLines())
		for i := range b.groupValid {
			b.groupValid[i] = 0
		}
		for i := range b.groupDirty {
			b.groupDirty[i] = 0
		}
		b.arr.FlushCount() // zeroes the array; counted above
		return n
	}
	return b.arr.FlushCount()
}

// ValidLines returns the number of valid lines a Periodic bank is tracking
// (falling back to a scan for other banks).  Tests use it to cross-check the
// occupancy counters against ground truth.
func (b *Bank) ValidLines() int {
	if b.groupValid == nil {
		return b.arr.ValidCount()
	}
	n := 0
	for _, v := range b.groupValid {
		n += int(v)
	}
	return n
}

// DirtyLines is ValidLines for dirty (Modified) lines.
func (b *Bank) DirtyLines() int {
	if b.groupDirty == nil {
		return b.arr.DirtyCount()
	}
	n := 0
	for _, v := range b.groupDirty {
		n += int(v)
	}
	return n
}

// PendingRefreshWork reports how many sentry deadlines are registered
// (Refrint) — useful for tests and debugging.
func (b *Bank) PendingRefreshWork() int {
	if b.wheel == nil {
		return 0
	}
	return b.wheel.Len()
}
