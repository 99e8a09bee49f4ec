package core

import (
	"testing"

	"refrint/internal/config"
	"refrint/internal/mem"
	"refrint/internal/stats"
)

// testBankConfig is a tiny bank so tests can reason about individual lines:
// 64 lines, 4-way, 16 sets.
func testBankConfig() config.CacheConfig {
	return config.CacheConfig{
		Name:        "L3test",
		SizeBytes:   4 << 10,
		Ways:        4,
		LineSize:    64,
		AccessTime:  4,
		Write:       config.WriteBack,
		Shared:      true,
		Banks:       1,
		SubArrays:   4,
		SentryGroup: 16,
	}
}

// testCell returns an eDRAM cell with a 10_000-cycle retention and a
// 1_000-cycle guard band (sentry fires at 9_000 cycles after charge).
func testCell() config.CellConfig {
	return config.CellConfig{
		Tech:              config.EDRAM,
		LeakageRatio:      0.25,
		RetentionCycles:   10_000,
		SentryGuardCycles: 1_000,
	}
}

func sramCell() config.CellConfig {
	return config.CellConfig{Tech: config.SRAM, LeakageRatio: 1}
}

type hookLog struct {
	writebacks  []mem.LineAddr
	invalidates []mem.LineAddr
	dirtyInv    int
}

func (h *hookLog) hooks() Hooks {
	return Hooks{
		Writeback: func(addr mem.LineAddr, now int64) { h.writebacks = append(h.writebacks, addr) },
		Invalidate: func(addr mem.LineAddr, wasDirty bool, now int64) {
			h.invalidates = append(h.invalidates, addr)
			if wasDirty {
				h.dirtyInv++
			}
		},
	}
}

// newBank returns a zero Bank with the given hooks after Reset, as the
// simulator builds the banks it holds.
func newBank(cacheCfg config.CacheConfig, cell config.CellConfig, policy config.Policy, level stats.Level, st *stats.Stats, hooks Hooks) *Bank {
	b := &Bank{Hooks: hooks}
	b.Reset(cacheCfg, cell, policy, level, st)
	return b
}

func newTestBank(t *testing.T, cell config.CellConfig, policy config.Policy) (*Bank, *stats.Stats, *hookLog) {
	t.Helper()
	st := stats.New(1)
	h := &hookLog{}
	b := newBank(testBankConfig(), cell, policy, stats.L3, st, h.hooks())
	return b, st, h
}

func TestSRAMBankNeverRefreshes(t *testing.T) {
	b, st, _ := newTestBank(t, sramCell(), config.SRAMBaseline)
	if b.refreshable {
		t.Fatal("SRAM bank must not be refreshable")
	}
	b.Insert(0x1, mem.Modified, 0)
	b.AdvanceTo(1_000_000_000)
	if st.Level(stats.L3).Refreshes != 0 || st.PolicyRefreshes != 0 {
		t.Error("SRAM bank performed refreshes")
	}
	if _, ok := b.Probe(0x1, 1_000_000_000); !ok {
		t.Error("SRAM line must never decay")
	}
}

func TestRefrintValidRefreshesOnSentryDecay(t *testing.T) {
	b, st, _ := newTestBank(t, testCell(), config.RefrintValid)
	b.Insert(0x1, mem.Exclusive, 0)
	// Sentry retention = 9000 cycles.  Just before the deadline: no refresh.
	b.AdvanceTo(8_999)
	if st.Level(stats.L3).Refreshes != 0 {
		t.Fatalf("refreshed too early: %d", st.Level(stats.L3).Refreshes)
	}
	// At the deadline the interrupt fires and the line is refreshed.
	b.AdvanceTo(9_000)
	if st.Level(stats.L3).Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", st.Level(stats.L3).Refreshes)
	}
	if st.SentryInterrupts != 1 {
		t.Errorf("SentryInterrupts = %d, want 1", st.SentryInterrupts)
	}
	// The refresh recharges the line: the next interrupt is 9000 later.
	b.AdvanceTo(17_999)
	if st.Level(stats.L3).Refreshes != 1 {
		t.Error("second refresh fired too early")
	}
	b.AdvanceTo(18_000)
	if st.Level(stats.L3).Refreshes != 2 {
		t.Errorf("refreshes = %d, want 2", st.Level(stats.L3).Refreshes)
	}
	if _, ok := b.Probe(0x1, 18_100); !ok {
		t.Error("refreshed line must still be present")
	}
}

func TestAccessRechargesAndPostponesRefresh(t *testing.T) {
	// "Every access to a cache line refreshes both the cache line and its
	// Sentry bit" (Section 3.2): an access just before the sentry deadline
	// postpones the refresh by a full sentry period.
	b, st, _ := newTestBank(t, testCell(), config.RefrintValid)
	b.Insert(0x1, mem.Exclusive, 0)
	l, ok := b.Probe(0x1, 8_000)
	if !ok {
		t.Fatal("line missing")
	}
	b.Touch(l, 8_000)
	b.AdvanceTo(16_999) // old deadline (9000) and most of the new period pass
	if st.Level(stats.L3).Refreshes != 0 {
		t.Errorf("refreshes = %d, want 0 (access recharged the line)", st.Level(stats.L3).Refreshes)
	}
	b.AdvanceTo(17_000) // 8000 + 9000
	if st.Level(stats.L3).Refreshes != 1 {
		t.Errorf("refreshes = %d, want 1", st.Level(stats.L3).Refreshes)
	}
}

func TestRefrintDirtyInvalidatesCleanLines(t *testing.T) {
	b, st, h := newTestBank(t, testCell(), config.RefrintDirty)
	b.Insert(0x1, mem.Exclusive, 0) // clean
	b.Insert(0x2, mem.Modified, 0)  // dirty
	b.AdvanceTo(9_000)
	// Clean line invalidated, dirty line refreshed.
	if st.PolicyInvalidates != 1 {
		t.Errorf("PolicyInvalidates = %d, want 1", st.PolicyInvalidates)
	}
	if st.PolicyRefreshes != 1 {
		t.Errorf("PolicyRefreshes = %d, want 1", st.PolicyRefreshes)
	}
	if len(h.invalidates) != 1 || h.invalidates[0] != 0x1 {
		t.Errorf("invalidate hook calls = %v, want [0x1]", h.invalidates)
	}
	if _, ok := b.Probe(0x1, 9_100); ok {
		t.Error("clean line should be gone")
	}
	if _, ok := b.Probe(0x2, 9_100); !ok {
		t.Error("dirty line should survive")
	}
}

func TestWBPolicyFigure41Sequence(t *testing.T) {
	// WB(2,1): a dirty, untouched line is refreshed twice, then written back
	// (becoming valid clean with Count=m=1), refreshed once more as clean,
	// and finally invalidated.
	b, st, h := newTestBank(t, testCell(), config.RefrintWB(2, 1))
	b.Insert(0x1, mem.Modified, 0)

	b.AdvanceTo(9_000) // interrupt 1: Count 2 -> 1, refresh
	if st.PolicyRefreshes != 1 || st.PolicyWritebacks != 0 {
		t.Fatalf("after 1st interrupt: refreshes=%d writebacks=%d", st.PolicyRefreshes, st.PolicyWritebacks)
	}
	b.AdvanceTo(18_000) // interrupt 2: Count 1 -> 0, refresh
	if st.PolicyRefreshes != 2 || st.PolicyWritebacks != 0 {
		t.Fatalf("after 2nd interrupt: refreshes=%d writebacks=%d", st.PolicyRefreshes, st.PolicyWritebacks)
	}
	b.AdvanceTo(27_000) // interrupt 3: Count==0 && dirty -> write back
	if st.PolicyWritebacks != 1 {
		t.Fatalf("after 3rd interrupt: writebacks=%d, want 1", st.PolicyWritebacks)
	}
	if len(h.writebacks) != 1 || h.writebacks[0] != 0x1 {
		t.Errorf("writeback hook = %v", h.writebacks)
	}
	l, ok := b.Cache().Probe(0x1)
	if !ok || b.Cache().Dirty(l) {
		t.Fatalf("line should now be valid clean: %+v ok=%v", b.Cache().Line(l), ok)
	}
	if got := b.counts[l]; got != 1 {
		t.Errorf("Count after writeback = %d, want m=1", got)
	}

	b.AdvanceTo(36_000) // interrupt 4: Count 1 -> 0, refresh (clean)
	if st.PolicyRefreshes != 3 {
		t.Fatalf("after 4th interrupt: refreshes=%d, want 3", st.PolicyRefreshes)
	}
	b.AdvanceTo(45_000) // interrupt 5: Count==0 && clean -> invalidate
	if st.PolicyInvalidates != 1 {
		t.Fatalf("after 5th interrupt: invalidates=%d, want 1", st.PolicyInvalidates)
	}
	if _, ok := b.Probe(0x1, 45_100); ok {
		t.Error("line should be invalidated")
	}
	// Total: exactly 3 refreshes + 1 writeback + 1 invalidation; nothing else.
	if st.Level(stats.L3).Refreshes != 3 || st.Level(stats.L3).Writebacks != 1 || st.Level(stats.L3).Invalidations != 1 {
		t.Errorf("level counters: %+v", *st.Level(stats.L3))
	}
}

func TestAccessResetsWBCount(t *testing.T) {
	b, st, _ := newTestBank(t, testCell(), config.RefrintWB(1, 1))
	b.Insert(0x1, mem.Modified, 0)
	b.AdvanceTo(9_000) // Count 1 -> 0, refresh
	if st.PolicyRefreshes != 1 {
		t.Fatalf("refreshes = %d", st.PolicyRefreshes)
	}
	// A normal access before the next interrupt resets Count to n.
	l, ok := b.Probe(0x1, 10_000)
	if !ok {
		t.Fatal("line missing")
	}
	b.Touch(l, 10_000)
	if got := b.counts[l]; got != 1 {
		t.Fatalf("Count after access = %d, want n=1", got)
	}
	// Next interrupt (at 19_000): Count 1 -> 0, refresh (not writeback).
	b.AdvanceTo(19_000)
	if st.PolicyWritebacks != 0 {
		t.Errorf("writebacks = %d, want 0 (access re-armed the budget)", st.PolicyWritebacks)
	}
	if st.PolicyRefreshes != 2 {
		t.Errorf("refreshes = %d, want 2", st.PolicyRefreshes)
	}
}

func TestWBCountInitialisation(t *testing.T) {
	b, _, _ := newTestBank(t, testCell(), config.RefrintWB(7, 3))
	frame, _, _ := b.Insert(0x1, mem.Modified, 0)
	if got := b.counts[frame]; got != 7 {
		t.Errorf("dirty fill Count = %d, want n=7", got)
	}
	frame2, _, _ := b.Insert(0x2, mem.Shared, 0)
	if got := b.counts[frame2]; got != 3 {
		t.Errorf("clean fill Count = %d, want m=3", got)
	}
}

func TestPeriodicAllRefreshesEverything(t *testing.T) {
	b, st, _ := newTestBank(t, testCell(), config.PeriodicAll)
	b.Insert(0x1, mem.Exclusive, 0)
	// One full retention period: all 4 groups fire, covering all 64 frames.
	b.AdvanceTo(10_000)
	// All policy refreshes every frame, valid or not: 64 refreshes.
	if st.Level(stats.L3).Refreshes != 64 {
		t.Errorf("refreshes = %d, want 64 (every frame once per period)", st.Level(stats.L3).Refreshes)
	}
	if st.PeriodicGroupScans != 4 {
		t.Errorf("group scans = %d, want 4", st.PeriodicGroupScans)
	}
}

func TestPeriodicValidRefreshesOnlyValidLines(t *testing.T) {
	b, st, _ := newTestBank(t, testCell(), config.PeriodicValid)
	b.Insert(0x1, mem.Exclusive, 0)
	b.Insert(0x2, mem.Modified, 0)
	b.AdvanceTo(10_000)
	if st.Level(stats.L3).Refreshes != 2 {
		t.Errorf("refreshes = %d, want 2 (only the two valid lines)", st.Level(stats.L3).Refreshes)
	}
}

func TestPeriodicBlocksThePort(t *testing.T) {
	b, st, _ := newTestBank(t, testCell(), config.PeriodicAll)
	b.Insert(0x1, mem.Exclusive, 0)
	// First group firing is at 10_000/4 = 2_500 and blocks for 16 cycles
	// (64 lines / 4 groups).
	b.AdvanceTo(2_500)
	start := b.PortStart(2_500)
	if start != 2_516 {
		t.Errorf("PortStart during sweep = %d, want 2516", start)
	}
	if st.Level(stats.L3).RefreshStall != 16 {
		t.Errorf("RefreshStall = %d, want 16", st.Level(stats.L3).RefreshStall)
	}
	// Far from any sweep the port is free.
	if got := b.PortStart(3_000); got != 3_000 {
		t.Errorf("PortStart after sweep = %d, want 3000", got)
	}
}

func TestRefrintPortOccupancyIsFine(t *testing.T) {
	// Refrint interrupts occupy the port one cycle per line, at the line's
	// own deadline — far less blocking than a periodic sweep.
	b, _, _ := newTestBank(t, testCell(), config.RefrintValid)
	b.Insert(0x1, mem.Exclusive, 0)
	b.Insert(0x2, mem.Exclusive, 0)
	b.AdvanceTo(9_000)
	start := b.PortStart(9_000)
	if start > 9_002 {
		t.Errorf("PortStart = %d; two interrupts should occupy at most two cycles", start)
	}
}

func TestInvalidLinesRaiseNoInterrupts(t *testing.T) {
	b, st, _ := newTestBank(t, testCell(), config.RefrintValid)
	b.Insert(0x1, mem.Exclusive, 0)
	b.Invalidate(0x1)
	b.AdvanceTo(50_000)
	if st.PolicyRefreshes != 0 {
		t.Errorf("refreshes = %d, want 0 for an invalidated line", st.PolicyRefreshes)
	}
}

func TestReplacedFrameDoesNotInheritStaleDeadline(t *testing.T) {
	cfg := testBankConfig()
	b, st, _ := newTestBank(t, testCell(), config.RefrintValid)
	sets := cfg.Sets()
	// Fill one set completely, then insert one more line to force a
	// replacement.  The replaced frame's old sentry entry must not cause a
	// premature or duplicate refresh of the new occupant.
	for w := 0; w <= cfg.Ways; w++ {
		b.Insert(mem.LineAddr(1+w*sets), mem.Exclusive, int64(w))
	}
	b.AdvanceTo(9_000)
	// 4 lines remain valid (one was evicted); one interrupt each, scheduled
	// from their insert times (0..4), all due by 9_004.
	b.AdvanceTo(9_010)
	if got := st.Level(stats.L3).Refreshes; got != 4 {
		t.Errorf("refreshes = %d, want 4 (one per resident line)", got)
	}
}

func TestDecayDetectedOnProbe(t *testing.T) {
	// Build a bank whose policy never refreshes clean lines (Dirty policy)
	// and probe a clean line after its cell retention has passed without an
	// intervening AdvanceTo: the probe must treat it as decayed.
	st := stats.New(1)
	h := &hookLog{}
	b := newBank(testBankConfig(), testCell(), config.RefrintDirty, stats.L3, st, h.hooks())
	b.Insert(0x1, mem.Exclusive, 0)
	// Advance only to just before the sentry deadline so the policy has not
	// yet had the chance to invalidate it, then jump past cell retention.
	b.AdvanceTo(8_000)
	l, ok := b.arr.Probe(0x1)
	if !ok {
		t.Fatal("line should still be physically present")
	}
	_ = l
	if _, ok := b.Probe(0x1, 50_000); ok {
		// The AdvanceTo inside Probe processes the sentry interrupt first,
		// which invalidates the clean line under the Dirty policy - so the
		// probe already misses.  Either way the line must not hit.
		t.Error("decayed/invalidated line must not hit")
	}
}

func TestFlushReturnsDirtyLines(t *testing.T) {
	for _, policy := range []config.Policy{config.RefrintWB(4, 4), config.PeriodicWB(4, 4)} {
		b, _, _ := newTestBank(t, testCell(), policy)
		b.Insert(0x1, mem.Modified, 0)
		b.Insert(0x2, mem.Exclusive, 0)
		if n := b.FlushCount(); n != 1 {
			t.Errorf("%v: FlushCount = %d, want the single dirty line", policy, n)
		}
		if b.ValidLines() != 0 || b.Cache().DirtyCount() != 0 {
			t.Errorf("%v: %d valid, %d dirty after the flush", policy, b.ValidLines(), b.Cache().DirtyCount())
		}
		b.Insert(0x3, mem.Modified, 1)
		if n := b.FlushCount(); n != 1 {
			t.Errorf("%v: second FlushCount = %d, want 1", policy, n)
		}
	}
}

func TestPendingRefreshWork(t *testing.T) {
	b, _, _ := newTestBank(t, testCell(), config.RefrintValid)
	if b.PendingRefreshWork() != 0 {
		t.Error("fresh bank should have no pending work")
	}
	b.Insert(0x1, mem.Exclusive, 0)
	if b.PendingRefreshWork() != 1 {
		t.Errorf("PendingRefreshWork = %d, want 1", b.PendingRefreshWork())
	}
	sram, _, _ := newTestBank(t, sramCell(), config.SRAMBaseline)
	if sram.PendingRefreshWork() != 0 {
		t.Error("SRAM bank should never have pending refresh work")
	}
}

func TestPeriodicWBWritesBackDirtyLines(t *testing.T) {
	b, st, h := newTestBank(t, testCell(), config.PeriodicWB(1, 1))
	b.Insert(0x1, mem.Modified, 0)
	// Period 10_000, 4 groups; the line is in group 0 (set of tag 0x1 is 1,
	// so flat index 4..7 -> group 0, swept at 2_500).
	b.AdvanceTo(10_000) // sweep 1: Count 1->0, refresh
	if st.PolicyRefreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", st.PolicyRefreshes)
	}
	b.AdvanceTo(20_000) // sweep 2: Count==0 && dirty -> writeback
	if st.PolicyWritebacks != 1 || len(h.writebacks) != 1 {
		t.Fatalf("writebacks = %d, want 1", st.PolicyWritebacks)
	}
	b.AdvanceTo(30_000) // sweep 3: Count m=1 -> 0, refresh as clean
	b.AdvanceTo(40_000) // sweep 4: invalidate
	if st.PolicyInvalidates != 1 {
		t.Errorf("invalidates = %d, want 1", st.PolicyInvalidates)
	}
}

func TestRefreshStallOnlyWhenPortBusy(t *testing.T) {
	b, st, _ := newTestBank(t, testCell(), config.RefrintValid)
	b.Insert(0x1, mem.Exclusive, 0)
	if got := b.PortStart(100); got != 100 {
		t.Errorf("PortStart with idle port = %d, want 100", got)
	}
	if st.Level(stats.L3).RefreshStall != 0 {
		t.Error("no stall expected on an idle port")
	}
}

func TestResetPanicsOnBadPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid policy should panic")
		}
	}()
	newBank(testBankConfig(), testCell(), config.Policy{Time: config.TimePolicy(9)}, stats.L3, stats.New(1), Hooks{})
}

func TestNilHooksAreSafe(t *testing.T) {
	st := stats.New(1)
	b := newBank(testBankConfig(), testCell(), config.RefrintWB(0, 0), stats.L3, st, Hooks{})
	b.Insert(0x1, mem.Modified, 0)
	// With n=m=0 the first interrupt writes back immediately and the second
	// invalidates; both hooks are nil and must not panic.
	b.AdvanceTo(9_000)
	b.AdvanceTo(18_000)
	if st.PolicyWritebacks != 1 || st.PolicyInvalidates != 1 {
		t.Errorf("writebacks=%d invalidates=%d", st.PolicyWritebacks, st.PolicyInvalidates)
	}
}

func TestDirtyPolicyNeverWritesBackViaPolicy(t *testing.T) {
	// The Dirty policy keeps refreshing dirty lines forever; only WB(n,m)
	// generates policy writebacks.
	b, st, _ := newTestBank(t, testCell(), config.RefrintDirty)
	b.Insert(0x1, mem.Modified, 0)
	for c := int64(9_000); c <= 90_000; c += 9_000 {
		b.AdvanceTo(c)
	}
	if st.PolicyWritebacks != 0 {
		t.Errorf("Dirty policy produced %d writebacks", st.PolicyWritebacks)
	}
	if st.PolicyRefreshes < 10 {
		t.Errorf("dirty line should have been refreshed ~10 times, got %d", st.PolicyRefreshes)
	}
}

func TestRefrintRefreshCountTracksResidentLines(t *testing.T) {
	// Energy intuition check: with the Valid policy over one sentry period,
	// the number of refreshes equals the number of resident valid lines.
	b, st, _ := newTestBank(t, testCell(), config.RefrintValid)
	for i := 0; i < 10; i++ {
		b.Insert(mem.LineAddr(i*b.cacheCfg.Sets()+i%b.cacheCfg.Sets()), mem.Exclusive, 0)
	}
	valid := b.Cache().ValidCount()
	b.AdvanceTo(9_100)
	if got := st.Level(stats.L3).Refreshes; got != int64(valid) {
		t.Errorf("refreshes = %d, want %d (one per resident line per sentry period)", got, valid)
	}
}

// TestProbeDecaysAtCellDeadline pins Probe's decay test.  A line inserted
// behind the bank's clock is never reached by a refresh pass, so only its
// charge time decides whether a probe finds it: it hits one cycle before
// charge + CellCycles and has decayed at that cycle.  Periodic All and
// Valid recharge every line each period, so they never decay.
func TestProbeDecaysAtCellDeadline(t *testing.T) {
	const charge = 1_000
	deadline := charge + testCell().RetentionCycles
	for _, tc := range []struct {
		policy config.Policy
		decays bool
	}{
		{config.RefrintValid, true},
		{config.RefrintWB(2, 2), true},
		{config.Policy{Time: config.PeriodicTime, Data: config.DirtyData}, true},
		{config.PeriodicWB(2, 2), true},
		{config.PeriodicAll, false},
		{config.PeriodicValid, false},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			b, st, _ := newTestBank(t, testCell(), tc.policy)
			b.AdvanceTo(50_000)
			b.Insert(0x1, mem.Exclusive, charge)
			if _, ok := b.Probe(0x1, deadline-1); !ok {
				t.Fatalf("probe at %d missed", deadline-1)
			}
			if _, ok := b.Probe(0x1, deadline); ok == tc.decays {
				t.Errorf("probe at %d hit = %v, want %v", deadline, ok, !tc.decays)
			}
			want := int64(0)
			if tc.decays {
				want = 1
			}
			if got := st.Level(stats.L3).Decays; got != want {
				t.Errorf("Decays = %d, want %d", got, want)
			}
		})
	}
}
