package core

import (
	"reflect"
	"testing"

	"refrint/internal/config"
	"refrint/internal/mem"
	"refrint/internal/stats"
)

// watchScript inserts a dirty and a clean line at cycle 0, touches the
// clean one at 20_000 and runs the clock to 50_000.  Under either time
// policy the dirty line is refreshed five times with no access between, and
// the clean line at most three times after its touch.
func watchScript(b *Bank) {
	b.Insert(0x1, mem.Modified, 0)
	b.Insert(0x2, mem.Exclusive, 0)
	if f, ok := b.Probe(0x2, 20_000); ok {
		b.Touch(f, 20_000)
	}
	b.AdvanceTo(50_000)
}

// TestWatchSparesExactlyTheBudgetsThatHold runs a watching Valid bank and a
// WB(n,m) bank for every n, m in 0..6 through one script, under Refrint and
// Periodic.  A WB bank ends with exactly the Valid bank's counters if and
// only if the watch spares its budgets, and the watch holds one less than
// the most refreshes a line got between charges.
func TestWatchSparesExactlyTheBudgetsThatHold(t *testing.T) {
	for _, tp := range []config.TimePolicy{config.RefrintTime, config.PeriodicTime} {
		valid, vst, _ := newTestBank(t, testCell(), config.Policy{Time: tp, Data: config.ValidData})
		if !valid.WatchBudgets() {
			t.Fatalf("%v: a Valid bank does not watch", tp)
		}
		watchScript(valid)
		w := valid.Watch()
		if w != (Watch{Dirty: 4, Clean: 2}) {
			t.Errorf("%v: watch %+v, want 4 dirty, 2 clean", tp, w)
		}
		for n := range 7 {
			for m := range 7 {
				wb, wst, _ := newTestBank(t, testCell(), config.WB(tp, n, m))
				watchScript(wb)
				if same := reflect.DeepEqual(*vst, *wst); same != w.Spares(n, m) {
					t.Errorf("%v WB(%d,%d): counters equal to Valid's %v, watch spares it %v", tp, n, m, same, w.Spares(n, m))
				}
			}
		}
	}
}

// TestWatchingPeriodicBankFlagsDecay checks that a watching Periodic Valid
// bank records a probe that a WB bank finds decayed, and drops nothing.  An
// off-clock touch, earlier than the group sweep that last refreshed the
// line, moves the line's charge time back far enough.
func TestWatchingPeriodicBankFlagsDecay(t *testing.T) {
	valid, vst, _ := newTestBank(t, testCell(), config.PeriodicValid)
	valid.WatchBudgets()
	wb, wst, _ := newTestBank(t, testCell(), config.WB(config.PeriodicTime, 8, 8))
	hits := make([]bool, 2)
	for i, b := range []*Bank{valid, wb} {
		f, _, _ := b.Insert(0x1, mem.Exclusive, 100)
		b.AdvanceTo(2_500) // the line's group sweeps at 2_500, then at 12_500
		b.Touch(f, 50)
		_, hits[i] = b.Probe(0x1, 10_100)
	}
	if wst.Level(stats.L3).Decays != 1 || hits[1] {
		t.Fatalf("WB bank: %d decays, probe hit %v; want the line lost", wst.Level(stats.L3).Decays, hits[1])
	}
	if vst.Level(stats.L3).Decays != 0 || !hits[0] {
		t.Errorf("Valid bank: %d decays, probe hit %v; want the line kept", vst.Level(stats.L3).Decays, hits[0])
	}
	if w := valid.Watch(); !w.Decayed || w.Spares(8, 8) {
		t.Errorf("watch %+v misses the decay", w)
	}
}

// TestOnlyValidBanksWatch checks that WatchBudgets turns the watch on only
// on refreshable Valid banks, and that Reset turns it off: a bank that does
// not watch spares no budget.
func TestOnlyValidBanksWatch(t *testing.T) {
	for _, p := range []config.Policy{config.PeriodicAll, config.RefrintWB(4, 4), {Time: config.RefrintTime, Data: config.DirtyData}} {
		b, _, _ := newTestBank(t, testCell(), p)
		if b.WatchBudgets() {
			t.Errorf("%s bank watches", p)
		}
	}
	if b, _, _ := newTestBank(t, sramCell(), config.SRAMBaseline); b.WatchBudgets() {
		t.Error("SRAM bank watches")
	}
	b, st, _ := newTestBank(t, testCell(), config.RefrintValid)
	b.WatchBudgets()
	b.Reset(testBankConfig(), testCell(), config.RefrintValid, stats.L3, st)
	if w := b.Watch(); w.Spares(1<<20, 1<<20) {
		t.Errorf("reset bank still watches: %+v", w)
	}
}
