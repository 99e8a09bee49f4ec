package edram

import (
	"testing"
	"testing/quick"

	"refrint/internal/config"
)

func retention50us() Retention {
	cell := config.AsEDRAM(config.FullSize(), config.PeriodicAll, config.Retention50us).Cell
	return NewRetention(cell)
}

func TestNewRetentionFromConfig(t *testing.T) {
	r := retention50us()
	if !r.Refreshable() {
		t.Fatal("eDRAM retention should be refreshable")
	}
	if r.CellCycles != 50000 {
		t.Errorf("CellCycles = %d, want 50000", r.CellCycles)
	}
	if r.SentryCycles != 50000-16384 {
		t.Errorf("SentryCycles = %d, want %d", r.SentryCycles, 50000-16384)
	}
	if r.GuardBand() != 16384 {
		t.Errorf("GuardBand = %d, want 16384", r.GuardBand())
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate() = %v", err)
	}
}

func TestSRAMRetentionIsInert(t *testing.T) {
	r := NewRetention(config.CellConfig{Tech: config.SRAM, LeakageRatio: 1})
	if r.Refreshable() {
		t.Error("SRAM should not be refreshable")
	}
	if r.Decayed(0, 1<<40) || r.SentryFired(0, 1<<40) {
		t.Error("SRAM lines must never decay")
	}
	if err := r.Validate(); err != nil {
		t.Errorf("SRAM retention should validate: %v", err)
	}
}

func TestDeadlinesAndDecay(t *testing.T) {
	r := Retention{CellCycles: 1000, SentryCycles: 800}
	if got := r.SentryDeadline(500); got != 1300 {
		t.Errorf("SentryDeadline = %d, want 1300", got)
	}
	if got := r.CellDeadline(500); got != 1500 {
		t.Errorf("CellDeadline = %d, want 1500", got)
	}
	if r.SentryFired(500, 1299) {
		t.Error("sentry fired too early")
	}
	if !r.SentryFired(500, 1300) {
		t.Error("sentry should fire at its deadline")
	}
	if r.Decayed(500, 1499) {
		t.Error("cell decayed too early")
	}
	if !r.Decayed(500, 1500) {
		t.Error("cell should decay at its deadline")
	}
}

func TestSentryAlwaysLeadsCellProperty(t *testing.T) {
	r := retention50us()
	// Property: for any charge time and observation time, if the cell has
	// decayed the sentry must have fired first (the guard band guarantees
	// the interrupt precedes data loss).
	f := func(charge uint32, delta uint32) bool {
		last := int64(charge)
		now := last + int64(delta%200000)
		if r.Decayed(last, now) && !r.SentryFired(last, now) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValidateErrors(t *testing.T) {
	if err := (Retention{CellCycles: 100, SentryCycles: 100}).Validate(); err == nil {
		t.Error("sentry == cell retention should be invalid")
	}
	if err := (Retention{CellCycles: 100, SentryCycles: 0}).Validate(); err == nil {
		t.Error("zero sentry retention should be invalid")
	}
	if err := (Retention{CellCycles: 100, SentryCycles: 50}).Validate(); err != nil {
		t.Errorf("valid retention rejected: %v", err)
	}
}

func TestPeriodicScheduleGroups(t *testing.T) {
	r := Retention{CellCycles: 4000, SentryCycles: 3000}
	s := NewPeriodicSchedule(r, 4, 1024)
	if s.LinesPerGroup() != 256 {
		t.Errorf("LinesPerGroup = %d, want 256", s.LinesPerGroup())
	}
	if s.BlockCycles() != 256 {
		t.Errorf("BlockCycles = %d, want 256", s.BlockCycles())
	}
	// Firings at 1000, 2000, 3000, 4000, ... covering groups 0..3 cyclically.
	g, cycle := s.GroupAt(0)
	if g != 0 || cycle != 1000 {
		t.Errorf("GroupAt(0) = %d,%d want 0,1000", g, cycle)
	}
	g, cycle = s.GroupAt(5)
	if g != 1 || cycle != 6000 {
		t.Errorf("GroupAt(5) = %d,%d want 1,6000", g, cycle)
	}
	if got := s.FiringsUpTo(999); got != 0 {
		t.Errorf("FiringsUpTo(999) = %d, want 0", got)
	}
	if got := s.FiringsUpTo(1000); got != 1 {
		t.Errorf("FiringsUpTo(1000) = %d, want 1", got)
	}
	if got := s.FiringsUpTo(4500); got != 4 {
		t.Errorf("FiringsUpTo(4500) = %d, want 4", got)
	}
}

func TestPeriodicScheduleCoversWholeCacheEachPeriod(t *testing.T) {
	r := Retention{CellCycles: 4000, SentryCycles: 3000}
	s := NewPeriodicSchedule(r, 4, 1000) // not divisible: last group smaller
	covered := make([]bool, 1000)
	for k := int64(0); k < int64(s.Groups); k++ {
		g, cycle := s.GroupAt(k)
		if cycle > r.CellCycles {
			t.Errorf("firing %d at cycle %d exceeds the retention period", k, cycle)
		}
		start, end := s.GroupRange(g)
		for i := start; i < end; i++ {
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("line %d not covered within one retention period", i)
		}
	}
}

func TestPeriodicScheduleGroupRangeClamped(t *testing.T) {
	r := Retention{CellCycles: 4000, SentryCycles: 3000}
	s := NewPeriodicSchedule(r, 3, 10)
	start, end := s.GroupRange(2)
	if start != 8 || end != 10 {
		t.Errorf("GroupRange(2) = [%d,%d), want [8,10)", start, end)
	}
	start, end = s.GroupRange(5)
	if start != 10 || end != 10 {
		t.Errorf("out-of-range group should clamp to empty, got [%d,%d)", start, end)
	}
}

func TestPeriodicScheduleDegenerateGroups(t *testing.T) {
	r := Retention{CellCycles: 4000, SentryCycles: 3000}
	s := NewPeriodicSchedule(r, 0, 100)
	if s.Groups != 1 {
		t.Errorf("Groups = %d, want fallback to 1", s.Groups)
	}
	if s.LinesPerGroup() != 100 {
		t.Errorf("LinesPerGroup = %d, want 100", s.LinesPerGroup())
	}
}

func TestStaggeringSpreadsFirings(t *testing.T) {
	// The schedule staggers the refresh of a full cache across a retention
	// period (Section 3.2): consecutive firings must be separated by
	// Period/Groups cycles.
	r := Retention{CellCycles: 50000, SentryCycles: 33616}
	s := NewPeriodicSchedule(r, 4, 16384)
	_, c0 := s.GroupAt(0)
	_, c1 := s.GroupAt(1)
	if c1-c0 != 12500 {
		t.Errorf("firing spacing = %d, want 12500", c1-c0)
	}
}

// framesByFiring is the oracle of FramesUpTo: the sizes of the groups of
// every firing due by now, added one firing at a time.
func framesByFiring(s PeriodicSchedule, now int64) int64 {
	var frames int64
	for k := range s.FiringsUpTo(now) {
		g, _ := s.GroupAt(k)
		start, end := s.GroupRange(g)
		frames += int64(end - start)
	}
	return frames
}

func TestPeriodicScheduleFramesUpTo(t *testing.T) {
	r := Retention{CellCycles: 3000, SentryCycles: 2000}
	uneven := NewPeriodicSchedule(r, 3, 10) // groups of 4, 4 and 2 lines, firings every 1000
	sparse := NewPeriodicSchedule(r, 4, 3)  // more groups than lines: the last group is empty
	for _, tc := range []struct {
		name string
		s    PeriodicSchedule
		now  int64
		want int64
	}{
		{"before the first firing", uneven, 999, 0},
		{"on the first firing", uneven, 1000, 4},
		{"between firings", uneven, 2999, 8},
		{"on the short last group", uneven, 3000, 10},
		{"one round and one group", uneven, 4000, 14},
		{"two rounds and the short group pending", uneven, 8999, 28},
		{"more groups than lines, partial round", sparse, 2250, 3},
		{"more groups than lines, on the empty group", sparse, 3000, 3},
		{"more groups than lines, second round", sparse, 3750, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.FramesUpTo(tc.now); got != tc.want {
				t.Errorf("FramesUpTo(%d) = %d, want %d", tc.now, got, tc.want)
			}
			if got := framesByFiring(tc.s, tc.now); got != tc.want {
				t.Errorf("the firing loop gives %d frames by %d, want %d", got, tc.now, tc.want)
			}
		})
	}
	// And at every cycle of several rounds, for several group counts.
	for _, s := range []PeriodicSchedule{uneven, sparse, NewPeriodicSchedule(r, 4, 1000), NewPeriodicSchedule(r, 0, 7)} {
		for now := int64(0); now <= 4*r.CellCycles; now += 50 {
			if got, want := s.FramesUpTo(now), framesByFiring(s, now); got != want {
				t.Fatalf("%+v: FramesUpTo(%d) = %d, the firing loop gives %d", s, now, got, want)
			}
		}
	}
}
