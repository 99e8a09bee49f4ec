package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLevelStrings(t *testing.T) {
	want := map[Level]string{IL1: "IL1", DL1: "DL1", L2: "L2", L3: "L3", DRAM: "DRAM"}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("%d.String() = %q, want %q", l, l.String(), s)
		}
	}
	if Level(99).String() != "Level(99)" {
		t.Errorf("fallback string = %q", Level(99).String())
	}
	if DRAM.OnChip() {
		t.Error("DRAM should not be on-chip")
	}
	for _, l := range []Level{IL1, DL1, L2, L3} {
		if !l.OnChip() {
			t.Errorf("%v should be on-chip", l)
		}
	}
}

func TestLevelCountersAccessesAndMissRate(t *testing.T) {
	c := LevelCounters{Reads: 80, Writes: 20, Misses: 25, Hits: 75}
	if c.Accesses() != 100 {
		t.Errorf("Accesses = %d, want 100", c.Accesses())
	}
	if got := c.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", got)
	}
	var empty LevelCounters
	if empty.MissRate() != 0 {
		t.Error("empty MissRate should be 0")
	}
}

func TestLevelCountersAdd(t *testing.T) {
	a := LevelCounters{Reads: 1, Writes: 2, Hits: 3, Misses: 4, Refreshes: 5, Writebacks: 6, Invalidations: 7, Decays: 8, Evictions: 9, Fills: 10, RefreshStall: 11, RefreshSkips: 12}
	b := a
	a.Add(b)
	if a.Reads != 2 || a.Writes != 4 || a.Hits != 6 || a.Misses != 8 || a.Refreshes != 10 ||
		a.Writebacks != 12 || a.Invalidations != 14 || a.Decays != 16 || a.Evictions != 18 ||
		a.Fills != 20 || a.RefreshStall != 22 || a.RefreshSkips != 24 {
		t.Errorf("Add result wrong: %+v", a)
	}
}

func TestStatsAddTakesMaxCycles(t *testing.T) {
	a := New(2)
	a.Cycles = 100
	a.PerCoreCycles[0] = 100
	a.PerCoreCycles[1] = 50
	b := New(2)
	b.Cycles = 80
	b.PerCoreCycles[0] = 70
	b.PerCoreCycles[1] = 80
	a.Add(b)
	if a.Cycles != 100 {
		t.Errorf("Cycles = %d, want max 100", a.Cycles)
	}
	if a.PerCoreCycles[0] != 100 || a.PerCoreCycles[1] != 80 {
		t.Errorf("PerCoreCycles = %v", a.PerCoreCycles)
	}
}

func TestStatsAddAccumulatesCounters(t *testing.T) {
	a, b := New(1), New(1)
	a.Level(L3).Refreshes = 10
	b.Level(L3).Refreshes = 5
	a.NoCHops, b.NoCHops = 3, 4
	a.SentryInterrupts, b.SentryInterrupts = 1, 2
	a.FlushWritebacks, b.FlushWritebacks = 7, 8
	a.Add(b)
	if a.Level(L3).Refreshes != 15 {
		t.Errorf("L3 refreshes = %d", a.Level(L3).Refreshes)
	}
	if a.NoCHops != 7 || a.SentryInterrupts != 3 || a.FlushWritebacks != 15 {
		t.Errorf("aggregate wrong: hops=%d irq=%d flush=%d", a.NoCHops, a.SentryInterrupts, a.FlushWritebacks)
	}
}

func TestTotalOnChipRefreshes(t *testing.T) {
	s := New(1)
	s.Level(IL1).Refreshes = 1
	s.Level(DL1).Refreshes = 2
	s.Level(L2).Refreshes = 3
	s.Level(L3).Refreshes = 4
	s.Level(DRAM).Refreshes = 100 // must not be counted
	if got := s.TotalOnChipRefreshes(); got != 10 {
		t.Errorf("TotalOnChipRefreshes = %d, want 10", got)
	}
}

func TestDRAMAccessesIncludesFlush(t *testing.T) {
	s := New(1)
	s.Level(DRAM).Reads = 10
	s.Level(DRAM).Writes = 5
	s.FlushWritebacks = 3
	if got := s.DRAMAccesses(); got != 18 {
		t.Errorf("DRAMAccesses = %d, want 18", got)
	}
}

func TestStatsString(t *testing.T) {
	s := New(1)
	s.Cycles = 1234
	s.Level(L3).Reads = 10
	s.Level(L3).Hits = 8
	s.Level(L3).Misses = 2
	out := s.String()
	for _, want := range []string{"cycles=1234", "L3", "miss=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "IL1") {
		t.Error("levels with no activity should be omitted from String()")
	}
}

func TestAddIsCommutativeOnCountersProperty(t *testing.T) {
	f := func(r1, w1, r2, w2 int32) bool {
		a := LevelCounters{Reads: int64(r1), Writes: int64(w1)}
		b := LevelCounters{Reads: int64(r2), Writes: int64(w2)}
		x, y := a, b
		x.Add(b)
		y.Add(a)
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewStatsSizesPerCore(t *testing.T) {
	s := New(16)
	if len(s.PerCoreCycles) != 16 {
		t.Errorf("PerCoreCycles len = %d, want 16", len(s.PerCoreCycles))
	}
}
