package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"refrint/internal/config"
	"refrint/internal/stats"
)

func TestNewParametersSRAMvsEDRAMLeakageRatio(t *testing.T) {
	full := config.FullSize()
	sram := NewParameters(config.AsSRAM(full))
	edram := NewParameters(config.AsEDRAM(full, config.PeriodicAll, config.Retention50us))
	if sram.CellLeakageRatio != 1.0 {
		t.Errorf("SRAM leakage ratio = %v, want 1", sram.CellLeakageRatio)
	}
	if edram.CellLeakageRatio != 0.25 {
		t.Errorf("eDRAM leakage ratio = %v, want 0.25 (Table 5.2)", edram.CellLeakageRatio)
	}
	// Access energies identical between technologies (Table 5.2).
	if sram.L3AccessJ != edram.L3AccessJ || sram.L2AccessJ != edram.L2AccessJ {
		t.Error("access energy must not depend on cell technology")
	}
}

func TestRefreshEnergyEqualsAccessEnergy(t *testing.T) {
	p := NewParameters(config.FullSize())
	if p.IL1RefreshJ != p.IL1AccessJ || p.DL1RefreshJ != p.DL1AccessJ ||
		p.L2RefreshJ != p.L2AccessJ || p.L3RefreshJ != p.L3AccessJ {
		t.Error("Table 5.2: refresh energy of a line must equal its access energy")
	}
}

func TestParametersLevelOrdering(t *testing.T) {
	p := NewParameters(config.FullSize())
	if !(p.IL1AccessJ < p.L2AccessJ && p.L2AccessJ < p.L3AccessJ) {
		t.Errorf("access energy should grow with capacity: %v %v %v", p.IL1AccessJ, p.L2AccessJ, p.L3AccessJ)
	}
	if !(p.L3LeakW > p.L2LeakW) {
		t.Errorf("total L3 leakage should exceed total L2 leakage: %v vs %v", p.L3LeakW, p.L2LeakW)
	}
	if p.ClockPeriodS != 1e-9 {
		t.Errorf("clock period = %v, want 1ns at 1GHz", p.ClockPeriodS)
	}
}

func TestScaledParametersIdenticalToFullSize(t *testing.T) {
	// The Scaled preset is a time-compressed stand-in for the full-size
	// machine, so per-event energies and leakage powers must be identical
	// (DESIGN.md section 4.7).
	full := NewParameters(config.FullSize())
	scaled := NewParameters(config.Scaled())
	if scaled != full {
		t.Errorf("scaled parameters differ from full-size:\n%+v\n%+v", scaled, full)
	}
}

func runStats() *stats.Stats {
	s := stats.New(16)
	s.Cycles = 1_000_000
	s.Instructions = 10_000_000
	s.Level(stats.DL1).Reads = 500_000
	s.Level(stats.DL1).Writes = 200_000
	s.Level(stats.DL1).Hits = 650_000
	s.Level(stats.DL1).Misses = 50_000
	s.Level(stats.L2).Reads = 50_000
	s.Level(stats.L2).Hits = 40_000
	s.Level(stats.L2).Misses = 10_000
	s.Level(stats.L3).Reads = 10_000
	s.Level(stats.L3).Hits = 8_000
	s.Level(stats.L3).Misses = 2_000
	s.Level(stats.L3).Refreshes = 100_000
	s.Level(stats.DRAM).Reads = 2_000
	s.NoCFlits = 80_000
	s.NoCHops = 20_000
	return s
}

func TestComputeDecompositionsConsistent(t *testing.T) {
	m := NewModel(NewParameters(config.AsEDRAM(config.FullSize(), config.PeriodicAll, config.Retention50us)))
	b := m.Compute(runStats())
	onChipByLevel := b.IL1 + b.DL1 + b.L2 + b.L3
	onChipByComponent := b.Dynamic + b.Leakage + b.Refresh
	if math.Abs(onChipByLevel-onChipByComponent) > 1e-12*onChipByLevel {
		t.Errorf("per-level (%.6g) and per-component (%.6g) on-chip decompositions disagree", onChipByLevel, onChipByComponent)
	}
	if b.MemoryHierarchy() != onChipByLevel+b.DRAM {
		t.Error("MemoryHierarchy must be on-chip + DRAM")
	}
	if b.Total() <= b.MemoryHierarchy() {
		t.Error("Total must add core and NoC energy on top of the memory hierarchy")
	}
}

func TestComputeRefreshEnergyCounted(t *testing.T) {
	cfg := config.AsEDRAM(config.FullSize(), config.PeriodicAll, config.Retention50us)
	m := NewModel(NewParameters(cfg))
	s := runStats()
	withRefresh := m.Compute(s)
	s.Level(stats.L3).Refreshes = 0
	withoutRefresh := m.Compute(s)
	if withRefresh.Refresh <= withoutRefresh.Refresh {
		t.Error("refresh counter must increase refresh energy")
	}
	diff := withRefresh.Refresh - withoutRefresh.Refresh
	want := 100_000 * m.Params.L3RefreshJ
	if math.Abs(diff-want) > 1e-12*want {
		t.Errorf("refresh energy delta = %v, want %v", diff, want)
	}
}

func TestComputeLeakageScalesWithTimeAndTechnology(t *testing.T) {
	full := config.FullSize()
	sramModel := NewModel(NewParameters(config.AsSRAM(full)))
	edramModel := NewModel(NewParameters(config.AsEDRAM(full, config.PeriodicAll, config.Retention50us)))

	s := runStats()
	sramB := sramModel.Compute(s)
	edramB := edramModel.Compute(s)
	// Same counters: eDRAM leakage must be exactly 1/4 of SRAM leakage.
	ratio := edramB.Leakage / sramB.Leakage
	if math.Abs(ratio-0.25) > 1e-9 {
		t.Errorf("eDRAM/SRAM leakage ratio = %v, want 0.25", ratio)
	}

	// Double the run length: leakage doubles, dynamic unchanged.
	s2 := runStats()
	s2.Cycles *= 2
	b2 := sramModel.Compute(s2)
	if math.Abs(b2.Leakage-2*sramB.Leakage) > 1e-9*b2.Leakage {
		t.Errorf("leakage should double with run length: %v vs %v", b2.Leakage, sramB.Leakage)
	}
	if b2.Dynamic != sramB.Dynamic {
		t.Error("dynamic energy must not depend on run length")
	}
}

func TestComputeDRAMEnergy(t *testing.T) {
	m := NewModel(NewParameters(config.FullSize()))
	s := stats.New(1)
	s.Cycles = 1000
	s.Level(stats.DRAM).Reads = 10
	s.FlushWritebacks = 5
	b := m.Compute(s)
	want := 15 * m.Params.DRAMAccessJ
	if math.Abs(b.DRAM-want) > 1e-18 {
		t.Errorf("DRAM energy = %v, want %v (flush writebacks must be charged)", b.DRAM, want)
	}
}

func TestComputeMonotoneInActivityProperty(t *testing.T) {
	m := NewModel(NewParameters(config.FullSize()))
	f := func(extraReads uint16, extraRefreshes uint16) bool {
		s1 := runStats()
		s2 := runStats()
		s2.Level(stats.L3).Reads += int64(extraReads)
		s2.Level(stats.L3).Refreshes += int64(extraRefreshes)
		b1, b2 := m.Compute(s1), m.Compute(s2)
		return b2.MemoryHierarchy() >= b1.MemoryHierarchy() && b2.Total() >= b1.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBreakdownString(t *testing.T) {
	m := NewModel(NewParameters(config.FullSize()))
	out := m.Compute(runStats()).String()
	for _, want := range []string{"mem=", "total=", "refresh="} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q: %s", want, out)
		}
	}
}

func TestParametersIndependentOfPolicy(t *testing.T) {
	// Energy constants must not depend on the refresh policy, only on the
	// cell technology.
	full := config.FullSize()
	a := NewParameters(config.AsEDRAM(full, config.PeriodicAll, config.Retention50us))
	b := NewParameters(config.AsEDRAM(full, config.RefrintWB(32, 32), config.Retention200us))
	if a != b {
		t.Error("parameters should not depend on the refresh policy or retention time")
	}
}
