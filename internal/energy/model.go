package energy

import (
	"fmt"

	"refrint/internal/stats"
)

// Breakdown is the energy of one simulation run, decomposed the two ways the
// paper's figures need it plus the whole-system view, all in Joules.
type Breakdown struct {
	// Per-level decomposition (Figure 6.1).
	IL1 float64
	DL1 float64
	L2  float64
	L3  float64
	// DRAM energy (both figures include it).
	DRAM float64

	// Per-component decomposition of the on-chip memory energy (Figure 6.2).
	Dynamic float64 // on-chip cache dynamic (lookup, fill, writeback) energy
	Leakage float64 // on-chip cache leakage integrated over the run
	Refresh float64 // on-chip refresh energy

	// Whole-system extras (Figure 6.3).
	Core float64 // core dynamic + leakage
	NoC  float64 // network dynamic + leakage
}

// MemoryHierarchy returns the paper's "memory hierarchy energy":
// L1 + L2 + L3 + DRAM (Section 6.1).
func (b Breakdown) MemoryHierarchy() float64 {
	return b.IL1 + b.DL1 + b.L2 + b.L3 + b.DRAM
}

// Total returns the whole-system energy of Figure 6.3:
// cores + caches + network + DRAM.
func (b Breakdown) Total() float64 {
	return b.MemoryHierarchy() + b.Core + b.NoC
}

// String implements fmt.Stringer with a compact engineering summary.
func (b Breakdown) String() string {
	return fmt.Sprintf("mem=%.3gJ (L1=%.3g L2=%.3g L3=%.3g DRAM=%.3g | dyn=%.3g leak=%.3g refresh=%.3g) core=%.3g noc=%.3g total=%.3g",
		b.MemoryHierarchy(), b.IL1+b.DL1, b.L2, b.L3, b.DRAM, b.Dynamic, b.Leakage, b.Refresh, b.Core, b.NoC, b.Total())
}

// Model accumulates energy for one configuration.
type Model struct {
	Params Parameters
}

// NewModel returns a Model with the given parameters.
func NewModel(p Parameters) *Model { return &Model{Params: p} }

// Compute converts a finished run's counters into an energy breakdown.
//
// The decompositions are consistent with each other: the sum of the
// per-level on-chip energies equals Dynamic + Leakage + Refresh, and DRAM is
// identical in both views.
func (m *Model) Compute(s *stats.Stats) Breakdown {
	p := m.Params
	seconds := float64(s.Cycles) * p.ClockPeriodS

	var b Breakdown

	type levelParams struct {
		level    stats.Level
		accessJ  float64
		refreshJ float64
		leakW    float64
		out      *float64
	}
	levels := []levelParams{
		{stats.IL1, p.IL1AccessJ, p.IL1RefreshJ, p.IL1LeakW, &b.IL1},
		{stats.DL1, p.DL1AccessJ, p.DL1RefreshJ, p.DL1LeakW, &b.DL1},
		{stats.L2, p.L2AccessJ, p.L2RefreshJ, p.L2LeakW, &b.L2},
		{stats.L3, p.L3AccessJ, p.L3RefreshJ, p.L3LeakW, &b.L3},
	}
	for _, lp := range levels {
		c := s.Level(lp.level)
		// Dynamic: every lookup, plus fills and writebacks, costs one access.
		dynOps := c.Accesses() + c.Fills + c.Writebacks
		if lp.level == stats.IL1 {
			// Every retired instruction is fetched from the IL1.  The
			// workload generators only emit explicit references for data and
			// for code lines that exercise the lower levels, so the
			// per-instruction fetch energy is charged here (the simulated
			// reference stream abstracts the fetch of each instruction).
			dynOps += s.Instructions
		}
		dyn := float64(dynOps) * lp.accessJ
		refresh := float64(c.Refreshes) * lp.refreshJ
		leak := lp.leakW * p.CellLeakageRatio * seconds

		*lp.out = dyn + refresh + leak
		b.Dynamic += dyn
		b.Refresh += refresh
		b.Leakage += leak
	}

	// DRAM: every access (demand misses from L3, writebacks, and the
	// end-of-run flush) costs a fixed energy.
	b.DRAM = float64(s.DRAMAccesses()) * p.DRAMAccessJ

	// NoC: per-flit-hop dynamic energy plus leakage over the run.
	b.NoC = float64(s.NoCFlits)*p.NoCHopJ + p.NoCLeakW*seconds

	// Cores: dynamic energy per instruction plus leakage over the run.
	b.Core = float64(s.Instructions)*p.CoreDynPerInstrJ + p.CoreLeakW*seconds

	return b
}
