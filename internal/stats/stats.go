// Package stats collects the raw event counts produced by a simulation run:
// per-cache-level accesses, hits, misses, refreshes, writebacks and
// invalidations, network hops, DRAM accesses and the final cycle count.
// Package energy converts these counts into Joules.
package stats

import (
	"fmt"
	"strings"
)

// Level identifies a cache level (or DRAM) in per-level counters.
type Level int

// Cache levels.
const (
	IL1 Level = iota
	DL1
	L2
	L3
	DRAM
	NumLevels
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case IL1:
		return "IL1"
	case DL1:
		return "DL1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case DRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// OnChip reports whether the level is part of the on-chip hierarchy.
func (l Level) OnChip() bool { return l != DRAM }

// LevelCounters are the event counts recorded for one cache level.
type LevelCounters struct {
	Reads         int64 // read/ifetch lookups
	Writes        int64 // write lookups
	Hits          int64
	Misses        int64
	Refreshes     int64 // line refreshes performed (eDRAM only)
	RefreshSkips  int64 // refresh decisions that chose not to refresh
	Writebacks    int64 // dirty lines pushed to the next level
	Invalidations int64 // lines invalidated (policy, inclusion or coherence)
	Decays        int64 // lines that decayed without refresh (data lost)
	Evictions     int64 // replacement-driven evictions
	Fills         int64 // lines brought in from the next level
	RefreshStall  int64 // cycles a request waited because of refresh activity
}

// Accesses returns the total number of lookups at this level.
func (c LevelCounters) Accesses() int64 { return c.Reads + c.Writes }

// Add accumulates other into c.
func (c *LevelCounters) Add(other LevelCounters) {
	c.Reads += other.Reads
	c.Writes += other.Writes
	c.Hits += other.Hits
	c.Misses += other.Misses
	c.Refreshes += other.Refreshes
	c.RefreshSkips += other.RefreshSkips
	c.Writebacks += other.Writebacks
	c.Invalidations += other.Invalidations
	c.Decays += other.Decays
	c.Evictions += other.Evictions
	c.Fills += other.Fills
	c.RefreshStall += other.RefreshStall
}

// MissRate returns misses / accesses, or 0 when there were no accesses.
func (c LevelCounters) MissRate() float64 {
	a := c.Accesses()
	if a == 0 {
		return 0
	}
	return float64(c.Misses) / float64(a)
}

// Stats is the complete set of counters for one simulation run.
type Stats struct {
	Levels [NumLevels]LevelCounters

	// NoC traffic.
	NoCMessages int64
	NoCHops     int64
	NoCFlits    int64

	// Coherence traffic seen by the directory.
	CoherenceInvalidations int64 // invalidations sent to upper-level caches
	CoherenceDowngrades    int64 // M->S transitions forced by remote readers
	CoherenceForwards      int64 // dirty data forwarded between caches

	// Core activity.
	Instructions int64 // total instructions (memory + non-memory) retired
	MemOps       int64 // memory references issued by the cores

	// Refresh-policy decisions (summed over all eDRAM caches).
	PolicyRefreshes    int64 // "refresh the line"
	PolicyWritebacks   int64 // "write it back, keep it valid clean"
	PolicyInvalidates  int64 // "invalidate it"
	SentryInterrupts   int64 // sentry-bit interrupts raised (Refrint)
	PeriodicGroupScans int64 // group refresh sweeps performed (Periodic)

	// End-of-run flush.
	FlushWritebacks int64

	// Time.
	Cycles        int64 // execution time of the slowest core
	PerCoreCycles []int64
}

// New returns an empty Stats with per-core slices sized for cores.
func New(cores int) *Stats {
	return &Stats{PerCoreCycles: make([]int64, cores)}
}

// Reset zeroes every counter in place, keeping the per-core slice.
func (s *Stats) Reset() {
	pc := s.PerCoreCycles
	clear(pc)
	*s = Stats{PerCoreCycles: pc}
}

// Clone returns a deep copy that shares nothing with s.
func (s *Stats) Clone() *Stats {
	c := *s
	c.PerCoreCycles = append([]int64(nil), s.PerCoreCycles...)
	return &c
}

// Level returns a pointer to the counters of the given level.
func (s *Stats) Level(l Level) *LevelCounters { return &s.Levels[l] }

// Add accumulates other into s (per-core cycle slices are compared
// element-wise and the per-core maximum is kept; Cycles keeps the max).
func (s *Stats) Add(other *Stats) {
	for i := range s.Levels {
		s.Levels[i].Add(other.Levels[i])
	}
	s.NoCMessages += other.NoCMessages
	s.NoCHops += other.NoCHops
	s.NoCFlits += other.NoCFlits
	s.CoherenceInvalidations += other.CoherenceInvalidations
	s.CoherenceDowngrades += other.CoherenceDowngrades
	s.CoherenceForwards += other.CoherenceForwards
	s.Instructions += other.Instructions
	s.MemOps += other.MemOps
	s.PolicyRefreshes += other.PolicyRefreshes
	s.PolicyWritebacks += other.PolicyWritebacks
	s.PolicyInvalidates += other.PolicyInvalidates
	s.SentryInterrupts += other.SentryInterrupts
	s.PeriodicGroupScans += other.PeriodicGroupScans
	s.FlushWritebacks += other.FlushWritebacks
	if other.Cycles > s.Cycles {
		s.Cycles = other.Cycles
	}
	for i := range s.PerCoreCycles {
		if i < len(other.PerCoreCycles) && other.PerCoreCycles[i] > s.PerCoreCycles[i] {
			s.PerCoreCycles[i] = other.PerCoreCycles[i]
		}
	}
}

// TotalOnChipRefreshes returns refreshes summed over the on-chip levels.
func (s *Stats) TotalOnChipRefreshes() int64 {
	var total int64
	for l := Level(0); l < NumLevels; l++ {
		if l.OnChip() {
			total += s.Levels[l].Refreshes
		}
	}
	return total
}

// DRAMAccesses returns the number of main-memory accesses (including the
// end-of-run flush writebacks, which the paper charges to DRAM energy).
func (s *Stats) DRAMAccesses() int64 {
	return s.Levels[DRAM].Accesses() + s.FlushWritebacks
}

// String renders a compact human-readable summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d instructions=%d memops=%d\n", s.Cycles, s.Instructions, s.MemOps)
	for l := Level(0); l < NumLevels; l++ {
		c := s.Levels[l]
		if c.Accesses() == 0 && c.Refreshes == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-4s acc=%d hit=%d miss=%d (%.1f%%) refresh=%d wb=%d inv=%d decay=%d refstall=%d\n",
			l, c.Accesses(), c.Hits, c.Misses, 100*c.MissRate(), c.Refreshes, c.Writebacks, c.Invalidations, c.Decays, c.RefreshStall)
	}
	fmt.Fprintf(&b, "noc msgs=%d hops=%d  dram=%d  policy(ref=%d wb=%d inv=%d)  sentryIRQ=%d\n",
		s.NoCMessages, s.NoCHops, s.DRAMAccesses(), s.PolicyRefreshes, s.PolicyWritebacks, s.PolicyInvalidates, s.SentryInterrupts)
	return b.String()
}
