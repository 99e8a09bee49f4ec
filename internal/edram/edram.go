// Package edram models the retention behaviour of eDRAM cache arrays: cell
// retention periods, the weaker Sentry bit of Section 4.1 of the paper, and
// the staggered group schedule used by the conventional Periodic refresh
// scheme.
//
// The package is purely about timing arithmetic — which lines are due for
// refresh (or have decayed) at a given cycle.  The decision of what to do
// when a line is due (refresh it, write it back, invalidate it) belongs to
// the refresh policies in package core.
package edram

import (
	"fmt"

	"refrint/internal/config"
)

// Retention describes the decay timing of an eDRAM array.
type Retention struct {
	// CellCycles is the retention period of the data cells: a line whose
	// charge is older than this has decayed and its data is lost.
	CellCycles int64
	// SentryCycles is the retention period of the per-line Sentry bit, which
	// is built to decay earlier than the data cells (guard band).
	SentryCycles int64
}

// NewRetention derives the retention parameters from a cell configuration.
func NewRetention(cell config.CellConfig) Retention {
	if !cell.Refreshable() {
		return Retention{}
	}
	return Retention{
		CellCycles:   cell.RetentionCycles,
		SentryCycles: cell.SentryRetention(),
	}
}

// Refreshable reports whether the array needs refresh at all (false for the
// SRAM baseline, for which NewRetention returns the zero value).
func (r Retention) Refreshable() bool { return r.CellCycles > 0 }

// GuardBand returns the number of cycles by which the sentry leads the cell.
func (r Retention) GuardBand() int64 { return r.CellCycles - r.SentryCycles }

// SentryDeadline returns the cycle at which the Sentry bit of a line last
// charged at `lastRefresh` decays and raises an interrupt.
func (r Retention) SentryDeadline(lastRefresh int64) int64 {
	return lastRefresh + r.SentryCycles
}

// CellDeadline returns the cycle at which the data cells of a line last
// charged at `lastRefresh` decay (data is lost at or after this cycle).
func (r Retention) CellDeadline(lastRefresh int64) int64 {
	return lastRefresh + r.CellCycles
}

// Decayed reports whether a line last charged at lastRefresh has lost its
// data by cycle now.
func (r Retention) Decayed(lastRefresh, now int64) bool {
	if !r.Refreshable() {
		return false
	}
	return now >= r.CellDeadline(lastRefresh)
}

// SentryFired reports whether the sentry bit of a line last charged at
// lastRefresh has decayed (and hence interrupted) by cycle now.
func (r Retention) SentryFired(lastRefresh, now int64) bool {
	if !r.Refreshable() {
		return false
	}
	return now >= r.SentryDeadline(lastRefresh)
}

// Validate reports whether the retention parameters are self-consistent.
func (r Retention) Validate() error {
	if !r.Refreshable() {
		return nil
	}
	if r.SentryCycles <= 0 {
		return fmt.Errorf("edram: sentry retention must be positive, got %d", r.SentryCycles)
	}
	if r.SentryCycles >= r.CellCycles {
		return fmt.Errorf("edram: sentry retention %d must be shorter than cell retention %d",
			r.SentryCycles, r.CellCycles)
	}
	return nil
}

// PeriodicSchedule is the staggered group-refresh schedule of the
// conventional Periodic scheme: the cache's lines are split into Groups
// groups; group g is refreshed at phase g*Period/Groups within every
// retention period, so the whole cache is covered exactly once per period
// with the refresh work spread evenly in time (Section 3.2).
type PeriodicSchedule struct {
	Period int64 // the cell retention period
	Groups int   // number of groups (sub-arrays per bank, from CACTI)
	Lines  int   // total lines in the bank
}

// NewPeriodicSchedule builds the schedule for a bank.
func NewPeriodicSchedule(retention Retention, groups, lines int) PeriodicSchedule {
	if groups <= 0 {
		groups = 1
	}
	return PeriodicSchedule{Period: retention.CellCycles, Groups: groups, Lines: lines}
}

// LinesPerGroup returns the number of lines refreshed in one group sweep.
func (s PeriodicSchedule) LinesPerGroup() int {
	if s.Groups <= 0 {
		return s.Lines
	}
	return (s.Lines + s.Groups - 1) / s.Groups
}

// GroupAt returns which group is scheduled at the k-th firing, and the cycle
// of that firing.  Firings are numbered from 0; firing k happens at
// (k+1)*Period/Groups so the first sweep completes exactly one period after
// reset.
func (s PeriodicSchedule) GroupAt(k int64) (group int, cycle int64) {
	if s.Groups <= 0 {
		return 0, s.Period
	}
	group = int(k % int64(s.Groups))
	interval := s.Period / int64(s.Groups)
	cycle = (k + 1) * interval
	return group, cycle
}

// FiringsUpTo returns how many group firings have deadlines at or before
// cycle `now`.
func (s PeriodicSchedule) FiringsUpTo(now int64) int64 {
	if s.Period <= 0 || s.Groups <= 0 {
		return 0
	}
	interval := s.Period / int64(s.Groups)
	if interval <= 0 {
		return 0
	}
	if now < interval {
		return 0
	}
	return now / interval
}

// FramesUpTo returns how many frames the firings due at or before cycle
// `now` sweep, in O(1): each full round of Groups firings sweeps all Lines
// once, and the r firings of a partial round sweep groups 0..r-1, of which
// only the last group of the bank may be short.
func (s PeriodicSchedule) FramesUpTo(now int64) int64 {
	if s.Groups <= 0 {
		return 0
	}
	k, groups := s.FiringsUpTo(now), int64(s.Groups)
	lines := int64(s.Lines)
	return k/groups*lines + min(k%groups*int64(s.LinesPerGroup()), lines)
}

// GroupRange returns the [start, end) flat line-index range of a group.
func (s PeriodicSchedule) GroupRange(group int) (start, end int) {
	per := s.LinesPerGroup()
	start = group * per
	end = start + per
	if start > s.Lines {
		start = s.Lines
	}
	if end > s.Lines {
		end = s.Lines
	}
	return start, end
}

// BlockCycles returns for how many cycles a group sweep keeps the bank port
// busy: one cycle per line, pipelined (Section 5, "a line can be refreshed
// in a cycle, when done in a pipelined fashion").
func (s PeriodicSchedule) BlockCycles() int64 {
	return int64(s.LinesPerGroup())
}
