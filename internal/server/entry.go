package server

import (
	"sync/atomic"
	"time"

	"refrint"
	"refrint/internal/sched"
	"refrint/internal/sweep"
)

// entry is one shared sweep execution: the singleflight unit that any number
// of jobs with the same canonical key attach to.  It owns no goroutine: its
// simulation cells run as individual scheduler items (see cells.go), and the
// entry collects their runs until the last one completes.  It sits in the
// server's in-flight map (Server.inflight) from admission to its terminal
// state; after that only its jobs hold it.  All fields except the atomic
// progress counters are guarded by the server mutex.
type entry struct {
	key  string
	opts sweep.Options

	// class is the effective scheduling class: the most urgent class among
	// the attached jobs (or aged into by its cells).  The entry's queued
	// cells run at least this urgently.
	class sched.Class

	// state is queued until one of its cells starts (or completes from the
	// store), then running until terminal.  Queued entries are what the
	// per-class admission bounds count (Server.queuedSweeps).
	state State

	// timeout bounds the execution's wall time from the moment the entry
	// starts (0 = none); set at creation from the first submitter's
	// effective timeout_ms — attachers share the run, so they share its
	// deadline.  timer fires the deadline.  reason is the terminal failure
	// classification ("panic" or "deadline exceeded"), empty for ordinary
	// errors and non-failed states.
	timeout time.Duration
	timer   *time.Timer
	reason  string

	// execStart is when the entry started (zero if it never did);
	// finishLocked feeds it into the per-class execution-time histogram.
	execStart time.Time

	// cells[i] is the in-flight cell that computes cell i of the sweep (nil
	// once it has completed); runs[i] receives its run.  pending counts the
	// cells still outstanding: the entry assembles its Results when it
	// reaches zero.
	cells   []*cell
	runs    []sweep.Run
	pending int

	// done/total are the lock-free progress counters, advanced through
	// progress (Server.progressCallback) with a CAS-max.  Readers load them
	// at snapshot/tick time; monotonicity is the callback's invariant.
	done     atomic.Int64 // simulations completed
	total    atomic.Int64 // simulations in the sweep
	progress func(sweep.Progress)

	res *refrint.SweepResults
	err error

	jobs []*Job // every job ever attached (including cancelled ones)
	refs int    // attached jobs still waiting for the result
}
