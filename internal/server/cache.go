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
// entry collects their runs until the last one completes.  After it
// completes successfully it doubles as the cache record for that key.  All
// fields except the atomic progress counters are guarded by the server
// mutex.
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
	// revived marks a done entry restored from the persistent store, so
	// jobs served from it trace the revived (not cache-hit) shortcut.
	execStart time.Time
	revived   bool

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

// resultCache indexes executions by canonical sweep key.  It holds both
// in-flight entries (for singleflight deduplication) and completed ones (for
// result reuse).  Eviction beyond the capacity is priority-aware: completed
// background-class results go before batch before interactive, oldest first
// within a class, so a flood of low-priority completions cannot wash an
// interactive tenant's results out of the cache.  Not safe for concurrent
// use: the server mutex guards it.
type resultCache struct {
	max     int
	entries map[string]*entry
	// completed holds successfully-completed keys in completion order, one
	// list per scheduling class of the execution that produced them.
	completed [sched.NumClasses][]string
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, entries: make(map[string]*entry)}
}

// completedLen counts tracked completions across all classes.
func (c *resultCache) completedLen() int {
	n := 0
	for _, l := range c.completed {
		n += len(l)
	}
	return n
}

// lookup returns the live or completed entry for a key, if any.  Entries
// that failed or were cancelled are dropped at their terminal transition, so
// a miss means a caller should start a fresh execution.
func (c *resultCache) lookup(key string) (*entry, bool) {
	e, ok := c.entries[key]
	return e, ok
}

// put registers a new in-flight entry.
func (c *resultCache) put(e *entry) { c.entries[e.key] = e }

// markCompleted records a successful completion, evicting completed entries
// beyond capacity — least urgent class first, oldest within a class.  It
// returns the class of every entry actually evicted, for the server's
// eviction-by-class counters.
func (c *resultCache) markCompleted(e *entry) (evicted []sched.Class) {
	if c.entries[e.key] != e {
		return nil // superseded by a newer execution of the same key
	}
	c.completed[e.class] = append(c.completed[e.class], e.key)
	for c.max > 0 && c.completedLen() > c.max {
		class := sched.Class(-1)
		for cl := sched.NumClasses - 1; cl >= 0; cl-- {
			if len(c.completed[cl]) > 0 {
				class = sched.Class(cl)
				break
			}
		}
		if class < 0 {
			break
		}
		oldest := c.completed[class][0]
		c.completed[class] = c.completed[class][1:]
		if old, ok := c.entries[oldest]; ok && old.state == StateDone {
			delete(c.entries, oldest)
			evicted = append(evicted, class)
		}
	}
	return evicted
}

// drop removes an entry that will never yield a result (failed or
// cancelled), so the next identical submission re-executes.  Identity is
// checked: a newer entry under the same key is left alone.
func (c *resultCache) drop(e *entry) {
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
}

// stats returns how many entries are cached (done) and in flight.
func (c *resultCache) stats() (cached, inflight int) {
	for _, e := range c.entries {
		if e.state == StateDone {
			cached++
		} else {
			inflight++
		}
	}
	return
}
