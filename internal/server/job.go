// Package server turns the Refrint sweep harness into a long-running
// service: an HTTP API over one bounded, priority-aware pool of simulation
// workers (see internal/sched), plus an in-flight table keyed by sweep that
// deduplicates identical submissions (singleflight), so any number of
// clients asking for the same sweep cost one run.
//
// The unit of work is the simulation cell, not the sweep (cells.go).  An
// admitted sweep enumerates its cells (sweep.Cells); each cell that is
// neither stored nor already in flight becomes one scheduler item,
// inheriting the job's priority class and client label.  An in-flight table
// keyed by sweep.CellKey attaches later sweeps to cells that are queued or
// running — overlapping sweeps, not only identical ones, simulate each
// shared cell once — and promotes a cell to the most urgent class waiting on
// it.  A sweep's last cell assembles its Results (sweep.Assemble).
//
// Submissions carry an optional priority class — interactive (the default
// for POST /v1/sweeps) > batch (the default inside POST /v1/batches) >
// background — and an optional client label for fair-share dequeue between
// tenants.  Because workers take one cell at a time, an interactive sweep
// waits for at most one running cell per worker, never for a whole
// background sweep.  Admission is bounded per class in queued sweeps (HTTP
// 503 beyond the bound), and cancelling a queued job frees its slot
// immediately.
//
// Job lifecycle:
//
//	queued ──▶ running ──▶ done
//	   │          │   └──▶ failed
//	   └──────────┴──────▶ cancelled
//
// Jobs are the client-visible unit; executions are shared.  Two jobs whose
// requests have the same canonical key (sweep.Options.Key) attach to one
// execution entry while it is in flight.  An execution that is
// cancelled, fails or outlives its deadline withdraws from its cells: the
// queued ones no other sweep waits on leave the scheduler, and the running
// ones stop.
//
// Progress is observable two ways: polling (GET /v1/sweeps/{id}) and
// streaming (GET /v1/sweeps/{id}/events, /v1/batches/{id}/events and the
// /v1/events firehose — SSE; see events.go).  Either way the per-execution
// counters are atomics advanced as cells complete, and a publish tick folds
// them into views, metrics and events.
//
// The cell is the only cached unit.  Every server has a store
// (Config.Store, or a memory-only one): each simulated cell is stored, and
// a fresh cell is looked up there before it is queued.  A submission whose
// cells are all stored is born done from them (storedResults), taking no
// admission slot, and a completed sweep leaves a manifest so GET
// /v1/sweeps/{key}/... finds it by key.  With a store on disk all of that
// survives restarts.
package server

import (
	"time"

	"refrint"
	"refrint/internal/sched"
)

// State is the lifecycle state of a job.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one client submission.  All mutable fields are guarded by the
// server mutex; handlers read them through snapshot() only.
type Job struct {
	id      string
	key     string
	request refrint.SweepRequest
	class   sched.Class // the priority class this job was submitted with
	entry   *entry      // the shared execution this job is attached to
	trace   trace       // lifecycle timeline + request trace ID (trace.go)

	state     State
	cacheHit  bool   // born done from stored cells
	reason    string // failure classification: "panic" or "deadline exceeded"
	err       error
	createdAt time.Time
	startedAt time.Time // zero until running
	endedAt   time.Time // zero until terminal

	// final/finalDone/finalTotal freeze the job's progress at its terminal
	// transition: a job cancelled off a still-running shared execution must
	// not keep creeping forward as other jobs' simulations complete.
	final      bool
	finalDone  int
	finalTotal int

	// lastEventDone is the done count most recently published as an SSE
	// progress event (see Server.publishJobProgressLocked).
	lastEventDone int
}

// freezeProgress pins the job's progress counters at the moment it turns
// terminal.  Caller holds the server mutex and has already set the terminal
// state.
func (j *Job) freezeProgress() {
	if j.final || j.entry == nil {
		return
	}
	j.final = true
	j.finalDone = int(j.entry.done.Load())
	j.finalTotal = int(j.entry.total.Load())
	if j.state == StateDone {
		j.finalDone = j.finalTotal
	}
}

// ProgressView is the serialized completion state of a job.
type ProgressView struct {
	// Done and Total count simulations within the sweep.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Percent is 100*Done/Total, rounded down — and clamped to 99 unless
	// the job is done: a sweep's last progress callback fires before export
	// and persistence finish (and a cancelled or failed job may have
	// finished all its simulations), so 100 always means "done".
	Percent int `json:"percent"`
}

// progressView renders simulation progress for a job or batch in state st,
// clamping Percent to 99 unless st is done: 100 always means done — and,
// symmetrically, done always means 100, including an empty or all-cache-hit
// sweep whose Total is 0 (which would otherwise divide to 0 forever).
func progressView(done, total int, st State) ProgressView {
	v := ProgressView{Done: done, Total: total}
	if total > 0 {
		v.Percent = 100 * done / total
		if v.Percent >= 100 && st != StateDone {
			v.Percent = 99
		}
	}
	if st == StateDone {
		v.Percent = 100
	}
	return v
}

// JobView is the JSON form of a job returned by the API.
type JobView struct {
	ID       string       `json:"id"`
	Key      string       `json:"key"`
	TraceID  string       `json:"trace_id"`
	State    State        `json:"state"`
	Priority string       `json:"priority"`
	CacheHit bool         `json:"cache_hit"`
	Progress ProgressView `json:"progress"`
	// Phases is the compact per-phase duration summary (seconds) of the
	// job's lifecycle timeline; GET /v1/sweeps/{id}/trace has the full
	// ordered spans.
	Phases map[string]float64 `json:"phases,omitempty"`
	Error  string             `json:"error,omitempty"`
	// Reason classifies a failed job: "panic" (a simulation or hook
	// panicked and was contained) or "deadline exceeded" (the job outlived
	// its timeout).  Empty for ordinary errors and non-failed states.
	Reason  string               `json:"reason,omitempty"`
	Request refrint.SweepRequest `json:"request"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// snapshot renders the job for the API.  Caller holds the server mutex.
func (j *Job) snapshot() JobView {
	v := JobView{
		ID:        j.id,
		Key:       j.key,
		TraceID:   j.trace.id,
		State:     j.state,
		Priority:  j.class.String(),
		CacheHit:  j.cacheHit,
		Reason:    j.reason,
		Phases:    j.phaseSummary(time.Now()),
		Request:   j.request,
		CreatedAt: j.createdAt,
	}
	if j.entry != nil {
		var done, total int
		if j.final {
			// Terminal jobs are frozen: the shared execution may still be
			// running for other jobs, but this job's progress is history.
			done, total = j.finalDone, j.finalTotal
		} else {
			done, total = int(j.entry.done.Load()), int(j.entry.total.Load())
			if j.state == StateDone {
				done = total
			}
		}
		v.Progress = progressView(done, total, j.state)
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		v.StartedAt = &t
	}
	if !j.endedAt.IsZero() {
		t := j.endedAt
		v.FinishedAt = &t
	}
	return v
}
