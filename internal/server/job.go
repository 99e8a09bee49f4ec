// Package server turns the Refrint sweep harness into a long-running
// service: an HTTP API over one bounded, priority-aware pool of simulation
// workers (see internal/sched).
//
// The job is the only execution unit, and the simulation cell the only
// unit of work (cells.go).  An admitted job enumerates its sweep's cells
// (sweep.Cells) and enrols on each of them in the in-flight table keyed by
// sweep.CellKey: a cell already probing, queued or running is joined, any
// other is created, looked up in the store and, on a miss, queued as one
// scheduler item with the job's priority class and client label.  Two
// identical submissions take exactly the path two overlapping ones do, so
// any number of clients asking for the same cells cost one simulation per
// cell.  A cell runs at the most urgent class among the jobs waiting on
// it.  A job's last cell assembles its Results (sweep.Assemble).
//
// Submissions carry an optional priority class — interactive (the default
// for POST /v1/sweeps) > batch (the default inside POST /v1/batches) >
// background — and an optional client label for fair-share dequeue between
// tenants.  Because workers take one cell at a time, an interactive sweep
// waits for at most one running cell per worker, never for a whole
// background sweep.  Admission has one rule, and one path for both POST
// /v1/sweeps and POST /v1/batches (admit): a lone sweep is a plan of one
// job, a batch a plan of one job per request, and a plan is admitted whole
// or not at all.  Every queued job holds one slot of its class until one
// of its cells starts (HTTP 503 when the class is full), and cancelling a
// queued job frees its slot immediately.
//
// Job lifecycle:
//
//	queued ──▶ running ──▶ done
//	   │          │   └──▶ failed
//	   └──────────┴──────▶ cancelled
//
// Each job owns its class, admission slot, deadline, collected runs and
// progress.  A job that is cancelled, fails or outlives its own deadline
// withdraws from its cells: the queued ones no other job waits on leave the
// scheduler, the running ones stop, and the shared ones fall back to the
// most urgent class still waiting.  A terminal job is detached from its
// cells, so its progress stays where it ended.
//
// Progress is observable two ways: polling (GET /v1/sweeps/{id}) and
// streaming (GET /v1/sweeps/{id}/events, /v1/batches/{id}/events and the
// /v1/events firehose — SSE; see events.go).  Either way it is advanced as
// cells complete, under the server mutex, and each transition — admission,
// start, a completed cell, the end — publishes its event there and then.
//
// The cell is the only cached unit.  Every server has a store
// (Config.Store, or a memory-only one): each simulated cell is stored, and
// a fresh cell is looked up there before it is queued.  A submission whose
// cells are all stored is born done from them (storedResults), taking no
// admission slot.  Every job that ends done leaves a manifest so GET
// /v1/sweeps/{key}/... finds it by key.  With a store on disk all of that
// survives restarts.
package server

import (
	"time"

	"refrint"
	"refrint/internal/sched"
	"refrint/internal/sweep"
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

// Job is one client submission and the unit of execution.  All mutable
// fields are guarded by the server mutex; handlers read them through
// snapshot() only.
type Job struct {
	id      string
	key     string
	request refrint.SweepRequest
	opts    sweep.Options
	// class is the job's scheduling class, fixed at admission.  A queued
	// job holds one admission slot of this class (Server.queuedSweeps).
	class sched.Class
	trace trace // lifecycle timeline + request trace ID (trace.go)

	state     State
	cacheHit  bool   // born done from stored cells
	reason    string // failure classification: "panic" or "deadline exceeded"
	err       error
	createdAt time.Time
	startedAt time.Time // zero until running
	endedAt   time.Time // zero until terminal

	// timeout bounds the job's wall time from the moment it starts (0 =
	// none); timer fires that deadline.
	timeout time.Duration
	timer   *time.Timer

	// cells[i] is the in-flight cell that computes cell i of the sweep (nil
	// once it has been delivered); runs[i] receives its run.  pending counts
	// the cells still outstanding: the job assembles its Results when it
	// reaches zero.  All three are released at the terminal transition.
	cells   []*cell
	runs    []sweep.Run
	pending int

	// done/total count the sweep's simulations delivered and in all.
	done  int
	total int
	res   *refrint.SweepResults

	// batch is the batch the job was submitted in, whose events its
	// transitions publish too; nil outside a batch and once terminal.
	batch *Batch
}

// ProgressView is the serialized completion state of a job.
type ProgressView struct {
	// Done and Total count simulations within the sweep.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Percent is 100*Done/Total, rounded down — and clamped to 99 unless
	// the job is done: a sweep's last cell completes before assembly and
	// persistence finish (and a cancelled or failed job may have finished
	// all its simulations), so 100 always means "done".
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
		Progress:  progressView(j.done, j.total, j.state),
		Reason:    j.reason,
		Phases:    j.traceView(time.Now()).phaseSummary(),
		Request:   j.request,
		CreatedAt: j.createdAt,
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
