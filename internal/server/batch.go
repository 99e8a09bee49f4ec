package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"refrint"
	"refrint/internal/sched"
)

// Batch groups the jobs of one atomic multi-sweep submission behind a single
// handle.  It holds its jobs, so aggregation keeps working after they age
// out of the pollable history; a job the history forgets releases its
// results (see submitJobLocked), so a batch pins none.  The server mutex
// guards all of it.
type Batch struct {
	id        string
	class     sched.Class
	client    string
	jobs      []*Job
	createdAt time.Time

	// lastState is the aggregate state of the batch's last state event; a
	// job's change publishes a state event only when it moves the aggregate
	// off it (see Server.publishBatchLocked).
	lastState State
}

// BatchRequest is the JSON body of POST /v1/batches: N sweep requests
// submitted atomically — either every request is admitted (sweeps served
// from stored cells and fresh jobs alike) or none is.
type BatchRequest struct {
	// Priority is the default scheduling class of the batch's requests
	// ("batch" when empty); a request's own priority field overrides it.
	Priority string `json:"priority,omitempty"`
	// Client labels the submitting tenant for fair-share scheduling; a
	// request's own client field overrides it.
	Client string `json:"client,omitempty"`
	// Requests are the sweeps to submit.
	Requests []refrint.SweepRequest `json:"requests"`
}

// BatchView is the aggregated JSON form of a batch.
type BatchView struct {
	ID string `json:"id"`
	// State aggregates the member jobs: queued until any starts, running
	// while any is live, and once all are terminal: failed if any failed,
	// else cancelled if any was cancelled, else done.
	State    State  `json:"state"`
	Priority string `json:"priority"`
	Client   string `json:"client,omitempty"`
	// Counts tallies member jobs by lifecycle state.
	Counts map[string]int `json:"counts"`
	// Progress sums simulation progress across member jobs.
	Progress  ProgressView `json:"progress"`
	Jobs      []JobView    `json:"jobs"`
	CreatedAt time.Time    `json:"created_at"`
}

// batchTally folds member job states and simulation counts into a batch's
// aggregate state and progress (see BatchView.State).
type batchTally struct {
	done, total                           int
	live, anyFailed, anyCancelled, anyRan bool
}

func (t *batchTally) add(st State, done, total int) {
	t.done += done
	t.total += total
	switch st {
	case StateFailed:
		t.anyFailed = true
	case StateCancelled:
		t.anyCancelled = true
	}
	if !st.Terminal() {
		t.live = true
	}
	// Cancelled members don't count as started: a queued job can be
	// cancelled without a single simulation having run.
	if st == StateRunning || st == StateDone || st == StateFailed {
		t.anyRan = true
	}
}

func (t *batchTally) state() State {
	switch {
	case !t.live && t.anyFailed:
		return StateFailed
	case !t.live && t.anyCancelled:
		return StateCancelled
	case !t.live:
		return StateDone
	case t.anyRan:
		return StateRunning
	default:
		return StateQueued
	}
}

// tallyLocked is the batch's aggregate state and summed progress, read off
// its jobs without rendering them.  Caller holds the server mutex.
func (b *Batch) tallyLocked() (st State, done, total int) {
	var t batchTally
	for _, j := range b.jobs {
		t.add(j.state, j.done, j.total)
	}
	return t.state(), t.done, t.total
}

// snapshotLocked renders the batch for the API.  Caller holds the server mutex.
func (b *Batch) snapshotLocked() BatchView {
	v := BatchView{
		ID:        b.id,
		Priority:  b.class.String(),
		Client:    b.client,
		Counts:    make(map[string]int, 5),
		CreatedAt: b.createdAt,
	}
	for _, j := range b.jobs {
		v.Jobs = append(v.Jobs, j.snapshot())
		v.Counts[string(j.state)]++
	}
	var done, total int
	v.State, done, total = b.tallyLocked()
	v.Progress = progressView(done, total, v.State)
	return v
}

// viewLocked is snapshotLocked as an event payload.  Caller holds the server
// mutex.
func (b *Batch) viewLocked() any { return b.snapshotLocked() }

// handleSubmitBatch implements POST /v1/batches: every request is planned
// first, and the plan is admitted whole or not at all (see admit), so a
// batch either lands whole or leaves no trace (no half-admitted campaigns
// to clean up).
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	received, reqID := time.Now(), requestTraceID(r)
	w.Header().Set("X-Request-Id", reqID)
	var breq BatchRequest
	if !decodeBody(w, r, 8<<20, &breq) {
		return
	}
	class, plan, err := s.planBatch(breq, reqID, received)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var view BatchView
	//refrint:allow lockcheck -- admit calls render in the hold of the server mutex that admits the jobs
	if !s.admit(w, plan, func() { view = s.createBatchLocked(breq.Client, class, plan) }) {
		return
	}
	s.logf("batch %s: %d jobs (%s)", view.ID, len(view.Jobs), view.Priority)
	status := http.StatusAccepted
	if view.State == StateDone {
		status = http.StatusOK // every member was served from stored cells
	}
	w.Header().Set("Location", "/v1/batches/"+view.ID)
	writeJSON(w, status, view)
}

// planBatch resolves the batch's default class (batch when it names no
// priority) and plans every request, each defaulting to the batch's client
// and class.  Member i's trace ID is reqID.i, so one batch fans out as
// reqID.0, reqID.1, ... in logs and traces.  Every error is answered 400.
func (s *Server) planBatch(breq BatchRequest, reqID string, received time.Time) (sched.Class, []*Job, error) {
	if len(breq.Requests) == 0 {
		return 0, nil, errors.New("batch needs at least one request")
	}
	if err := validateClient(breq.Client); err != nil {
		return 0, nil, err
	}
	defClass, err := classFor(breq.Priority, sched.Batch)
	if err != nil {
		return 0, nil, err
	}
	plan := make([]*Job, len(breq.Requests))
	for i, req := range breq.Requests {
		if req.Client == "" {
			req.Client = breq.Client
		}
		if plan[i], err = s.planJob(req, defClass, fmt.Sprintf("%s.%d", reqID, i), received); err != nil {
			return 0, nil, fmt.Errorf("requests[%d]: %w", i, err)
		}
	}
	return defClass, plan, nil
}

// createBatchLocked groups a batch's freshly admitted jobs behind one
// handle of the batch's client and default class, announces it, bounds the
// batch history and returns the view.  Caller holds the server mutex.
func (s *Server) createBatchLocked(client string, class sched.Class, jobs []*Job) BatchView {
	s.nextBatchID++
	b := &Batch{
		id:        fmt.Sprintf("batch-%06d", s.nextBatchID),
		class:     class,
		client:    client,
		jobs:      jobs,
		createdAt: time.Now(),
	}
	for _, job := range jobs {
		if !job.state.Terminal() {
			job.batch = b // its later transitions publish on the batch topic too
		}
	}
	s.batches[b.id] = b
	s.batchOrder = append(s.batchOrder, b.id)
	view := b.snapshotLocked()
	// Members publish only their changes from here on; the creation itself
	// is announced to firehose subscribers, with an immediate terminal for a
	// batch born done off stored cells.
	b.lastState = view.State
	payload := func() any { return view }
	s.bus.publish(eventState, batchTopic(b.id), b.client, b.class, payload)
	if view.State.Terminal() {
		s.bus.publish(string(view.State), batchTopic(b.id), b.client, b.class, payload)
	}
	// Forget the oldest batches beyond the history bound whose jobs are all
	// terminal.
	s.batchOrder = evictOldest(s.batchOrder, s.cfg.BatchHistory, s.batches, func(old *Batch) bool {
		for _, j := range old.jobs {
			if !j.state.Terminal() {
				return false
			}
		}
		return true
	})
	return view
}

// handleGetBatch implements GET /v1/batches/{id}: aggregated poll.
func (s *Server) handleGetBatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	b, ok := s.batches[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no batch %q", id)
		return
	}
	view := b.snapshotLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleCancelBatch implements DELETE /v1/batches/{id}: cancel every
// non-terminal member job.  Queued cells leave the scheduler (and queued
// jobs free their admission slots) immediately; running cells no other job
// waits on are stopped.
func (s *Server) handleCancelBatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	b, ok := s.batches[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no batch %q", id)
		return
	}
	for _, j := range b.jobs {
		s.finishLocked(j, nil, context.Canceled)
	}
	view := b.snapshotLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}
