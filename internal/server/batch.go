package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"refrint"
	"refrint/internal/sched"
	"refrint/internal/sweep"
)

// Batch groups the jobs of one atomic multi-sweep submission behind a single
// handle.  Live members are held as Job pointers so aggregation keeps
// working even after individual jobs age out of the pollable history; a
// member that reaches a terminal state is frozen into its JobView and the
// pointer dropped, so batches never pin result-bearing jobs beyond the job
// history's own bound.  The server mutex guards all of it.
type Batch struct {
	id        string
	class     sched.Class
	client    string
	members   []batchMember
	createdAt time.Time

	// lastState is the batch state the event bus last published; a member's
	// change publishes a state event only when it moves the aggregate off
	// it (see Server.publishBatchLocked).
	lastState State
}

// batchMember is one job of a batch: live (job != nil) or frozen
// (view/trace).
type batchMember struct {
	job   *Job
	view  JobView
	trace TraceView
}

// freezeLocked pins the member's terminal view and trace and drops the Job
// pointer.  Caller holds the server mutex and has checked the job is
// terminal.
func (m *batchMember) freezeLocked() {
	m.view = m.job.snapshot()
	m.trace = m.job.traceView(m.job.endedAt)
	m.job = nil
}

// memberViewLocked returns the member's current view, freezing it on the first
// sight of a terminal state.  Caller holds the server mutex.
func (m *batchMember) memberViewLocked() JobView {
	if m.job != nil {
		if v := m.job.snapshot(); !v.State.Terminal() {
			return v
		}
		m.freezeLocked()
	}
	return m.view
}

// memberTrace returns the member's lifecycle timeline, live or frozen.
// Caller holds the server mutex.
func (m *batchMember) memberTrace(now time.Time) TraceView {
	if m.job != nil {
		return m.job.traceView(now)
	}
	return m.trace
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
// its members without rendering (or freezing) them.  Caller holds the server
// mutex.
func (b *Batch) tallyLocked() (st State, done, total int) {
	var t batchTally
	for i := range b.members {
		m := &b.members[i]
		if j := m.job; j != nil {
			t.add(j.state, j.done, j.total)
		} else {
			t.add(m.view.State, m.view.Progress.Done, m.view.Progress.Total)
		}
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
	var t batchTally
	for i := range b.members {
		jv := b.members[i].memberViewLocked()
		v.Jobs = append(v.Jobs, jv)
		v.Counts[string(jv.State)]++
		t.add(jv.State, jv.Progress.Done, jv.Progress.Total)
	}
	v.State = t.state()
	v.Progress = progressView(t.done, t.total, v.State)
	return v
}

// handleSubmitBatch implements POST /v1/batches.  Admission is atomic: every
// request is validated and the admission capacity for all its jobs is
// checked before any job is created, so a batch either lands whole or
// leaves no trace (no half-admitted campaigns to clean up).
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	received := time.Now()
	reqID := requestTraceID(r)
	w.Header().Set("X-Request-Id", reqID)
	var breq BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if len(breq.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "batch needs at least one request")
		return
	}
	if err := validateClient(breq.Client); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defClass, err := classFor(breq.Priority, sched.Batch)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	type planned struct {
		req     refrint.SweepRequest
		opts    sweep.Options
		key     string
		class   sched.Class
		timeout time.Duration
	}
	plan := make([]planned, 0, len(breq.Requests))
	for i, sub := range breq.Requests {
		if sub.Client == "" {
			sub.Client = breq.Client
		}
		if err := validateClient(sub.Client); err != nil {
			writeError(w, http.StatusBadRequest, "requests[%d]: %v", i, err)
			return
		}
		class, err := classFor(sub.Priority, defClass)
		if err != nil {
			writeError(w, http.StatusBadRequest, "requests[%d]: %v", i, err)
			return
		}
		opts, err := sub.Options()
		if err != nil {
			writeError(w, http.StatusBadRequest, "requests[%d]: %v", i, err)
			return
		}
		// The server cap applies per member, exactly like a lone submission.
		plan = append(plan, planned{req: sub, opts: opts, key: opts.Key(), class: class,
			timeout: s.effectiveTimeout(sub.TimeoutMS)})
	}
	// All members validated together; each gets its own trace keyed off the
	// request's trace ID so one batch submission fans out as reqID.0,
	// reqID.1, ... in logs and trace timelines.
	validated := time.Now()
	// One token per request, charged to each request's effective client,
	// all-or-nothing across the batch.  The charge lands here, at submission
	// time — members served from stored cells still count; this is a
	// submission-rate limit — but every path below that turns the whole
	// batch away with 503 refunds `charged`, so a capacity-rejected batch
	// burns nobody's tokens.
	var charged map[string]int
	if s.quota != nil {
		charged = make(map[string]int, 1)
		for _, p := range plan {
			charged[p.req.Client]++
		}
		if ok, denied, wait := s.quota.allowBatch(charged); !ok {
			w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(wait)))
			writeError(w, http.StatusTooManyRequests,
				"client %q is over its submission rate, retry later", denied)
			return
		}
	}
	// Read the members whose cells are all stored outside the lock, like
	// handleSubmit, once per distinct key: they are born done and consume
	// no queue capacity.
	stored := make(map[string]*refrint.SweepResults, len(plan))
	for _, p := range plan {
		if _, seen := stored[p.key]; !seen {
			res, _ := s.storedResults(p.opts)
			stored[p.key] = res
			if res != nil {
				s.recordSweep(p.key, p.opts, int(p.class))
			}
		}
	}

	s.mu.Lock()
	if s.closed || s.draining {
		retryAfter := s.drainRetryAfter
		s.mu.Unlock()
		s.quota.refund(charged)
		if retryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprint(retryAfter))
		}
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	// Check capacity for every member at once: each one not born done holds
	// one slot of its own class, duplicates included.  The check and the
	// submits run under one hold of s.mu, which every change to the
	// admission counts (cells starting, aging) also takes, so every member
	// fits.
	var need [sched.NumClasses]int
	for _, p := range plan {
		if stored[p.key] == nil {
			need[p.class]++
		}
	}
	for class, n := range need {
		// Skip classes the batch does not touch: a full class must not
		// veto batches that need nothing from it.
		if n == 0 {
			continue
		}
		if free := s.cfg.ClassQueueDepth[class] - s.queuedSweeps[class]; n > free {
			s.mu.Unlock()
			s.quota.refund(charged)
			w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterHint(sched.Class(class))))
			writeError(w, http.StatusServiceUnavailable,
				"%s queue has %d free slots, batch needs %d; retry later",
				sched.Class(class), free, n)
			return
		}
	}

	s.nextBatchID++
	b := &Batch{
		id:        fmt.Sprintf("batch-%06d", s.nextBatchID),
		class:     defClass,
		client:    breq.Client,
		createdAt: time.Now(),
	}
	for i, p := range plan {
		tr := trace{id: fmt.Sprintf("%s.%d", reqID, i)}
		tr.mark(phaseReceived, received)
		tr.mark(phaseValidated, validated)
		job := s.submitJobLocked(p.req, p.opts, p.key, p.class, p.timeout, tr, stored[p.key])
		if !job.state.Terminal() {
			job.batch = b // its later transitions publish on the batch topic too
		}
		b.members = append(b.members, batchMember{job: job})
	}
	s.batches[b.id] = b
	s.batchOrder = append(s.batchOrder, b.id)
	view := b.snapshotLocked()
	// Members publish only their changes from here on; the creation itself
	// is announced to firehose subscribers, with an immediate terminal for a
	// batch born done off stored cells.
	b.lastState = view.State
	if s.bus.hasTopic(batchTopic(b.id)) {
		s.bus.publish(eventState, batchTopic(b.id), b.client, b.class, int64(view.Progress.Done), view)
		if view.State.Terminal() {
			s.bus.publish(string(view.State), batchTopic(b.id), b.client, b.class, int64(view.Progress.Done), view)
		}
	}
	s.evictBatchesLocked()
	s.mu.Unlock()
	s.probeStore()
	s.logf("batch %s: %d jobs (%s)", b.id, len(view.Jobs), view.Priority)

	status := http.StatusAccepted
	if view.State == StateDone {
		status = http.StatusOK // every member was served from stored cells
	}
	w.Header().Set("Location", "/v1/batches/"+view.ID)
	writeJSON(w, status, view)
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
	for i := range b.members {
		if j := b.members[i].job; j != nil {
			s.finishLocked(j, nil, context.Canceled)
		}
	}
	view := b.snapshotLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// evictBatchesLocked freezes every terminal member — batches must not pin
// result-bearing jobs past the job history's bound even when nobody polls
// them, so freezing runs on every batch submission, not only under history
// pressure — then forgets the oldest terminal batches beyond the history
// bound.  Live batches are never evicted.  Caller holds the server mutex.
func (s *Server) evictBatchesLocked() {
	terminal := make(map[string]bool, len(s.batchOrder))
	for _, id := range s.batchOrder {
		b := s.batches[id]
		done := true
		for i := range b.members {
			m := &b.members[i]
			if m.job != nil && m.job.state.Terminal() {
				m.freezeLocked()
			}
			if m.job != nil {
				done = false
			}
		}
		terminal[id] = done
	}
	excess := len(s.batchOrder) - s.cfg.BatchHistory
	if excess <= 0 {
		return
	}
	kept := s.batchOrder[:0]
	for _, id := range s.batchOrder {
		if excess > 0 && terminal[id] {
			delete(s.batches, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.batchOrder = kept
}
