package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"time"
)

// This file is the job-lifecycle tracing layer: every job carries a
// monotonic span timeline from the moment its request hit the handler to
// its terminal state, exposed at GET /v1/sweeps/{id}/trace (and aggregated
// at GET /v1/batches/{id}/trace), summarized as a compact phases map in job
// views, and stamped with a request/trace ID that flows through structured
// logs and SSE events.
//
// The timeline is a list of marks, each opening the phase it names; a
// phase's duration runs until the next mark (the terminal mark has zero
// duration), so the durations always sum exactly to the traced wall time.
// The straight-line path is
//
//	received -> validated -> admitted -> queued -> executing -> persisting
//	         -> done
//
// with shortcuts where the pipeline skips work: a submission whose cells are
// all stored marks cache-hit and goes straight to done, and a job cancelled
// while queued jumps from queued to cancelled.  A job that joins a cell
// already running executes the moment it is queued.

// Lifecycle phase names, in pipeline order.  Terminal marks reuse the job
// State strings ("done", "failed", "cancelled").
const (
	phaseReceived   = "received"          // request hit the handler
	phaseValidated  = "validated"         // body decoded, labels/options resolved
	phaseAdmitted   = "admitted"          // past quota and capacity; job exists
	phaseQueued     = "queued"            // waiting in a scheduler queue
	phaseExecuting  = "executing"         // simulations running
	phasePersisting = "persisting"        // completed sweep's manifest being written to the store
	phaseCacheHit   = "cache-hit"         // answered from stored cells
	phaseDeadline   = "deadline-exceeded" // job hit its timeout (precedes the failed mark)
)

// spanMark opens one phase of a job's timeline at one instant.
type spanMark struct {
	phase string
	at    time.Time
}

// trace is one job's lifecycle timeline plus the request/trace ID it is
// stamped with.  Marks are appended by the single goroutine handling the
// request until the job exists, and under the server mutex after.
type trace struct {
	id    string
	marks []spanMark
}

// mark appends a phase transition.  Timestamps are clamped to be
// non-decreasing, so the exposed timeline is monotonic even if the wall
// clock is not.
func (t *trace) mark(phase string, at time.Time) {
	if n := len(t.marks); n > 0 && at.Before(t.marks[n-1].at) {
		at = t.marks[n-1].at
	}
	t.marks = append(t.marks, spanMark{phase: phase, at: at})
}

// newTraceID mints a random 64-bit hex trace ID.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "trace-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// requestTraceID returns the trace ID for one inbound request: the caller's
// X-Request-Id header when it passes the same bounds as client labels (so
// arbitrary wire input cannot grow logs or responses), a fresh random ID
// otherwise.
func requestTraceID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && validateClient(id) == nil {
		return id
	}
	return newTraceID()
}

// TraceSpan is one phase of a job's timeline as exposed by the API.
type TraceSpan struct {
	Phase string    `json:"phase"`
	At    time.Time `json:"at"`
	// Seconds is how long the job spent in this phase: until the next
	// span's timestamp, or (for the last span of a live job) until now.
	// Terminal spans have zero duration, so the spans of a finished job sum
	// exactly to TotalSeconds.
	Seconds float64 `json:"seconds"`
}

// TraceView is the payload of GET /v1/sweeps/{id}/trace.
type TraceView struct {
	ID           string      `json:"id"`
	TraceID      string      `json:"trace_id"`
	State        State       `json:"state"`
	Spans        []TraceSpan `json:"spans"`
	TotalSeconds float64     `json:"total_seconds"`
}

// BatchTraceView is the payload of GET /v1/batches/{id}/trace: every member
// job's timeline under the batch's aggregate state.
type BatchTraceView struct {
	ID     string      `json:"id"`
	State  State       `json:"state"`
	Traces []TraceView `json:"traces"`
}

// traceView renders the job's timeline.  Caller holds the server mutex.
func (j *Job) traceView(now time.Time) TraceView {
	v := TraceView{ID: j.id, TraceID: j.trace.id, State: j.state}
	marks := j.trace.marks
	if len(marks) == 0 {
		return v
	}
	v.Spans = make([]TraceSpan, len(marks))
	for i, m := range marks {
		end := m.at // terminal (or freshly opened) span: zero duration
		if i+1 < len(marks) {
			end = marks[i+1].at
		} else if !j.state.Terminal() && now.After(m.at) {
			end = now // the last phase of a live job is still running
		}
		v.Spans[i] = TraceSpan{Phase: m.phase, At: m.at, Seconds: end.Sub(m.at).Seconds()}
	}
	last := marks[len(marks)-1].at
	if !j.state.Terminal() && now.After(last) {
		last = now
	}
	v.TotalSeconds = last.Sub(marks[0].at).Seconds()
	return v
}

// phaseSummary renders the compact phase-duration map embedded in job views
// and terminal log lines: the timeline's span durations summed by phase.
func (v TraceView) phaseSummary() map[string]float64 {
	if len(v.Spans) == 0 {
		return nil
	}
	out := make(map[string]float64, len(v.Spans))
	for _, sp := range v.Spans {
		out[sp.Phase] += sp.Seconds
	}
	return out
}

// handleJobTrace implements GET /v1/sweeps/{id}/trace.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	v := job.traceView(time.Now())
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

// handleBatchTrace implements GET /v1/batches/{id}/trace.
func (s *Server) handleBatchTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	b, ok := s.batches[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no batch %q", id)
		return
	}
	now := time.Now()
	v := BatchTraceView{ID: b.id, State: b.snapshotLocked().State}
	for _, j := range b.jobs {
		v.Traces = append(v.Traces, j.traceView(now))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}
