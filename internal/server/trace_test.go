package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"refrint"
)

// getTrace fetches one job's lifecycle timeline.
func (h *harness) getTrace(id string) TraceView {
	h.t.Helper()
	var v TraceView
	resp := h.do("GET", "/v1/sweeps/"+id+"/trace", nil, &v)
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("GET trace %s: status %d", id, resp.StatusCode)
	}
	return v
}

// checkTimeline asserts the trace invariants every job must satisfy: a
// non-empty monotonic span sequence starting at received, and (for terminal
// jobs) phase durations that sum exactly to the traced wall time.
func checkTimeline(t *testing.T, v TraceView, terminal bool) {
	t.Helper()
	if len(v.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	if v.Spans[0].Phase != phaseReceived {
		t.Fatalf("first phase = %q, want %q", v.Spans[0].Phase, phaseReceived)
	}
	sum := 0.0
	for i, sp := range v.Spans {
		if sp.Seconds < 0 {
			t.Fatalf("span %d (%s) has negative duration %v", i, sp.Phase, sp.Seconds)
		}
		if i > 0 && sp.At.Before(v.Spans[i-1].At) {
			t.Fatalf("timeline not monotonic: span %d (%s) at %v before span %d (%s) at %v",
				i, sp.Phase, sp.At, i-1, v.Spans[i-1].Phase, v.Spans[i-1].At)
		}
		sum += sp.Seconds
	}
	if terminal {
		if last := v.Spans[len(v.Spans)-1]; last.Seconds != 0 {
			t.Fatalf("terminal span %q has duration %v, want 0", last.Phase, last.Seconds)
		}
		if math.Abs(sum-v.TotalSeconds) > 1e-6 {
			t.Fatalf("span durations sum to %v, want total %v", sum, v.TotalSeconds)
		}
	}
}

// phases extracts the ordered phase names of a trace.
func phases(v TraceView) []string {
	out := make([]string, len(v.Spans))
	for i, sp := range v.Spans {
		out[i] = sp.Phase
	}
	return out
}

// TestTraceExecutedJob walks the straight-line pipeline: a fresh submission
// that queues, executes and completes must trace every phase in order.
func TestTraceExecutedJob(t *testing.T) {
	h := newHarness(t, Config{})
	view, _ := h.submit(tinyRequest(1))
	if view.TraceID == "" {
		t.Fatal("job view has no trace_id")
	}
	done := h.waitState(view.ID, StateDone)

	tr := h.getTrace(view.ID)
	checkTimeline(t, tr, true)
	if tr.TraceID != view.TraceID {
		t.Fatalf("trace_id drifted: trace says %q, job view said %q", tr.TraceID, view.TraceID)
	}
	got := strings.Join(phases(tr), ",")
	for _, phase := range []string{phaseReceived, phaseValidated, phaseAdmitted, phaseQueued, phaseExecuting, string(StateDone)} {
		if !strings.Contains(got+",", phase+",") {
			t.Errorf("executed job timeline %q missing phase %q", got, phase)
		}
	}
	if last := tr.Spans[len(tr.Spans)-1].Phase; last != string(StateDone) {
		t.Fatalf("last phase = %q, want done", last)
	}
	// The compact summary in the job view covers the same phases.
	if done.Phases == nil {
		t.Fatal("done job view has no phases summary")
	}
	if _, ok := done.Phases[phaseExecuting]; !ok {
		t.Fatalf("phases summary %v missing %q", done.Phases, phaseExecuting)
	}
}

// TestTraceCacheHit covers the born-terminal shortcut: a resubmission of a
// completed sweep traces received -> validated -> admitted -> cache-hit ->
// done, never touching the scheduler phases.
func TestTraceCacheHit(t *testing.T) {
	h := newHarness(t, Config{})
	first, _ := h.submit(tinyRequest(2))
	h.waitState(first.ID, StateDone)

	hit, status := h.submit(tinyRequest(2))
	if status != http.StatusOK || !hit.CacheHit {
		t.Fatalf("resubmission: status %d cache_hit %v, want 200/true", status, hit.CacheHit)
	}
	tr := h.getTrace(hit.ID)
	checkTimeline(t, tr, true)
	want := []string{phaseReceived, phaseValidated, phaseAdmitted, phaseCacheHit, string(StateDone)}
	if got := phases(tr); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("cache-hit timeline = %v, want %v", got, want)
	}
	if tr.TraceID == first.TraceID {
		t.Fatal("distinct submissions share a trace ID")
	}
}

// TestTraceCancelledJob covers the queued -> cancelled jump: a job cancelled
// before any worker picks it up must trace its queue wait and terminate with
// cancelled, with no executing phase.
func TestTraceCancelledJob(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Workers: 1, Execute: exec.fn})
	h.submit(tinyRequest(3))
	<-exec.started // occupy the only worker

	queued, _ := h.submit(tinyRequest(4))
	h.do("DELETE", "/v1/sweeps/"+queued.ID, nil, nil)

	tr := h.getTrace(queued.ID)
	checkTimeline(t, tr, true)
	got := strings.Join(phases(tr), ",")
	if !strings.Contains(got, phaseQueued) {
		t.Fatalf("cancelled-while-queued timeline %q missing %q", got, phaseQueued)
	}
	if strings.Contains(got, phaseExecuting) {
		t.Fatalf("cancelled-while-queued timeline %q contains %q", got, phaseExecuting)
	}
	if last := tr.Spans[len(tr.Spans)-1].Phase; last != string(StateCancelled) {
		t.Fatalf("last phase = %q, want cancelled", last)
	}
	close(exec.release)
}

// TestTraceRequestID verifies X-Request-Id propagation: a well-formed caller
// ID becomes the job's trace ID (echoed on the response), while one that
// fails wire-input validation is replaced by a fresh random ID rather than
// stored or echoed.
func TestTraceRequestID(t *testing.T) {
	h := newHarness(t, Config{})

	body, _ := json.Marshal(tinyRequest(5))
	req, _ := http.NewRequest("POST", h.ts.URL+"/v1/sweeps", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "caller-trace-42")
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.TraceID != "caller-trace-42" {
		t.Fatalf("trace_id = %q, want the caller's X-Request-Id", view.TraceID)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "caller-trace-42" {
		t.Fatalf("response X-Request-Id = %q, want echo", got)
	}

	body, _ = json.Marshal(tinyRequest(6))
	req, _ = http.NewRequest("POST", h.ts.URL+"/v1/sweeps", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "spaces are invalid")
	resp, err = h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	view = JobView{}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.TraceID == "spaces are invalid" || view.TraceID == "" {
		t.Fatalf("invalid X-Request-Id handling: trace_id = %q, want a fresh random ID", view.TraceID)
	}
}

// TestBatchTrace covers the aggregated endpoint: every member carries its
// own timeline under a shared request ID with per-member suffixes, and the
// timelines survive a later batch submission.
func TestBatchTrace(t *testing.T) {
	h := newHarness(t, Config{})
	var bv BatchView
	resp := h.do("POST", "/v1/batches", BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(7), tinyRequest(8)},
	}, &bv)
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("batch response has no X-Request-Id")
	}
	h.waitBatchState(bv.ID, StateDone)
	// A later batch submission runs the batch-history eviction.
	h.do("POST", "/v1/batches", BatchRequest{Requests: []refrint.SweepRequest{tinyRequest(7)}}, nil)

	var btv BatchTraceView
	r2 := h.do("GET", "/v1/batches/"+bv.ID+"/trace", nil, &btv)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("GET batch trace: status %d", r2.StatusCode)
	}
	if len(btv.Traces) != 2 {
		t.Fatalf("batch trace has %d members, want 2", len(btv.Traces))
	}
	for i, tr := range btv.Traces {
		checkTimeline(t, tr, true)
		if want := reqID + "." + string(rune('0'+i)); tr.TraceID != want {
			t.Errorf("member %d trace_id = %q, want %q", i, tr.TraceID, want)
		}
	}

	if _, status := h.getText("/v1/batches/nope/trace"); status != http.StatusNotFound {
		t.Fatalf("trace of unknown batch: status %d, want 404", status)
	}
}
