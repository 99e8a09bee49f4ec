package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"refrint"
	"refrint/internal/sweep"
)

// harness wraps a Server behind httptest with typed client helpers.
type harness struct {
	t   *testing.T
	srv *Server
	ts  *httptest.Server
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &harness{t: t, srv: srv, ts: ts}
}

// do issues a request and decodes the JSON response into out (if non-nil).
func (h *harness) do(method, path string, body any, out any) *http.Response {
	h.t.Helper()
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			h.t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		h.t.Fatalf("new request: %v", err)
	}
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		h.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			h.t.Fatalf("%s %s: decode %q: %v", method, path, data, err)
		}
	}
	return resp
}

// submit POSTs a sweep and returns the created job.
func (h *harness) submit(req refrint.SweepRequest) (JobView, int) {
	h.t.Helper()
	var view JobView
	resp := h.do("POST", "/v1/sweeps", req, &view)
	return view, resp.StatusCode
}

// getJob polls one job.
func (h *harness) getJob(id string) JobView {
	h.t.Helper()
	var view JobView
	resp := h.do("GET", "/v1/sweeps/"+id, nil, &view)
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	return view
}

// waitState polls until the job reaches want (or any terminal state), with a
// deadline.
func (h *harness) waitState(id string, want State) JobView {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		view := h.getJob(id)
		if view.State == want {
			return view
		}
		if view.State.Terminal() || time.Now().After(deadline) {
			h.t.Fatalf("job %s: state %q (err %q), want %q", id, view.State, view.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tinyRequest is a real sweep small enough for unit tests: two simulations
// (baseline + R.valid at 50us) on one app with minimal effort.
func tinyRequest(seed int64) refrint.SweepRequest {
	return refrint.SweepRequest{
		Apps:             []string{"FFT"},
		RetentionTimesUS: []float64{50},
		Policies:         []string{"R.valid"},
		EffortScale:      0.05,
		Seed:             seed,
		Workers:          2,
	}
}

// TestJobLifecycle drives the full lifecycle against the real simulator:
// submit -> poll -> done -> fetch figures and raw results.
func TestJobLifecycle(t *testing.T) {
	h := newHarness(t, Config{})

	view, status := h.submit(tinyRequest(1))
	if status != http.StatusAccepted {
		t.Fatalf("POST status = %d, want %d", status, http.StatusAccepted)
	}
	if view.State != StateQueued && view.State != StateRunning {
		t.Fatalf("fresh job state = %q", view.State)
	}
	if view.Key == "" || view.ID == "" {
		t.Fatalf("job missing id/key: %+v", view)
	}

	done := h.waitState(view.ID, StateDone)
	if done.CacheHit {
		t.Error("first run reported cache_hit")
	}
	if done.Progress.Percent != 100 || done.Progress.Done != done.Progress.Total {
		t.Errorf("done job progress = %+v, want 100%%", done.Progress)
	}
	if done.Progress.Total != 2 {
		t.Errorf("tiny sweep total = %d sims, want 2 (baseline + R.valid)", done.Progress.Total)
	}
	if done.FinishedAt == nil || done.StartedAt == nil {
		t.Errorf("done job missing timestamps: %+v", done)
	}

	var figs sweep.FiguresExport
	resp := h.do("GET", "/v1/sweeps/"+view.ID+"/figures", nil, &figs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET figures: status %d", resp.StatusCode)
	}
	if figs.SweepKey != view.Key {
		t.Errorf("figures sweep_key = %q, want job key %q", figs.SweepKey, view.Key)
	}
	if len(figs.Figure61) != 1 || figs.Figure61[0].Label() != "R.valid" || figs.Figure61[0].RetentionUS != 50 {
		t.Errorf("figure61 = %+v, want one R.valid@50us bar", figs.Figure61)
	}
	if figs.Figure61[0].Total <= 0 {
		t.Errorf("figure61 bar total = %g, want > 0", figs.Figure61[0].Total)
	}
	if len(figs.Table61) != 1 || figs.Table61[0].App != "FFT" {
		t.Errorf("table61 = %+v, want one FFT row", figs.Table61)
	}

	var export sweep.Export
	resp = h.do("GET", "/v1/sweeps/"+view.ID+"/results", nil, &export)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results: status %d", resp.StatusCode)
	}
	if len(export.Runs) != 2 {
		t.Errorf("results export has %d runs, want 2", len(export.Runs))
	}
}

// blockingExec is an instrumented per-cell ExecuteFunc.  Baseline cells
// simulate at once; every other cell is gated: it counts as one call,
// announces its sweep's key on started, and is held until released (one
// send per cell, or close for all) or until its context dies.  A
// tinyRequest sweep therefore has exactly one gated cell, which stands for
// the whole sweep in tests of scheduling order.
type blockingExec struct {
	calls   atomic.Int64
	started chan string   // receives the creating sweep's key as a gated cell starts
	release chan struct{} // closed (or sent to) to let gated cells finish
	fail    error         // returned instead of a run when non-nil
}

func newBlockingExec() *blockingExec {
	// started is buffered past any test's gated-cell count, so announcing a
	// start never blocks a worker.
	return &blockingExec{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingExec) fn(ctx context.Context, opts sweep.Options, c sweep.Cell) (sweep.Run, error) {
	if c.Point.IsBaseline() {
		return sweep.RunCell(ctx, opts, c)
	}
	b.calls.Add(1)
	b.started <- opts.Key()
	select {
	case <-b.release:
	case <-ctx.Done():
		return sweep.Run{}, ctx.Err()
	}
	if b.fail != nil {
		return sweep.Run{}, b.fail
	}
	return sweep.RunCell(ctx, opts, c)
}

// TestIdenticalSubmissionsShareCells verifies the acceptance criterion: two
// concurrent identical submissions are two jobs on the same cells, each cell
// simulated once, and a submission after completion is a pure cache hit.
func TestIdenticalSubmissionsShareCells(t *testing.T) {
	exec := newBlockingExec()
	// One worker: the baseline cell has finished when the gated cell starts.
	h := newHarness(t, Config{Workers: 1, Execute: exec.fn})

	req := tinyRequest(7)
	first, status := h.submit(req)
	if status != http.StatusAccepted {
		t.Fatalf("first POST status = %d", status)
	}
	key := <-exec.started // the gated cell is now running

	second, status := h.submit(req)
	if status != http.StatusAccepted {
		t.Fatalf("second POST status = %d", status)
	}
	if second.Key != first.Key || second.Key != key {
		t.Fatalf("keys differ: %q vs %q (exec %q)", first.Key, second.Key, key)
	}
	if second.ID == first.ID {
		t.Fatalf("both submissions got job ID %q", first.ID)
	}
	if second.State != StateRunning {
		t.Errorf("second job joined a running cell with state %q, want running", second.State)
	}

	// The shared cells' progress is visible through both jobs.
	if got := h.getJob(first.ID).Progress; got.Percent != 50 {
		t.Errorf("first job progress = %+v, want 50%%", got)
	}
	if got := h.getJob(second.ID).Progress; got.Percent != 50 {
		t.Errorf("second job progress = %+v, want 50%%", got)
	}

	close(exec.release)
	h.waitState(first.ID, StateDone)
	h.waitState(second.ID, StateDone)
	if n := exec.calls.Load(); n != 1 {
		t.Fatalf("concurrent identical submissions simulated the gated cell %d times, want 1", n)
	}

	// A later identical submission is served from the cache outright.
	third, status := h.submit(req)
	if status != http.StatusOK {
		t.Fatalf("cached POST status = %d, want 200", status)
	}
	if third.State != StateDone || !third.CacheHit {
		t.Fatalf("cached job = state %q cache_hit %v, want done/true", third.State, third.CacheHit)
	}
	if n := exec.calls.Load(); n != 1 {
		t.Fatalf("cache hit re-ran the sweep (%d executions)", n)
	}

	// A different sweep (new seed) is a different key and a fresh run.
	fourth, _ := h.submit(tinyRequest(8))
	if fourth.Key == first.Key {
		t.Fatalf("different seed produced identical key %q", fourth.Key)
	}
	<-exec.started
	h.waitState(fourth.ID, StateDone)
	if n := exec.calls.Load(); n != 2 {
		t.Fatalf("distinct sweep reused a cell (%d total)", n)
	}
}

// TestIdenticalJobsOwnDeadlines verifies that each of two identical jobs
// keeps its own timeout_ms: the second, short one fails on its deadline
// while the first, sharing the same running cell, completes — and the cell
// runs once.
func TestIdenticalJobsOwnDeadlines(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Workers: 1, Execute: exec.fn})

	req := tinyRequest(9)
	first, _ := h.submit(req)
	<-exec.started // the gated cell is now running
	short := req
	short.TimeoutMS = 50
	second, status := h.submit(short)
	if status != http.StatusAccepted || second.Key != first.Key {
		t.Fatalf("second submit: status %d, key %q (first %q)", status, second.Key, first.Key)
	}

	failed := h.waitState(second.ID, StateFailed)
	if failed.Reason != reasonDeadline {
		t.Fatalf("second job reason = %q, want %q", failed.Reason, reasonDeadline)
	}
	if got := h.getJob(first.ID); got.State != StateRunning {
		t.Fatalf("first job state = %q after the second's deadline, want running", got.State)
	}
	close(exec.release)
	h.waitState(first.ID, StateDone)
	if n := exec.calls.Load(); n != 1 {
		t.Fatalf("gated cell ran %d times, want 1", n)
	}
}

// TestIdenticalSubmissionsSurviveFirstCancel verifies that cancelling the
// first of three identical jobs leaves the other two on the shared cells:
// both complete, and each cell is simulated once.
func TestIdenticalSubmissionsSurviveFirstCancel(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Workers: 1, Execute: exec.fn})

	req := tinyRequest(10)
	jobs := make([]JobView, 3)
	for i := range jobs {
		jobs[i], _ = h.submit(req)
	}
	<-exec.started
	h.do("DELETE", "/v1/sweeps/"+jobs[0].ID, nil, nil)
	close(exec.release)
	for _, j := range jobs[1:] {
		h.waitState(j.ID, StateDone)
	}
	if got := h.getJob(jobs[0].ID); got.State != StateCancelled {
		t.Fatalf("cancelled job state = %q", got.State)
	}
	if n := exec.calls.Load(); n != 1 {
		t.Fatalf("gated cell ran %d times, want 1", n)
	}
	text, _ := h.getText("/metrics")
	if got := metricValue(t, text, "refrint_cell_cache_misses_total"); got != 2 {
		t.Fatalf("refrint_cell_cache_misses_total = %g, want 2 (each cell simulated once)", got)
	}
}

// TestCancellation verifies DELETE stops a running job, that the stored
// state is cancelled, and that the key becomes runnable again afterwards.
func TestCancellation(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Execute: exec.fn})

	view, _ := h.submit(tinyRequest(1))
	<-exec.started // running, blocked on release/ctx

	var cancelled JobView
	resp := h.do("DELETE", "/v1/sweeps/"+view.ID, nil, &cancelled)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	if cancelled.State != StateCancelled {
		t.Fatalf("cancelled job state = %q", cancelled.State)
	}
	// The cell observes ctx cancellation and the job stays cancelled.
	if got := h.waitState(view.ID, StateCancelled); got.Error == "" {
		t.Errorf("cancelled job has empty error")
	}

	// The cancelled job's cells left the in-flight table: resubmitting
	// simulates them afresh rather than joining the doomed ones.
	again, status := h.submit(tinyRequest(1))
	if status != http.StatusAccepted {
		t.Fatalf("resubmit status = %d", status)
	}
	<-exec.started
	close(exec.release)
	h.waitState(again.ID, StateDone)
	if n := exec.calls.Load(); n != 2 {
		t.Fatalf("resubmit after cancel ran %d executions, want 2", n)
	}
}

// TestCancelOneOfTwo verifies that cancelling one of two jobs sharing their
// cells detaches only that job: the survivor still completes.
func TestCancelOneOfTwo(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Execute: exec.fn})

	req := tinyRequest(3)
	first, _ := h.submit(req)
	<-exec.started
	second, _ := h.submit(req)

	h.do("DELETE", "/v1/sweeps/"+second.ID, nil, nil)
	if got := h.getJob(second.ID); got.State != StateCancelled {
		t.Fatalf("cancelled job state = %q", got.State)
	}

	close(exec.release)
	if got := h.waitState(first.ID, StateDone); got.State != StateDone {
		t.Fatalf("surviving job state = %q", got.State)
	}
	if got := h.getJob(second.ID); got.State != StateCancelled {
		t.Errorf("cancelled job was revived to %q", got.State)
	}
	if n := exec.calls.Load(); n != 1 {
		t.Fatalf("shared cell ran %d times", n)
	}
}

// TestFailurePropagates verifies a failing sweep marks its jobs failed and
// does not poison the cache.
func TestFailurePropagates(t *testing.T) {
	exec := newBlockingExec()
	exec.fail = fmt.Errorf("synthetic sweep failure")
	h := newHarness(t, Config{Execute: exec.fn})

	view, _ := h.submit(tinyRequest(1))
	<-exec.started
	close(exec.release)
	failed := h.waitState(view.ID, StateFailed)
	if failed.Error == "" {
		t.Errorf("failed job has empty error")
	}

	resp := h.do("GET", "/v1/sweeps/"+view.ID+"/figures", nil, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("figures of failed job: status %d, want 409", resp.StatusCode)
	}
}

// TestQueueBounds verifies overload turns into HTTP 503, not unbounded
// queueing: with one worker and a queue depth of one, the third distinct
// sweep is rejected while the first still runs.
func TestQueueBounds(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Workers: 1, QueueDepth: 1, Execute: exec.fn})

	if _, status := h.submit(tinyRequest(1)); status != http.StatusAccepted {
		t.Fatalf("first submit: status %d", status)
	}
	<-exec.started // first occupies the only worker
	if _, status := h.submit(tinyRequest(2)); status != http.StatusAccepted {
		t.Fatalf("second submit (queued): status %d", status)
	}
	if _, status := h.submit(tinyRequest(3)); status != http.StatusServiceUnavailable {
		t.Fatalf("third submit: status %d, want 503", status)
	}
	// An identical submission is charged like any other job.
	if _, status := h.submit(tinyRequest(1)); status != http.StatusServiceUnavailable {
		t.Fatalf("identical submit under overload: status %d, want 503", status)
	}
	close(exec.release)
}

// TestJobHistoryBound verifies old terminal jobs are forgotten past the
// history limit while non-terminal jobs are never evicted, so the service
// cannot grow without bound.
func TestJobHistoryBound(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{JobHistory: 2, Execute: exec.fn})

	listIDs := func() []string {
		var list struct {
			Jobs []JobView `json:"jobs"`
		}
		h.do("GET", "/v1/sweeps", nil, &list)
		ids := make([]string, 0, len(list.Jobs))
		for _, j := range list.Jobs {
			ids = append(ids, j.ID)
		}
		return ids
	}

	// Four distinct sweeps, all held non-terminal by the blocked executor
	// (both workers block; the rest wait in queues).
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		view, status := h.submit(tinyRequest(seed))
		if status != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, status)
		}
		ids = append(ids, view.ID)
	}
	// Over the bound, but nothing is terminal: no eviction may happen.
	if got := listIDs(); len(got) != 4 {
		t.Fatalf("history = %v, want all 4 live jobs retained", got)
	}

	close(exec.release)
	for _, id := range ids {
		h.waitState(id, StateDone)
	}

	// The next submission sweeps out the oldest terminal jobs.
	last, _ := h.submit(tinyRequest(5))
	h.waitState(last.ID, StateDone)
	got := listIDs()
	if len(got) > 2 {
		t.Errorf("job history holds %v, want <= 2 entries", got)
	}
	if resp := h.do("GET", "/v1/sweeps/"+ids[0], nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job %s still pollable: status %d", ids[0], resp.StatusCode)
	}
	if resp := h.do("GET", "/v1/sweeps/"+last.ID, nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("newest job %s evicted: status %d", last.ID, resp.StatusCode)
	}
}

// TestValidationAndNotFound covers the API error paths.
func TestValidationAndNotFound(t *testing.T) {
	h := newHarness(t, Config{})

	cases := []refrint.SweepRequest{
		{Policies: []string{"Q.all"}},     // unknown time policy
		{Policies: []string{"SRAM"}},      // baseline is implicit
		{Apps: []string{"NoSuchApp"}},     // unknown application
		{Preset: "enormous"},              // unknown preset
		{RetentionTimesUS: []float64{-4}}, // negative retention
		{EffortScale: -1},                 // negative effort
	}
	for _, c := range cases {
		if resp := h.do("POST", "/v1/sweeps", c, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %+v: status %d, want 400", c, resp.StatusCode)
		}
	}

	if resp := h.do("GET", "/v1/sweeps/job-999999", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job: status %d, want 404", resp.StatusCode)
	}
	if resp := h.do("DELETE", "/v1/sweeps/job-999999", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestCatalogAndHealth exercises GET /v1/sims and GET /healthz.
func TestCatalogAndHealth(t *testing.T) {
	h := newHarness(t, Config{})

	var cat struct {
		Applications []struct {
			Name  string `json:"name"`
			Class string `json:"class"`
		} `json:"applications"`
		Policies         []string  `json:"policies"`
		RetentionTimesUS []float64 `json:"retention_times_us"`
		Presets          []string  `json:"presets"`
	}
	if resp := h.do("GET", "/v1/sims", nil, &cat); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/sims: status %d", resp.StatusCode)
	}
	if len(cat.Applications) != 11 {
		t.Errorf("catalog lists %d applications, want 11 (Table 5.3)", len(cat.Applications))
	}
	if len(cat.Policies) != 14 {
		t.Errorf("catalog lists %d policies, want 14 (Table 5.4)", len(cat.Policies))
	}
	if len(cat.RetentionTimesUS) != 3 {
		t.Errorf("catalog lists %d retention times, want 3", len(cat.RetentionTimesUS))
	}

	var hz struct {
		Status string `json:"status"`
		Jobs   int    `json:"jobs"`
	}
	if resp := h.do("GET", "/healthz", nil, &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", resp.StatusCode)
	}
	if hz.Status != "ok" {
		t.Errorf("healthz status = %q", hz.Status)
	}
}

// TestConcurrentClientsRealSweep is the race-detector stress for the
// acceptance criterion, against the real simulator: many clients submit the
// same sweep concurrently while others poll; each of its cells is simulated
// exactly once and every client sees identical figure data.
func TestConcurrentClientsRealSweep(t *testing.T) {
	var calls atomic.Int64
	h := newHarness(t, Config{Workers: 2, Execute: countingExec(&calls)})

	const clients = 8
	req := tinyRequest(42)
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload, _ := json.Marshal(req)
			resp, err := h.ts.Client().Post(h.ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var view JobView
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
				t.Errorf("client %d: decode: %v", i, err)
				return
			}
			ids[i] = view.ID
		}(i)
	}
	wg.Wait()

	var exports []string
	for _, id := range ids {
		if id == "" {
			t.Fatal("a client got no job ID")
		}
		h.waitState(id, StateDone)
		var figs sweep.FiguresExport
		h.do("GET", "/v1/sweeps/"+id+"/figures", nil, &figs)
		payload, _ := json.Marshal(figs)
		exports = append(exports, string(payload))
	}
	for i, e := range exports {
		if e != exports[0] {
			t.Fatalf("client %d saw different figures than client 0", i)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d concurrent identical clients simulated %d cells, want 2 (one sweep)", clients, n)
	}
}
