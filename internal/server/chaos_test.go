package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"refrint"
	"refrint/internal/faults"
	"refrint/internal/store"
	"refrint/internal/sweep"
)

// Chaos suite: drives the fault-injection harness (internal/faults) through
// the whole service stack and verifies the containment story end to end —
// panics lose one job, deadlines free their worker, a dead disk degrades the
// store without failing sweeps, and a draining server turns work away
// politely.  The injector is process-global, so none of these tests run in
// parallel.

// enableFaults parses and activates a fault spec for the test's duration.
func enableFaults(t *testing.T, spec string) {
	t.Helper()
	inj, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	t.Cleanup(faults.Disable)
}

// TestChaosSimPanic verifies a panicking simulation cell fails exactly its
// own job — reason "panic", counted at site "sim" — while the server stays
// healthy and the next sweep runs normally.
func TestChaosSimPanic(t *testing.T) {
	h := newHarness(t, Config{})
	enableFaults(t, "sim.run:panic")

	view, status := h.submit(tinyRequest(1))
	if status != http.StatusAccepted {
		t.Fatalf("POST status = %d, want %d", status, http.StatusAccepted)
	}
	failed := h.waitState(view.ID, StateFailed)
	if failed.Reason != "panic" {
		t.Errorf("failed job reason = %q, want %q", failed.Reason, "panic")
	}
	if !strings.Contains(failed.Error, "panic in cell") {
		t.Errorf("failed job error = %q, want the contained panic", failed.Error)
	}

	var hz healthz
	if resp := h.do("GET", "/healthz", nil, &hz); resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Errorf("healthz after panic = (%d, %q), want (200, ok)", resp.StatusCode, hz.Status)
	}
	if got := metricValue(t, h.metricsText(), `refrint_panics_total{site="sim"}`); got < 1 {
		t.Errorf("refrint_panics_total{site=sim} = %g, want >= 1", got)
	}

	// The process survived: with injection off, the next sweep completes.
	faults.Disable()
	next, status := h.submit(tinyRequest(2))
	if status != http.StatusAccepted {
		t.Fatalf("follow-up POST status = %d, want %d", status, http.StatusAccepted)
	}
	h.waitState(next.ID, StateDone)
}

// TestChaosJobDeadline verifies timeout_ms: the job turns terminal failed
// with the deadline reason (and trace phase), the worker running its cell is
// freed for the next submission, and the timeout is counted by class.
func TestChaosJobDeadline(t *testing.T) {
	exec := newSteppedExec() // every cell held until released
	h := newHarness(t, Config{Execute: exec.fn, Workers: 1})

	req := tinyRequest(1)
	req.TimeoutMS = 1
	view, status := h.submit(req)
	if status != http.StatusAccepted {
		t.Fatalf("POST status = %d, want %d", status, http.StatusAccepted)
	}
	<-exec.started // the worker picked a cell up; never released, only timed out

	failed := h.waitState(view.ID, StateFailed)
	if failed.Reason != "deadline exceeded" {
		t.Errorf("failed job reason = %q, want %q", failed.Reason, "deadline exceeded")
	}
	if !strings.Contains(failed.Error, "deadline exceeded") {
		t.Errorf("failed job error = %q, want a deadline", failed.Error)
	}
	tv := h.getTrace(view.ID)
	var sawPhase bool
	for _, sp := range tv.Spans {
		if sp.Phase == "deadline-exceeded" {
			sawPhase = true
		}
	}
	if !sawPhase {
		t.Errorf("trace spans %+v missing the deadline-exceeded phase", tv.Spans)
	}
	if got := metricValue(t, h.metricsText(), `refrint_job_timeouts_total{class="interactive"}`); got != 1 {
		t.Errorf("refrint_job_timeouts_total{class=interactive} = %g, want 1", got)
	}

	// The sweep's other cell left the scheduler, and the single worker is
	// free again: a follow-up is admitted (202) and, once released,
	// completes.
	if got := metricValue(t, h.metricsText(), "refrint_queue_depth"); got != 0 {
		t.Errorf("refrint_queue_depth = %g after the deadline, want 0", got)
	}
	next, status := h.submit(tinyRequest(2))
	if status != http.StatusAccepted {
		t.Fatalf("follow-up POST status = %d, want %d", status, http.StatusAccepted)
	}
	<-exec.started
	close(exec.release)
	h.waitState(next.ID, StateDone)
}

// TestTimeoutValidation pins the wire contract: negative timeout_ms is a 400.
func TestTimeoutValidation(t *testing.T) {
	h := newHarness(t, Config{})
	req := tinyRequest(1)
	req.TimeoutMS = -5
	if _, status := h.submit(req); status != http.StatusBadRequest {
		t.Fatalf("POST with timeout_ms=-5: status %d, want %d", status, http.StatusBadRequest)
	}
}

// TestEffectiveTimeout pins the cap arithmetic: requests may lower the
// server bound, never raise or disable it.
func TestEffectiveTimeout(t *testing.T) {
	capped := &Server{cfg: Config{JobTimeout: 50 * time.Millisecond}}
	uncapped := &Server{}
	cases := []struct {
		s    *Server
		ms   int64
		want time.Duration
	}{
		{capped, 0, 50 * time.Millisecond},     // no request bound: the cap applies
		{capped, 10, 10 * time.Millisecond},    // lower than the cap: honored
		{capped, 10000, 50 * time.Millisecond}, // above the cap: clamped
		{uncapped, 0, 0},                       // no bounds anywhere
		{uncapped, 10, 10 * time.Millisecond},
	}
	for _, c := range cases {
		if got := c.s.effectiveTimeout(c.ms); got != c.want {
			t.Errorf("effectiveTimeout(%d) with cap %v = %v, want %v",
				c.ms, c.s.cfg.JobTimeout, got, c.want)
		}
	}
}

// TestChaosStoreDegradation verifies the full store-degradation story at the
// service level: persistent write failures never fail a sweep, /healthz
// reports degraded (200 — the service still works) with the cause, and once
// the faults stop the probe restores disk persistence.
func TestChaosStoreDegradation(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{
		WriteRetries:  1,
		RetryBase:     time.Millisecond,
		DegradeAfter:  1,
		ProbeInterval: 5 * time.Millisecond,
		Sleep:         func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h := newHarness(t, Config{Store: st})
	enableFaults(t, "store.put:error")

	view, status := h.submit(tinyRequest(1))
	if status != http.StatusAccepted {
		t.Fatalf("POST status = %d, want %d", status, http.StatusAccepted)
	}
	h.waitState(view.ID, StateDone) // a dead disk must not fail the sweep

	var hz healthz
	if resp := h.do("GET", "/healthz", nil, &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz status = %d, want 200", resp.StatusCode)
	}
	if hz.Status != "degraded" || !strings.Contains(hz.Cause, "injected fault") {
		t.Fatalf("healthz = (%q, %q), want degraded with the injected cause", hz.Status, hz.Cause)
	}
	if got := metricValue(t, h.metricsText(), "refrint_store_degraded"); got != 1 {
		t.Errorf("refrint_store_degraded = %g, want 1", got)
	}

	// Stop injecting; the probe must flip the store back to healthy.
	faults.Disable()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.do("GET", "/healthz", nil, &hz)
		if hz.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz stuck at %q after faults stopped", hz.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Post-recovery sweeps persist again.
	next, _ := h.submit(tinyRequest(2))
	done := h.waitState(next.ID, StateDone)
	if !st.Contains(store.KindSweep, done.Key) {
		t.Error("post-recovery sweep not persisted")
	}
}

// TestDrainRejectsNewWork verifies graceful drain: BeginDrain turns new
// sweeps and batches away with 503 + Retry-After and flips /healthz to
// closing (503), while the in-flight job runs to completion and Drain
// observes it.
func TestDrainRejectsNewWork(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Execute: exec.fn})

	view, status := h.submit(tinyRequest(1))
	if status != http.StatusAccepted {
		t.Fatalf("POST status = %d, want %d", status, http.StatusAccepted)
	}
	<-exec.started
	h.srv.BeginDrain(3 * time.Second)

	resp := h.do("POST", "/v1/sweeps", tinyRequest(2), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST /v1/sweeps status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("draining Retry-After = %q, want %q", got, "3")
	}
	resp = h.do("POST", "/v1/batches", BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(3)},
	}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST /v1/batches status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("draining batch Retry-After = %q, want %q", got, "3")
	}

	var hz healthz
	resp = h.do("GET", "/healthz", nil, &hz)
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Status != "closing" {
		t.Fatalf("draining healthz = (%d, %q), want (503, closing)", resp.StatusCode, hz.Status)
	}

	// The admitted job still finishes, and Drain returns once it has.
	close(exec.release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := h.getJob(view.ID).State; got != StateDone {
		t.Fatalf("in-flight job state after drain = %q, want done", got)
	}
}

// TestChaosExecLatencyInjection smoke-tests latency-mode injection through a
// real sweep: the sweep still completes, just slower.
func TestChaosExecLatencyInjection(t *testing.T) {
	h := newHarness(t, Config{})
	enableFaults(t, "sim.run:latency:5ms")
	view, status := h.submit(tinyRequest(1))
	if status != http.StatusAccepted {
		t.Fatalf("POST status = %d, want %d", status, http.StatusAccepted)
	}
	h.waitState(view.ID, StateDone)
}

// TestChaosStoreGetCorruption covers the read path the way
// TestChaosStoreDegradation covers writes: with store.get:corrupt injected,
// a resubmitted sweep finds its stored cells "corrupt", the store
// quarantines them (visible in refrint_store_quarantined_total), and the
// service recomputes and completes the sweep instead of failing it.  Read
// corruption must not flip the store into degraded mode — that is a
// write-path condition.
func TestChaosStoreGetCorruption(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h := newHarness(t, Config{Store: st})

	// Populate the store; the resubmission below reads the cells from disk.
	first, status := h.submit(tinyRequest(1))
	if status != http.StatusAccepted {
		t.Fatalf("POST status = %d, want %d", status, http.StatusAccepted)
	}
	done := h.waitState(first.ID, StateDone)
	if !st.Contains(store.KindSweep, done.Key) {
		t.Fatal("first sweep not persisted")
	}

	enableFaults(t, "store.get:corrupt")
	again, status := h.submit(tinyRequest(1))
	if status != http.StatusAccepted {
		t.Fatalf("resubmit status = %d, want %d", status, http.StatusAccepted)
	}
	h.waitState(again.ID, StateDone) // corruption degrades to recompute, never failure
	faults.Disable()

	if got := st.Stats().Quarantined; got < 1 {
		t.Fatalf("Quarantined = %d, want >= 1", got)
	}
	if got := metricValue(t, h.metricsText(), "refrint_store_quarantined_total"); got < 1 {
		t.Errorf("refrint_store_quarantined_total = %g, want >= 1", got)
	}
	var hz healthz
	if resp := h.do("GET", "/healthz", nil, &hz); resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Errorf("healthz after read corruption = (%d, %q), want (200, ok); read faults must not degrade the store",
			resp.StatusCode, hz.Status)
	}

	// The recomputed cells were re-persisted: the sweep is served from them.
	final, status := h.submit(tinyRequest(1))
	if status != http.StatusOK || !final.CacheHit {
		t.Errorf("resubmit after recompute: status %d, cache_hit %v; want 200 from re-persisted cells", status, final.CacheHit)
	}
}

// TestChaosJobCompletePanic verifies a panic while completing a job ends
// that job, not the service: two jobs waiting on the same last cell both
// fail with reason "panic" (counted at site "complete") instead of staying
// running, and with injection off the same sweep completes.
func TestChaosJobCompletePanic(t *testing.T) {
	sim := newCellSim(7)
	h := newHarness(t, Config{Execute: sim.fn, Workers: 1})
	first, status := h.submit(tinyRequest(7))
	if status != http.StatusAccepted {
		t.Fatalf("POST status = %d, want %d", status, http.StatusAccepted)
	}
	<-sim.started
	second, status := h.submit(tinyRequest(7)) // joins the same cells
	if status != http.StatusAccepted {
		t.Fatalf("second POST status = %d, want %d", status, http.StatusAccepted)
	}
	enableFaults(t, "job.complete:panic:1")
	close(sim.release)

	for _, id := range []string{first.ID, second.ID} {
		if failed := h.waitState(id, StateFailed); failed.Reason != "panic" {
			t.Errorf("job %s reason = %q, want %q", id, failed.Reason, "panic")
		}
	}
	if got := metricValue(t, h.metricsText(), `refrint_panics_total{site="complete"}`); got != 2 {
		t.Errorf(`refrint_panics_total{site="complete"} = %g, want 2`, got)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	h.do("GET", "/v1/sweeps", nil, &list)
	for _, j := range list.Jobs {
		if !j.State.Terminal() {
			t.Errorf("job %s is %s after its last cell", j.ID, j.State)
		}
	}

	faults.Disable()
	again, status := h.submit(tinyRequest(7))
	if status != http.StatusOK && status != http.StatusAccepted {
		t.Fatalf("resubmit status = %d", status)
	}
	h.waitState(again.ID, StateDone)
}

// syncBuffer is a log sink safe for the server's concurrent writers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestOneTerminalLogLinePerJob verifies a job's terminal transition logs
// one info line, the structured one: it carries the trace ID and, for a
// failed job, the error.  A job is matched by its id attribute or by its
// sweep key in the message, so a second, unstructured line would count.
func TestOneTerminalLogLinePerJob(t *testing.T) {
	var logs syncBuffer
	exec := func(ctx context.Context, opts sweep.Options, c sweep.Cell) (sweep.Run, error) {
		if opts.Seed == 2 { // held until cancelled
			<-ctx.Done()
			return sweep.Run{}, ctx.Err()
		}
		return sweep.RunCell(ctx, opts, c)
	}
	h := newHarness(t, Config{Execute: exec, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})

	enableFaults(t, "sim.run:error")
	failedView, _ := h.submit(tinyRequest(1))
	h.waitState(failedView.ID, StateFailed)
	faults.Disable()

	cancelView, _ := h.submit(tinyRequest(2))
	h.waitState(cancelView.ID, StateRunning)
	h.do("DELETE", "/v1/sweeps/"+cancelView.ID, nil, nil)
	h.waitState(cancelView.ID, StateCancelled)

	for _, tc := range []struct {
		view      JobView
		state     State
		wantError bool
	}{
		{failedView, StateFailed, true},
		{cancelView, StateCancelled, false},
	} {
		var terminal []map[string]any
		for _, rec := range logs.lines(t) {
			msg, _ := rec["msg"].(string)
			mine := rec["job"] == tc.view.ID || strings.Contains(msg, tc.view.Key)
			if rec["level"] == "INFO" && mine && strings.Contains(msg, string(tc.state)) {
				terminal = append(terminal, rec)
			}
		}
		if len(terminal) != 1 {
			t.Errorf("job %s: %d info lines at %s, want 1: %v", tc.view.ID, len(terminal), tc.state, terminal)
			continue
		}
		rec := terminal[0]
		if rec["trace_id"] != tc.view.TraceID {
			t.Errorf("job %s: terminal line trace_id = %v, want %q", tc.view.ID, rec["trace_id"], tc.view.TraceID)
		}
		if errText, _ := rec["error"].(string); tc.wantError && !strings.Contains(errText, "injected fault") {
			t.Errorf("job %s: terminal line error = %q, want the injected fault", tc.view.ID, errText)
		}
	}
}
