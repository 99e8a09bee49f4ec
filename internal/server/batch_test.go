package server

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"refrint"
	"refrint/internal/sched"
	"refrint/internal/sweep"
)

// submitBatch POSTs a batch and returns the decoded view.
func (h *harness) submitBatch(req BatchRequest) (BatchView, int) {
	h.t.Helper()
	var view BatchView
	resp := h.do("POST", "/v1/batches", req, &view)
	return view, resp.StatusCode
}

// getBatch polls one batch.
func (h *harness) getBatch(id string) BatchView {
	h.t.Helper()
	var view BatchView
	resp := h.do("GET", "/v1/batches/"+id, nil, &view)
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("GET batch %s: status %d", id, resp.StatusCode)
	}
	return view
}

// waitBatchState polls until the batch reaches want (or any terminal state).
func (h *harness) waitBatchState(id string, want State) BatchView {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		view := h.getBatch(id)
		if view.State == want {
			return view
		}
		if view.State.Terminal() || time.Now().After(deadline) {
			h.t.Fatalf("batch %s: state %q (counts %v), want %q", id, view.State, view.Counts, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBatchLifecycle drives a real batch end to end: one handle, aggregated
// progress, member jobs individually pollable, results fetchable, and
// identical requests within the batch sharing their cells.
func TestBatchLifecycle(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Execute: exec.fn})
	close(exec.release) // run everything immediately

	view, status := h.submitBatch(BatchRequest{
		Client:   "campaign",
		Requests: []refrint.SweepRequest{tinyRequest(1), tinyRequest(2), tinyRequest(1)},
	})
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/batches: status %d, want 202", status)
	}
	if view.ID == "" || len(view.Jobs) != 3 {
		t.Fatalf("batch view = %+v, want 3 jobs and an id", view)
	}
	if view.Priority != "batch" {
		t.Fatalf("batch default priority = %q, want batch", view.Priority)
	}
	if view.Jobs[0].Key != view.Jobs[2].Key {
		t.Fatalf("identical requests got distinct keys %q vs %q", view.Jobs[0].Key, view.Jobs[2].Key)
	}

	done := h.waitBatchState(view.ID, StateDone)
	if done.Counts[string(StateDone)] != 3 {
		t.Fatalf("terminal counts = %v, want done:3", done.Counts)
	}
	if done.Progress.Percent != 100 || done.Progress.Done != done.Progress.Total {
		t.Fatalf("terminal progress = %+v, want 100%%", done.Progress)
	}
	// The duplicate request shared its cells: two sweeps' cells ran, not
	// three.
	if n := exec.calls.Load(); n != 2 {
		t.Fatalf("batch of 3 (one duplicate) ran %d gated cells, want 2", n)
	}
	// Member jobs stay individually addressable.
	for _, j := range done.Jobs {
		if got := h.getJob(j.ID); got.State != StateDone {
			t.Errorf("member job %s state = %q, want done", j.ID, got.State)
		}
	}
	if resp := h.do("GET", "/v1/sweeps/"+done.Jobs[0].ID+"/figures", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("member figures: status %d", resp.StatusCode)
	}
}

// TestBatchValidationAtomic verifies a batch with any invalid request is
// rejected whole: no jobs are created for the valid ones.
func TestBatchValidationAtomic(t *testing.T) {
	h := newHarness(t, Config{})

	cases := []BatchRequest{
		{},                                   // no requests
		{Requests: []refrint.SweepRequest{}}, // empty
		{Requests: []refrint.SweepRequest{tinyRequest(1), {Apps: []string{"NoSuchApp"}}}},
		{Requests: []refrint.SweepRequest{tinyRequest(1)}, Priority: "turbo"},
		{Requests: []refrint.SweepRequest{func() refrint.SweepRequest {
			r := tinyRequest(1)
			r.Priority = "warp"
			return r
		}()}},
	}
	for i, c := range cases {
		if resp := h.do("POST", "/v1/batches", c, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	h.do("GET", "/v1/sweeps", nil, &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("rejected batches left %d jobs behind", len(list.Jobs))
	}
}

// TestBatchCapacityAtomic verifies all-or-nothing admission against queue
// capacity: a batch needing more slots than remain is rejected whole, and
// the slots it probed stay usable.
func TestBatchCapacityAtomic(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Workers: 1, QueueDepth: 2, Execute: exec.fn})

	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker
	// Leave one free batch-class slot.
	one := tinyRequest(2)
	one.Priority = "batch"
	if _, status := h.submit(one); status != http.StatusAccepted {
		t.Fatalf("filler submit: status %d", status)
	}

	over := BatchRequest{Requests: []refrint.SweepRequest{tinyRequest(3), tinyRequest(4)}}
	if _, status := h.submitBatch(over); status != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity batch: status %d, want 503", status)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	h.do("GET", "/v1/sweeps", nil, &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("rejected batch created jobs: %d total, want 2", len(list.Jobs))
	}

	// The single free slot is still usable — by a batch that fits.
	fits := BatchRequest{Requests: []refrint.SweepRequest{tinyRequest(3)}}
	if view, status := h.submitBatch(fits); status != http.StatusAccepted || len(view.Jobs) != 1 {
		t.Fatalf("fitting batch: status %d view %+v", status, view)
	}
	close(exec.release)
}

// TestBatchPartialFailure verifies aggregation when one member fails: the
// batch ends failed, with per-state counts showing the mixed outcome.
func TestBatchPartialFailure(t *testing.T) {
	h := newHarness(t, Config{
		Execute: func(ctx context.Context, opts sweep.Options, c sweep.Cell) (sweep.Run, error) {
			if opts.Seed == 99 {
				return sweep.Run{}, fmt.Errorf("synthetic failure for seed 99")
			}
			return sweep.RunCell(ctx, opts, c)
		},
	})

	view, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(1), tinyRequest(99)},
	})
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/batches: status %d", status)
	}
	failed := h.waitBatchState(view.ID, StateFailed)
	if failed.Counts[string(StateDone)] != 1 || failed.Counts[string(StateFailed)] != 1 {
		t.Fatalf("counts = %v, want done:1 failed:1", failed.Counts)
	}
	// The surviving member's results are still fetchable.
	for _, j := range failed.Jobs {
		if j.State == StateDone {
			if resp := h.do("GET", "/v1/sweeps/"+j.ID+"/results", nil, nil); resp.StatusCode != http.StatusOK {
				t.Errorf("surviving member results: status %d", resp.StatusCode)
			}
		}
	}
}

// TestBatchCancel verifies DELETE /v1/batches/{id}: every non-terminal
// member is cancelled, queued members free their scheduler slots
// immediately, and running members abort via context.
func TestBatchCancel(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Workers: 1, QueueDepth: 2, Execute: exec.fn})

	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker so batch members stay queued

	view, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(2), tinyRequest(3)},
	})
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/batches: status %d", status)
	}
	var cancelled BatchView
	resp := h.do("DELETE", "/v1/batches/"+view.ID, nil, &cancelled)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE batch: status %d", resp.StatusCode)
	}
	if cancelled.State != StateCancelled || cancelled.Counts[string(StateCancelled)] != 2 {
		t.Fatalf("cancelled batch = state %q counts %v, want cancelled:2", cancelled.State, cancelled.Counts)
	}

	// Both queued members left the scheduler at cancel time: the batch
	// class has its full capacity back with no worker pop in between.
	var hz struct {
		Queued int `json:"queued"`
	}
	h.do("GET", "/healthz", nil, &hz)
	if hz.Queued != 0 {
		t.Fatalf("healthz queued = %d after batch cancel, want 0", hz.Queued)
	}
	refill := BatchRequest{Requests: []refrint.SweepRequest{tinyRequest(4), tinyRequest(5)}}
	if _, status := h.submitBatch(refill); status != http.StatusAccepted {
		t.Fatalf("batch after cancel: status %d, want 202 (slots leaked)", status)
	}
	// Cancelling a second time is a no-op that reports the same state.
	h.do("DELETE", "/v1/batches/"+view.ID, nil, &cancelled)
	if cancelled.State != StateCancelled {
		t.Fatalf("re-cancel state = %q", cancelled.State)
	}

	close(exec.release)
	// Only the blocker and the refill batch ever execute.
	h.waitBatchState(h.getBatch(view.ID).ID, StateCancelled)
	if n := exec.calls.Load(); n > 3 {
		t.Fatalf("executor ran %d sweeps, want <= 3 (cancelled members must not run)", n)
	}

	if resp := h.do("GET", "/v1/batches/batch-999999", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown batch: status %d, want 404", resp.StatusCode)
	}
	if resp := h.do("DELETE", "/v1/batches/batch-999999", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown batch: status %d, want 404", resp.StatusCode)
	}
}

// TestBatchIgnoresFullUntouchedClass is a regression for the capacity check
// vetoing batches over classes they do not use: a full class must not 503 a
// batch that needs zero slots there.
func TestBatchIgnoresFullUntouchedClass(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{
		Workers:         1,
		ClassQueueDepth: [sched.NumClasses]int{1, 4, 4},
		Execute:         exec.fn,
	})

	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker

	// Fill interactive to its depth of 1.
	fill := tinyRequest(2)
	fill.Priority = "interactive"
	if _, status := h.submit(fill); status != http.StatusAccepted {
		t.Fatalf("interactive fill: status %d", status)
	}
	if v := h.schedMetric(`refrint_sweeps_queued{class="interactive"}`); v != 1 {
		t.Fatalf("interactive queued sweeps = %v, want 1 (full)", v)
	}
	// Interactive is full.  A batch needing only batch-class capacity must
	// still be admitted.
	view, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(4), tinyRequest(5)},
	})
	if status != http.StatusAccepted {
		t.Fatalf("batch over an untouched full class: status %d, want 202", status)
	}
	if len(view.Jobs) != 2 {
		t.Fatalf("batch admitted %d jobs, want 2", len(view.Jobs))
	}
	close(exec.release)
}

// TestBatchMixedPriorityDuplicates pins capacity accounting of duplicate
// keys: every member holds a slot of its own class, while the shared cells
// run at the most urgent class among their jobs; a batch over capacity —
// duplicates counted like any other member — is rejected whole up front.
func TestBatchMixedPriorityDuplicates(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{
		Workers:         1,
		ClassQueueDepth: [sched.NumClasses]int{2, 4, 4},
		Execute:         exec.fn,
	})

	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker

	bg := tinyRequest(5)
	bg.Priority = "background"
	urgent := tinyRequest(5) // same sweep, more urgent
	urgent.Priority = "interactive"
	other := tinyRequest(6)
	other.Priority = "interactive"
	view, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{bg, urgent, other},
	})
	if status != http.StatusAccepted {
		t.Fatalf("mixed-priority batch: status %d, want 202 (interactive has exactly 2 free slots)", status)
	}
	if len(view.Jobs) != 3 {
		t.Fatalf("admitted %d jobs, want 3", len(view.Jobs))
	}
	// The duplicate pair's cells are queued once, at interactive (their
	// most urgent job), not background; each job holds its own slot.
	if v := h.schedMetric(`refrint_sweeps_queued{class="interactive"}`); v != 2 {
		t.Fatalf("interactive queued sweeps = %v, want 2 (seeds 5 and 6)", v)
	}
	if v := h.schedMetric(`refrint_sweeps_queued{class="background"}`); v != 1 {
		t.Fatalf("background queued sweeps = %v, want 1 (seed 5)", v)
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="interactive"}`); v != 4 {
		t.Fatalf("interactive queue depth = %v, want 4 (two sweeps' cells)", v)
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="background"}`); v != 0 {
		t.Fatalf("background queue depth = %v, want 0", v)
	}

	// Interactive is now full: another such batch is rejected whole by the
	// up-front check, leaving no member behind.
	before := len(h.getBatch(view.ID).Jobs) + 1 // batch members + blocker
	bg2 := tinyRequest(7)
	bg2.Priority = "background"
	urgent2 := tinyRequest(7)
	urgent2.Priority = "interactive"
	if _, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{bg2, urgent2},
	}); status != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity mixed batch: status %d, want 503", status)
	}
	jobCount := func() int {
		var list struct {
			Jobs []JobView `json:"jobs"`
		}
		h.do("GET", "/v1/sweeps", nil, &list)
		return len(list.Jobs)
	}
	if n := jobCount(); n != before {
		t.Fatalf("rejected batch changed job count: %d, want %d", n, before)
	}

	// With one interactive slot free, two same-key interactive members
	// need two: the batch is rejected whole.
	h.do("DELETE", "/v1/sweeps/"+view.Jobs[2].ID, nil, nil)
	dup := tinyRequest(8)
	dup.Priority = "interactive"
	if _, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{dup, dup},
	}); status != http.StatusServiceUnavailable {
		t.Fatalf("two same-key members for one free slot: status %d, want 503", status)
	}
	if n := jobCount(); n != before {
		t.Fatalf("rejected duplicate batch changed job count: %d, want %d", n, before)
	}
	close(exec.release)
}

// TestBatchServedFromStoreAfterRestart verifies a batch of sweeps persisted
// by an earlier server is served whole from the stored cells after a
// restart: every member is born done, and nothing is simulated again.
func TestBatchServedFromStoreAfterRestart(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	seeds := []int64{1, 2, 3, 4, 5}

	st1 := openStore(t, dir)
	h1 := newHarness(t, Config{Store: st1, Execute: countingExec(&calls)})
	for _, seed := range seeds {
		view, _ := h1.submit(tinyRequest(seed))
		h1.waitState(view.ID, StateDone)
	}
	if n := calls.Load(); n != int64(2*len(seeds)) {
		t.Fatalf("setup simulated %d cells, want %d", n, 2*len(seeds))
	}
	h1.ts.Close()
	h1.srv.Close()
	st1.Close()

	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	h2 := newHarness(t, Config{Store: st2, Execute: countingExec(&calls)})
	var reqs []refrint.SweepRequest
	for _, seed := range seeds {
		reqs = append(reqs, tinyRequest(seed))
	}
	view, status := h2.submitBatch(BatchRequest{Requests: reqs})
	if status != http.StatusOK {
		t.Fatalf("persisted batch: status %d, want 200 (all members on disk)", status)
	}
	if view.State != StateDone || view.Counts[string(StateDone)] != len(seeds) {
		t.Fatalf("persisted batch = state %q counts %v, want all done", view.State, view.Counts)
	}
	if n := calls.Load(); n != int64(2*len(seeds)) {
		t.Fatalf("persisted batch re-ran sweeps: %d cells simulated in all, want %d", n, 2*len(seeds))
	}
}

// TestBatchKeepsNoEvictedResults verifies batches do not pin results: a
// member job the job history forgets drops its results, while the batch
// still aggregates and traces it.  That holds for a batch nobody polls, with
// no later batch submission needed.
func TestBatchKeepsNoEvictedResults(t *testing.T) {
	h := newHarness(t, Config{JobHistory: 1})
	// heldResults reports whether each job of a batch still holds results.
	heldResults := func(id string) []bool {
		h.srv.mu.Lock()
		defer h.srv.mu.Unlock()
		var held []bool
		for _, j := range h.srv.batches[id].jobs {
			held = append(held, j.res != nil)
		}
		return held
	}

	view, _ := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(1), tinyRequest(2)},
	})
	done := h.waitBatchState(view.ID, StateDone)

	// Age the member jobs out of the history; the batch still aggregates.
	last, _ := h.submit(tinyRequest(3))
	h.waitState(last.ID, StateDone)
	if resp := h.do("GET", "/v1/sweeps/"+done.Jobs[0].ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("member job survived JobHistory=1 eviction: status %d", resp.StatusCode)
	}
	for i, held := range heldResults(view.ID) {
		if held {
			t.Errorf("evicted member %d still holds its results", i)
		}
	}
	after := h.getBatch(view.ID)
	if after.State != StateDone || after.Counts[string(StateDone)] != 2 {
		t.Fatalf("batch after member eviction = state %q counts %v, want done:2", after.State, after.Counts)
	}
	var btv BatchTraceView
	h.do("GET", "/v1/batches/"+view.ID+"/trace", nil, &btv)
	if len(btv.Traces) != 2 {
		t.Fatalf("batch trace after member eviction has %d members, want 2", len(btv.Traces))
	}
	for _, tr := range btv.Traces {
		checkTimeline(t, tr, true)
	}

	// A batch nobody polls: its member drops its results once a plain
	// submission pushes it out of the history.
	unpolled, _ := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(4)},
	})
	h.waitState(unpolled.Jobs[0].ID, StateDone) // poll the job, not the batch
	if held := heldResults(unpolled.ID); !held[0] {
		t.Fatal("member in the history lost its results")
	}
	next, _ := h.submit(tinyRequest(5))
	h.waitState(next.ID, StateDone)
	if held := heldResults(unpolled.ID); held[0] {
		t.Fatal("member of an unpolled batch still holds its results after leaving the history")
	}
}

// TestBatchAllCacheHits verifies a batch whose members are all already
// cached answers 200 and is born done.
func TestBatchAllCacheHits(t *testing.T) {
	h := newHarness(t, Config{})
	first, _ := h.submit(tinyRequest(1))
	h.waitState(first.ID, StateDone)

	view, status := h.submitBatch(BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(1), tinyRequest(1)},
	})
	if status != http.StatusOK {
		t.Fatalf("all-cached batch: status %d, want 200", status)
	}
	if view.State != StateDone || view.Counts[string(StateDone)] != 2 {
		t.Fatalf("all-cached batch = state %q counts %v", view.State, view.Counts)
	}
	for _, j := range view.Jobs {
		if !j.CacheHit {
			t.Errorf("member %s not marked cache_hit", j.ID)
		}
	}
}
