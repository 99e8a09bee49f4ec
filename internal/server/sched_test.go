package server

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"refrint/internal/sched"
)

// schedMetric fetches /metrics and extracts one sample (mustKey, getText and
// metricValue live in persist_test.go).
func (h *harness) schedMetric(name string) float64 {
	h.t.Helper()
	text, status := h.getText("/metrics")
	if status != http.StatusOK {
		h.t.Fatalf("GET /metrics: status %d", status)
	}
	return metricValue(h.t, text, name)
}

// TestCancelWhileQueuedFreesSlot is the regression for the queue-slot leak:
// cancelled-but-queued jobs used to keep occupying their bounded queue slot
// until a worker popped them, turning an idle server into a 503 generator.
// Now cancel frees the slot immediately.
func TestCancelWhileQueuedFreesSlot(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Workers: 1, QueueDepth: 2, Execute: exec.fn})

	running, _ := h.submit(tinyRequest(1))
	<-exec.started // seed 1 occupies the only worker

	queued := make([]JobView, 0, 2)
	for seed := int64(2); seed <= 3; seed++ {
		view, status := h.submit(tinyRequest(seed))
		if status != http.StatusAccepted {
			t.Fatalf("seed %d: status %d, want 202", seed, status)
		}
		queued = append(queued, view)
	}
	if _, status := h.submit(tinyRequest(4)); status != http.StatusServiceUnavailable {
		t.Fatalf("submit into a full queue: status %d, want 503", status)
	}

	// Cancel everything queued.  No worker pops anything (the only worker
	// is still blocked), so acceptance below proves cancel itself freed the
	// slots.
	for _, view := range queued {
		var cancelled JobView
		h.do("DELETE", "/v1/sweeps/"+view.ID, nil, &cancelled)
		if cancelled.State != StateCancelled {
			t.Fatalf("job %s state = %q after cancel", view.ID, cancelled.State)
		}
	}
	var hz struct {
		Queued int `json:"queued"`
	}
	h.do("GET", "/healthz", nil, &hz)
	if hz.Queued != 0 {
		t.Fatalf("healthz queued = %d after cancelling all queued jobs, want 0", hz.Queued)
	}

	view, status := h.submit(tinyRequest(4))
	if status != http.StatusAccepted {
		t.Fatalf("submit after cancel-all: status %d, want 202 (queue slot leaked)", status)
	}

	close(exec.release)
	h.waitState(running.ID, StateDone)
	h.waitState(view.ID, StateDone)
	// The cancelled sweeps never ran: only seeds 1 and 4 reached the
	// executor.
	if n := exec.calls.Load(); n != 2 {
		t.Fatalf("executor ran %d sweeps, want 2 (cancelled queued sweeps must not run)", n)
	}
}

// TestInteractiveBeatsQueuedBackground pins the priority acceptance
// criterion: with background work running and queued, an interactive
// submission starts first.  It preempts the running background cell, which
// goes back to the front of its class ahead of the queued background work.
func TestInteractiveBeatsQueuedBackground(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Workers: 1, Execute: exec.fn})

	dummy := tinyRequest(10)
	dummy.Priority = "background"
	h.submit(dummy)
	<-exec.started // worker blocked on the dummy

	var bgKeys []string
	for seed := int64(11); seed <= 12; seed++ {
		req := tinyRequest(seed)
		req.Priority = "background"
		req.Client = "hog"
		h.submit(req)
		bgKeys = append(bgKeys, mustKey(t, req))
	}
	inter := tinyRequest(13)
	inter.Priority = "interactive"
	h.submit(inter)

	wantOrder := append([]string{mustKey(t, inter), mustKey(t, dummy)}, bgKeys...)
	for i, want := range wantOrder {
		if got := <-exec.started; got != want {
			t.Fatalf("start %d = %q, want %q (interactive must preempt running and queued background)", i, got, want)
		}
		exec.release <- struct{}{} // finish the sweep that just started
	}
}

// TestFairShareBetweenClients verifies round-robin between two clients
// flooding the batch class: the flooding tenant cannot starve the smaller
// one.
func TestFairShareBetweenClients(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Workers: 1, Execute: exec.fn})

	h.submit(tinyRequest(20))
	<-exec.started // worker blocked

	submitAs := func(seed int64, client string) string {
		req := tinyRequest(seed)
		req.Priority = "batch"
		req.Client = client
		if _, status := h.submit(req); status != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, status)
		}
		return mustKey(t, req)
	}
	a1 := submitAs(21, "alice")
	a2 := submitAs(22, "alice")
	a3 := submitAs(23, "alice")
	b1 := submitAs(24, "bob")
	b2 := submitAs(25, "bob")

	wantOrder := []string{a1, b1, a2, b2, a3}
	for i, want := range wantOrder {
		exec.release <- struct{}{}
		if got := <-exec.started; got != want {
			t.Fatalf("start %d = %q, want %q (clients must round-robin)", i, got, want)
		}
	}
	close(exec.release)
}

// TestOneClientBacklogKeepsWorkersBusy is the mixed-load acceptance
// criterion: one client's backlog of background sweeps plus an interactive
// arrival.  Both workers must go busy (nobody idles while the queues hold
// work) and the interactive sweep starts before the queued background one.
func TestOneClientBacklogKeepsWorkersBusy(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Workers: 2, Execute: exec.fn})

	for seed := int64(1); seed <= 3; seed++ {
		req := tinyRequest(seed)
		req.Priority = "background"
		req.Client = "hog"
		if _, status := h.submit(req); status != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, status)
		}
	}
	<-exec.started
	<-exec.started // two sweeps running, one per worker

	deadline := time.Now().Add(5 * time.Second)
	for h.schedMetric("refrint_sched_busy_workers") != 2 {
		if time.Now().After(deadline) {
			t.Fatal("both workers never went busy")
		}
		time.Sleep(time.Millisecond)
	}
	// The queues hold cells: the third sweep's two.  Four cells were
	// dequeued: both cells of each of the two running sweeps.
	if v := h.schedMetric(`refrint_sched_queue_depth{class="background"}`); v != 2 {
		t.Fatalf("background queue depth = %v, want 2 (third sweep's cells waiting)", v)
	}
	if v := h.schedMetric("refrint_queue_depth"); v != 2 {
		t.Fatalf("total queue depth = %v, want 2", v)
	}
	if v := h.schedMetric(`refrint_sched_wait_seconds_count{class="background"}`); v != 4 {
		t.Fatalf("wait count = %v, want 4 dequeues observed", v)
	}

	// An interactive arrival overtakes the still-queued background sweep.
	inter := tinyRequest(100)
	inter.Priority = "interactive"
	h.submit(inter)
	exec.release <- struct{}{}
	if got, want := <-exec.started, mustKey(t, inter); got != want {
		t.Fatalf("next start = %q, want interactive %q", got, want)
	}
	close(exec.release)
}

// TestPercentClampedWhileRunning pins the progress-bar fix: a sweep whose
// cells have all completed while its sweep blob is still being persisted
// must show 99%, reaching 100 only in a terminal state.  Store writes are
// slowed down to hold that window open.
func TestPercentClampedWhileRunning(t *testing.T) {
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	h := newHarness(t, Config{Store: st})
	enableFaults(t, "store.put:latency:300ms")

	// allCellsDone polls until the job's every cell has completed.
	allCellsDone := func(id string) JobView {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			v := h.getJob(id)
			if v.Progress.Total > 0 && v.Progress.Done == v.Progress.Total {
				return v
			}
			if v.State.Terminal() || time.Now().After(deadline) {
				t.Fatalf("job %s: state %q progress %+v before all cells completed", id, v.State, v.Progress)
			}
			time.Sleep(time.Millisecond)
		}
	}

	view, _ := h.submit(tinyRequest(1))
	mid := allCellsDone(view.ID)
	if mid.State != StateRunning || mid.Progress.Done != 2 {
		t.Fatalf("persisting job = state %q progress %+v, want running with done 2/2", mid.State, mid.Progress)
	}
	if mid.Progress.Percent != 99 {
		t.Fatalf("running job with done==total shows %d%%, want 99 (100 must mean terminal)", mid.Progress.Percent)
	}
	// A job cancelled with all its simulations complete also stays at 99:
	// 100 strictly means done.
	view2, _ := h.submit(tinyRequest(2))
	allCellsDone(view2.ID)
	var cancelled JobView
	h.do("DELETE", "/v1/sweeps/"+view2.ID, nil, &cancelled)
	if cancelled.State != StateCancelled || cancelled.Progress.Percent != 99 {
		t.Fatalf("cancelled job = state %q, %d%%, want cancelled at 99", cancelled.State, cancelled.Progress.Percent)
	}

	done := h.waitState(view.ID, StateDone)
	if done.Progress.Percent != 100 {
		t.Fatalf("done job shows %d%%, want 100", done.Progress.Percent)
	}
}

// TestPriorityValidationAndView covers the wire form: bad priority labels
// are rejected, and the job view reports the effective class.
func TestPriorityValidationAndView(t *testing.T) {
	h := newHarness(t, Config{})
	bad := tinyRequest(1)
	bad.Priority = "turbo"
	if _, status := h.submit(bad); status != http.StatusBadRequest {
		t.Fatalf("unknown priority: status %d, want 400", status)
	}

	req := tinyRequest(2)
	req.Priority = "background"
	view, _ := h.submit(req)
	if view.Priority != "background" {
		t.Fatalf("job priority = %q, want background", view.Priority)
	}
	h.waitState(view.ID, StateDone)

	// Default priority is interactive.
	view2, _ := h.submit(tinyRequest(3))
	if view2.Priority != "interactive" {
		t.Fatalf("default job priority = %q, want interactive", view2.Priority)
	}
	h.waitState(view2.ID, StateDone)
}

// TestUrgentJobPromotesSharedQueuedCells verifies priority inheritance: an
// interactive job joining the queued cells of a background job drags them
// ahead of other background work.
func TestUrgentJobPromotesSharedQueuedCells(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Workers: 1, Execute: exec.fn})

	h.submit(tinyRequest(30))
	<-exec.started // worker blocked

	first := tinyRequest(31)
	first.Priority = "background"
	h.submit(first)
	shared := tinyRequest(32)
	shared.Priority = "background"
	h.submit(shared)

	// An interactive job for the same sweep as the *second* background job
	// joins its cells and promotes them past the first.
	urgent := tinyRequest(32)
	urgent.Priority = "interactive"
	attach, status := h.submit(urgent)
	if status != http.StatusAccepted {
		t.Fatalf("attach submit: status %d", status)
	}
	if attach.Key != mustKey(t, shared) {
		t.Fatalf("urgent job has key %q, want the shared sweep's", attach.Key)
	}

	wantOrder := []string{mustKey(t, shared), mustKey(t, first)}
	for i, want := range wantOrder {
		exec.release <- struct{}{}
		if got := <-exec.started; got != want {
			t.Fatalf("start %d = %q, want %q (urgent attach must promote)", i, got, want)
		}
	}
	close(exec.release)
	if n := exec.calls.Load(); n != 3 {
		t.Fatalf("executor ran %d gated cells, want 3 (the urgent job shared one)", n)
	}
}

// TestCancelUrgentJobDemotesSharedCells pins the inverse of priority
// inheritance: when the urgent job that promoted shared queued cells
// cancels, its admission slot frees and the cells fall back to the most
// urgent job still waiting on them.
func TestCancelUrgentJobDemotesSharedCells(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{
		Workers:         1,
		ClassQueueDepth: [sched.NumClasses]int{1, 4, 4},
		Execute:         exec.fn,
	})

	h.submit(tinyRequest(1))
	<-exec.started // occupy the worker

	bg := tinyRequest(5)
	bg.Priority = "background"
	h.submit(bg)
	urgent := tinyRequest(5)
	urgent.Priority = "interactive"
	uview, _ := h.submit(urgent) // joins the cells and promotes them to interactive

	if v := h.schedMetric(`refrint_sweeps_queued{class="interactive"}`); v != 1 {
		t.Fatalf("interactive queued sweeps = %v after promotion, want 1", v)
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="interactive"}`); v != 2 {
		t.Fatalf("interactive depth = %v after promotion, want 2 (the sweep's cells)", v)
	}
	other := tinyRequest(6)
	other.Priority = "interactive"
	if _, status := h.submit(other); status != http.StatusServiceUnavailable {
		t.Fatalf("interactive submit with the class full: status %d, want 503", status)
	}

	// Cancelling the urgent job frees its slot and demotes the cells back to
	// background.
	h.do("DELETE", "/v1/sweeps/"+uview.ID, nil, nil)
	if v := h.schedMetric(`refrint_sweeps_queued{class="interactive"}`); v != 0 {
		t.Fatalf("interactive queued sweeps = %v after urgent cancel, want 0 (slot freed)", v)
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="interactive"}`); v != 0 {
		t.Fatalf("interactive depth = %v after urgent cancel, want 0 (cells demoted)", v)
	}
	if v := h.schedMetric(`refrint_sched_queue_depth{class="background"}`); v != 2 {
		t.Fatalf("background depth = %v after urgent cancel, want 2", v)
	}
	if _, status := h.submit(other); status != http.StatusAccepted {
		t.Fatalf("interactive submit after demotion: status %d, want 202 (slot freed)", status)
	}
	close(exec.release)
}

// TestClassDepthIsolation verifies per-class bounds: filling the background
// queue must not reject interactive submissions, and no class ever holds
// more queued sweeps than its bound.
func TestClassDepthIsolation(t *testing.T) {
	exec := newBlockingExec()
	bounds := [sched.NumClasses]int{2, 2, 1}
	h := newHarness(t, Config{
		Workers:         1,
		ClassQueueDepth: bounds,
		Execute:         exec.fn,
	})
	submit := func(seed int64, priority string, want int) {
		t.Helper()
		req := tinyRequest(seed)
		req.Priority = priority
		if _, status := h.submit(req); status != want {
			t.Fatalf("%s seed %d: status %d, want %d", priority, seed, status, want)
		}
		for c := sched.Class(0); c < sched.NumClasses; c++ {
			name := fmt.Sprintf("refrint_sweeps_queued{class=%q}", c.String())
			if v := h.schedMetric(name); v > float64(bounds[c]) {
				t.Fatalf("%s = %g, past its bound %d", name, v, bounds[c])
			}
		}
	}

	submit(40, "interactive", http.StatusAccepted)
	<-exec.started
	submit(41, "background", http.StatusAccepted)
	submit(42, "background", http.StatusServiceUnavailable)
	submit(43, "interactive", http.StatusAccepted)
	submit(44, "interactive", http.StatusAccepted)
	submit(45, "interactive", http.StatusServiceUnavailable)
	close(exec.release)
}

// TestJobClassFixedAtAdmission verifies that a queued sweep keeps the class
// it was admitted to while a more urgent class sits at its bound: nothing
// moves it up, so the urgent class never holds more queued sweeps than
// ClassQueueDepth allows, and the sweep still runs once the worker frees.
func TestJobClassFixedAtAdmission(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{
		Workers:         1,
		ClassQueueDepth: [sched.NumClasses]int{1, 4, 4},
		Execute:         exec.fn,
	})

	pin, _ := h.submit(tinyRequest(1))
	<-exec.started // the only worker is now occupied

	if _, status := h.submit(tinyRequest(2)); status != http.StatusAccepted {
		t.Fatalf("interactive fill: status %d, want 202", status)
	}
	batch := tinyRequest(3)
	batch.Priority = "batch"
	bview, status := h.submit(batch)
	if status != http.StatusAccepted {
		t.Fatalf("batch submit: status %d, want 202", status)
	}
	if _, status := h.submit(tinyRequest(4)); status != http.StatusServiceUnavailable {
		t.Fatalf("interactive submit past the bound: status %d, want 503", status)
	}

	if v := h.schedMetric(`refrint_sweeps_queued{class="interactive"}`); v != 1 {
		t.Fatalf("interactive queued sweeps = %v, want 1 (its bound)", v)
	}
	if v := h.schedMetric(`refrint_sweeps_queued{class="batch"}`); v != 1 {
		t.Fatalf("batch queued sweeps = %v, want 1", v)
	}
	if p := h.getJob(bview.ID).Priority; p != "batch" {
		t.Fatalf("queued job reports priority %q, want batch", p)
	}

	close(exec.release)
	if p := h.waitState(bview.ID, StateDone).Priority; p != "batch" {
		t.Fatalf("finished job reports priority %q, want batch", p)
	}
	h.waitState(pin.ID, StateDone)
}
