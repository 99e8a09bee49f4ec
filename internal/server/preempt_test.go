package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"refrint"
	"refrint/internal/sched"
	"refrint/internal/sweep"
)

// longRequest is a real sweep of two cells (the SRAM baseline and R.valid)
// long enough to be running whenever a test submits something else: at
// this effort a cell issues hundreds of poll slices' worth of references.
func longRequest(seed int64, priority string, effort float64) refrint.SweepRequest {
	return refrint.SweepRequest{
		Apps:             []string{"FFT"},
		RetentionTimesUS: []float64{50},
		Policies:         []string{"R.valid"},
		EffortScale:      effort,
		Seed:             seed,
		Priority:         priority,
	}
}

// waitMetric polls /metrics until the sample satisfies ok, with a deadline.
func (h *harness) waitMetric(name string, ok func(float64) bool) float64 {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := h.schedMetric(name)
		if ok(v) {
			return v
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("%s = %g, still not as wanted after 30s", name, v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func equals(want float64) func(float64) bool { return func(v float64) bool { return v == want } }

// preemptions returns refrint_cell_preemptions_total for one class.
func (h *harness) preemptions(c sched.Class) float64 {
	h.t.Helper()
	return h.schedMetric(fmt.Sprintf("refrint_cell_preemptions_total{class=%q}", c.String()))
}

// phaseSecondsOf sums a job trace's seconds in one phase.
func phaseSecondsOf(v TraceView, phase string) float64 {
	s := 0.0
	for _, sp := range v.Spans {
		if sp.Phase == phase {
			s += sp.Seconds
		}
	}
	return s
}

// TestInteractivePreemptsBackground is the point of preemption, on the real
// simulator: with both workers busy on long background cells, an
// interactive job starts within a poll slice instead of waiting for a
// background cell to finish.  Its queue wait is shorter than its own
// execution — a few poll slices of work — and no background cell has
// finished when it is done.  The background job resumes from where it
// stopped.
func TestInteractivePreemptsBackground(t *testing.T) {
	h := newHarness(t, Config{Workers: 2})
	bgReq := longRequest(200, "background", 4)
	bg, _ := h.submit(bgReq)
	h.waitMetric("refrint_sched_busy_workers", equals(2))

	inter := tinyRequest(201)
	inter.Priority = "interactive"
	iv, status := h.submit(inter)
	if status != http.StatusAccepted {
		t.Fatalf("interactive submit: status %d", status)
	}
	h.waitState(iv.ID, StateDone)
	if got := h.getJob(bg.ID).Progress.Done; got != 0 {
		t.Fatalf("background cells done when the interactive job finished = %d, want 0", got)
	}
	tr := h.getTrace(iv.ID)
	queued, exec := phaseSecondsOf(tr, phaseQueued), phaseSecondsOf(tr, phaseExecuting)
	t.Logf("interactive job: queued %.2f ms, executing %.2f ms", 1e3*queued, 1e3*exec)
	if queued >= exec {
		t.Errorf("interactive job queued %.2f ms, no shorter than its %.2f ms of execution", 1e3*queued, 1e3*exec)
	}
	if got := h.preemptions(sched.Background); got != 2 {
		t.Errorf("background preemptions = %g, want 2 (one per interactive cell)", got)
	}
	assertResultsMatchLibrary(t, h, iv.ID, inter)

	var cancelled JobView
	h.do("DELETE", "/v1/sweeps/"+bg.ID, nil, &cancelled)
	h.waitMetric("refrint_cells_parked", equals(0))
	h.waitMetric("refrint_sched_busy_workers", equals(0))
}

// TestOnePreemptionPerUrgentCell pins that preemption frees one worker per
// queued urgent cell, not every worker: an interactive job with one cell to
// simulate (its SRAM baseline is stored) preempts one of two running
// background cells, and the other keeps running.
func TestOnePreemptionPerUrgentCell(t *testing.T) {
	h := newHarness(t, Config{Workers: 2})
	warm := tinyRequest(205)
	warm.Priority = "interactive"
	wv, _ := h.submit(warm)
	h.waitState(wv.ID, StateDone)

	bg, _ := h.submit(longRequest(206, "background", 4))
	h.waitMetric("refrint_sched_busy_workers", equals(2))
	one := warm
	one.Policies = []string{"R.dirty"}
	iv, _ := h.submit(one)
	h.waitState(iv.ID, StateDone)
	if got := h.preemptions(sched.Background); got != 1 {
		t.Errorf("background preemptions = %g, want 1 for one urgent cell", got)
	}
	assertResultsMatchLibrary(t, h, iv.ID, one)
	var cancelled JobView
	h.do("DELETE", "/v1/sweeps/"+bg.ID, nil, &cancelled)
	h.waitMetric("refrint_cells_parked", equals(0))
}

// TestSameClassNeverPreempts pins that preemption needs a strictly more
// urgent cell: with the only worker held by a job of one class, further
// jobs of that class or of a less urgent one wait, and nothing is
// preempted or simulated twice.
func TestSameClassNeverPreempts(t *testing.T) {
	for held := sched.Interactive; held < sched.NumClasses; held++ {
		t.Run(held.String(), func(t *testing.T) {
			sim := newCellSim(300, 301)
			h := newHarness(t, Config{Workers: 1, Execute: sim.fn})
			first := tinyRequest(300)
			first.Priority = held.String()
			h.submit(first)
			<-sim.started // the only worker is held

			var ids []string
			for c := held; c < sched.NumClasses; c++ {
				req := tinyRequest(301 + int64(c))
				req.Priority = c.String()
				view, status := h.submit(req)
				if status != http.StatusAccepted {
					t.Fatalf("%s submit: status %d", c, status)
				}
				ids = append(ids, view.ID)
			}
			time.Sleep(20 * time.Millisecond) // a yield would land well within this
			for c := sched.Class(0); c < sched.NumClasses; c++ {
				if got := h.preemptions(c); got != 0 {
					t.Errorf("%s preemptions = %g, want 0", c, got)
				}
			}
			close(sim.release)
			for _, id := range ids {
				h.waitState(id, StateDone)
			}
			assertSimulatedOnce(t, sim, 2*(1+len(ids)))
		})
	}
}

// TestRoundRobinTurnIsNotPreempted pins what keeps preemption from undoing
// the weighted round-robin: a background cell taken on its turn while
// interactive cells wait runs to its end, even when another interactive
// job arrives.
func TestRoundRobinTurnIsNotPreempted(t *testing.T) {
	sim := newCellSim(500, 501, 502, 503)
	h := newHarness(t, Config{Workers: 1, ClassWeights: [sched.NumClasses]int{1, 1, 1}, Execute: sim.fn})
	submit := func(seed int64, priority string) string {
		req := tinyRequest(seed)
		req.Priority = priority
		view, status := h.submit(req)
		if status != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, status)
		}
		return view.ID
	}
	ids := []string{submit(500, "interactive")}
	<-sim.started // spends the interactive credit
	ids = append(ids, submit(501, "background"), submit(502, "interactive"))
	sim.release <- struct{}{}
	if k := <-sim.started; k.Seed != 501 {
		t.Fatalf("cell of seed %d started, want the background job's turn (seed 501)", k.Seed)
	}
	ids = append(ids, submit(503, "interactive"))
	time.Sleep(20 * time.Millisecond) // a yield would land well within this
	if got := h.preemptions(sched.Background); got != 0 {
		t.Errorf("background preemptions = %g, want 0 during its round-robin turn", got)
	}
	close(sim.release)
	for _, id := range ids {
		h.waitState(id, StateDone)
	}
	assertSimulatedOnce(t, sim, 8)
}

// parkBackground starts a long real background job on the harness's only
// worker, then holds that worker with a gated interactive job (sim's gated
// seed 401), so the background cell is preempted and stays parked.  It
// returns both jobs.
func parkBackground(t *testing.T, h *harness, sim *cellSim, bgReq refrint.SweepRequest) (bg, inter JobView) {
	t.Helper()
	bg, status := h.submit(bgReq)
	if status != http.StatusAccepted {
		t.Fatalf("background submit: status %d", status)
	}
	h.waitMetric("refrint_sched_busy_workers", equals(1))
	ir := tinyRequest(401)
	ir.Priority = "interactive"
	inter, _ = h.submit(ir)
	<-sim.started
	h.waitMetric("refrint_cells_parked", equals(1))
	if got := h.preemptions(sched.Background); got != 1 {
		t.Fatalf("background preemptions = %g, want 1", got)
	}
	return bg, inter
}

// TestParkedCellWithdrawn covers the ways a parked cell leaves without
// resuming — its job cancelled, its job's deadline, the server closing —
// each of which drops its simulator and fails no other job.
func TestParkedCellWithdrawn(t *testing.T) {
	t.Run("cancel", func(t *testing.T) {
		sim := newCellSim(401)
		h := newHarness(t, Config{Workers: 1, Execute: sim.fn})
		bg, inter := parkBackground(t, h, sim, longRequest(400, "background", 4))
		var view JobView
		h.do("DELETE", "/v1/sweeps/"+bg.ID, nil, &view)
		if view.State != StateCancelled {
			t.Fatalf("cancelled background job: state %q", view.State)
		}
		h.waitMetric("refrint_cells_parked", equals(0))
		close(sim.release)
		h.waitState(inter.ID, StateDone)
		if got := h.schedMetric(`refrint_sched_queue_depth{class="background"}`); got != 0 {
			t.Errorf("background queue depth = %g after cancel, want 0", got)
		}
	})
	t.Run("timeout", func(t *testing.T) {
		sim := newCellSim(401)
		h := newHarness(t, Config{Workers: 1, Execute: sim.fn})
		req := longRequest(402, "background", 4)
		req.TimeoutMS = 300
		bg, inter := parkBackground(t, h, sim, req)
		h.waitState(bg.ID, StateFailed)
		h.waitMetric("refrint_cells_parked", equals(0))
		close(sim.release)
		h.waitState(inter.ID, StateDone)
		if got := h.schedMetric(`refrint_job_timeouts_total{class="background"}`); got != 1 {
			t.Errorf("background timeouts = %g, want 1", got)
		}
	})
	t.Run("close", func(t *testing.T) {
		sim := newCellSim(401)
		h := newHarness(t, Config{Workers: 1, Execute: sim.fn})
		bg, inter := parkBackground(t, h, sim, longRequest(403, "background", 4))
		closed := make(chan struct{})
		go func() {
			h.srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return with a parked cell")
		}
		h.srv.mu.Lock()
		parked, running := h.srv.parked, len(h.srv.running)
		h.srv.mu.Unlock()
		if parked != 0 || running != 0 {
			t.Errorf("after Close: %d parked, %d running cells, want none", parked, running)
		}
		for _, id := range []string{bg.ID, inter.ID} {
			if v := h.getJob(id); v.State != StateCancelled {
				t.Errorf("job %s after Close: state %q (%s), want cancelled", id, v.State, v.Error)
			}
		}
	})
}

// TestPromoteParkedCellKeepsSystem promotes a job whose cell is parked:
// the cell moves to the new class with its half-run simulation, resumes
// from it (its Execute ran once) and gives the library's results.
func TestPromoteParkedCellKeepsSystem(t *testing.T) {
	sim := newCellSim(401)
	h := newHarness(t, Config{Workers: 1, Execute: sim.fn})
	bgReq := longRequest(410, "background", 0.3)
	bg, inter := parkBackground(t, h, sim, bgReq)

	promote := bgReq
	promote.Priority = "batch"
	if view, status := h.submit(promote); status != http.StatusAccepted || view.Key != bg.Key {
		t.Fatalf("promoting resubmission: status %d, key %s want %s", status, view.Key, bg.Key)
	}
	if got := h.schedMetric(`refrint_sched_queue_depth{class="batch"}`); got != 2 {
		t.Errorf("batch queue depth after promotion = %g, want 2 (the parked cell and its sibling)", got)
	}
	if got := h.schedMetric("refrint_cells_parked"); got != 1 {
		t.Errorf("parked cells after promotion = %g, want 1", got)
	}
	close(sim.release)
	h.waitState(inter.ID, StateDone)
	h.waitState(bg.ID, StateDone)
	assertResultsMatchLibrary(t, h, bg.ID, bgReq)
	assertSimulatedOnce(t, sim, 4) // the parked cell resumed, not restarted
	if got := h.schedMetric("refrint_cells_parked"); got != 0 {
		t.Errorf("parked cells at the end = %g, want 0", got)
	}
}

// TestFloodParksAtMostWorkers floods two workers with background, then
// batch, then interactive jobs on the real simulator: background cells
// yield to batch ones, and batch cells would yield to interactive ones, but
// no more than Workers cells are ever parked.  The batch cells hold their
// workers at a gate until every interactive job is queued, so the flood
// meets the park bound whatever the host's speed.  Background work runs
// only when nothing more urgent waits: no background slice starts while a
// more urgent cell is queued except on its weighted round-robin turn, and
// eight urgent cells bring no turn due at the default 16/4/1 weights.  So,
// checked under the server mutex while the flood runs, no background slice
// runs on a turn, nor past a more urgent queued cell while every worker is
// busy and a park slot is free.  How far background work gets while nothing
// more urgent waits depends on host timing and is not checked.  The batch
// and interactive jobs complete with the library's results.
func TestFloodParksAtMostWorkers(t *testing.T) {
	const workers, batchSeed = 2, 421
	gate := make(chan struct{})
	exec := func(ctx context.Context, opts sweep.Options, c sweep.Cell) (sweep.Run, error) {
		if opts.Seed == batchSeed {
			select {
			case <-gate:
			case <-ctx.Done():
				return sweep.Run{}, ctx.Err()
			}
		}
		return sweep.RunCell(ctx, opts, c)
	}
	h := newHarness(t, Config{Workers: workers, Execute: exec})
	bg, _ := h.submit(longRequest(420, "background", 4))
	h.waitMetric("refrint_sched_busy_workers", equals(workers))

	var owed string // the first background slice found running past urgent work
	sampling, stopSampling := context.WithCancel(context.Background())
	defer stopSampling()
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			s := h.srv
			s.mu.Lock()
			urgent := s.urgentQueuedLocked(sched.Background)
			owing := len(s.running) >= workers && s.parked+s.yields < workers && urgent > s.yields
			for _, c := range s.running {
				switch {
				case owed != "" || c.class != sched.Background:
				case c.turn:
					owed = fmt.Sprintf("cell %s runs on a weighted round-robin turn", c.sc.Key.Hash())
				case owing && !c.yielding:
					owed = fmt.Sprintf("cell %s runs with %d more urgent cells queued, %d parked, %d yielding",
						c.sc.Key.Hash(), urgent, s.parked, s.yields)
				}
			}
			s.mu.Unlock()
			select {
			case <-sampling.Done():
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	reqs := []refrint.SweepRequest{longRequest(batchSeed, "batch", 0.5)}
	for seed := int64(422); seed < 425; seed++ {
		req := tinyRequest(seed)
		req.Priority = "interactive"
		reqs = append(reqs, req)
	}
	var ids []string
	for i, req := range reqs {
		view, status := h.submit(req)
		if status != http.StatusAccepted {
			t.Fatalf("submit %s seed %d: status %d", req.Priority, req.Seed, status)
		}
		ids = append(ids, view.ID)
		if i == 0 {
			// Both background cells yield; the workers hold batch cells now.
			h.waitMetric("refrint_cells_parked", equals(workers))
		}
	}
	close(gate)

	maxParked := 0.0
	for i, id := range ids {
		for {
			maxParked = max(maxParked, h.schedMetric("refrint_cells_parked"))
			v := h.getJob(id)
			if v.State.Terminal() {
				if v.State != StateDone {
					t.Fatalf("job %d (%s): state %q: %s", i, reqs[i].Priority, v.State, v.Error)
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Logf("at most %g cells parked; preemptions: background %g, batch %g", maxParked,
		h.preemptions(sched.Background), h.preemptions(sched.Batch))
	stopSampling()
	<-sampled
	if owed != "" {
		t.Errorf("background slice runs past urgent work: %s", owed)
	}
	if maxParked > workers {
		t.Errorf("%g cells parked at once, want at most %d", maxParked, workers)
	}
	for i, id := range ids {
		assertResultsMatchLibrary(t, h, id, reqs[i])
	}
	var cancelled JobView
	h.do("DELETE", "/v1/sweeps/"+bg.ID, nil, &cancelled)
	h.waitMetric("refrint_cells_parked", equals(0))
}
