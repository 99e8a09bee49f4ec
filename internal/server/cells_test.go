package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"refrint"
	"refrint/internal/sweep"
)

// cellSim is a per-cell ExecuteFunc that counts simulations by cell key and
// holds every cell of its gated seeds until released (one send per cell, or
// close for all) or until the cell's context dies.  Other seeds simulate at
// once.
type cellSim struct {
	gated   map[int64]bool
	started chan sweep.CellKey
	release chan struct{}

	mu   sync.Mutex
	sims map[sweep.CellKey]int
}

func newCellSim(gatedSeeds ...int64) *cellSim {
	g := &cellSim{
		gated:   make(map[int64]bool),
		started: make(chan sweep.CellKey, 64), // past any test's cell count: announcing never blocks
		release: make(chan struct{}),
		sims:    make(map[sweep.CellKey]int),
	}
	for _, seed := range gatedSeeds {
		g.gated[seed] = true
	}
	return g
}

func (g *cellSim) fn(ctx context.Context, opts sweep.Options, c sweep.Cell) (sweep.Run, error) {
	g.mu.Lock()
	g.sims[c.Key]++
	g.mu.Unlock()
	if g.gated[c.Key.Seed] {
		g.started <- c.Key
		select {
		case <-g.release:
		case <-ctx.Done():
			return sweep.Run{}, ctx.Err()
		}
	}
	return sweep.RunCell(ctx, opts, c)
}

// simulations returns how often each cell was simulated.
func (g *cellSim) simulations() map[sweep.CellKey]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[sweep.CellKey]int, len(g.sims))
	for k, n := range g.sims {
		out[k] = n
	}
	return out
}

// assertSimulatedOnce fails unless exactly want distinct cells were
// simulated, each once.
func assertSimulatedOnce(t *testing.T, g *cellSim, want int) {
	t.Helper()
	sims := g.simulations()
	for k, n := range sims {
		if n != 1 {
			t.Errorf("cell %s %s@%g simulated %d times, want 1", k.App, k.Policy, k.RetentionUS, n)
		}
	}
	if len(sims) != want {
		t.Errorf("%d distinct cells simulated, want %d", len(sims), want)
	}
}

// assertResultsMatchLibrary fails unless a done job's served results equal
// refrint.RunSweep of the same request, byte for byte.
func assertResultsMatchLibrary(t *testing.T, h *harness, jobID string, req refrint.SweepRequest) {
	t.Helper()
	var got sweep.Export
	if resp := h.do("GET", "/v1/sweeps/"+jobID+"/results", nil, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results of %s: status %d", jobID, resp.StatusCode)
	}
	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := refrint.RunSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(lib.Export())
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("job %s served results that differ from refrint.RunSweep", jobID)
	}
}

// pairRequest is a background sweep of two applications, three cells each.
func pairRequest(a, b string, seed int64) refrint.SweepRequest {
	return refrint.SweepRequest{
		Apps:             []string{a, b},
		RetentionTimesUS: []float64{50},
		Policies:         []string{"R.valid", "P.all"},
		EffortScale:      0.05,
		Seed:             seed,
		Priority:         "background",
	}
}

// TestOverlappingSweepsSimulateEachCellOnce submits three sweeps that
// overlap pairwise, in the shape of the benchmark's background rounds
// ({A,B}, {B,C}, {C,A}), while the first one's cells are held in flight:
// every distinct cell is simulated exactly once, the store counts a miss
// only for those, and each sweep's results equal the library's.
func TestOverlappingSweepsSimulateEachCellOnce(t *testing.T) {
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	sim := newCellSim(7)
	h := newHarness(t, Config{Workers: 2, Store: st, Execute: sim.fn})

	reqs := []refrint.SweepRequest{
		pairRequest("FFT", "LU", 7),
		pairRequest("LU", "Blackscholes", 7),
		pairRequest("Blackscholes", "FFT", 7),
	}
	var ids []string
	for i, req := range reqs {
		view, status := h.submit(req)
		if status != http.StatusAccepted {
			t.Fatalf("sweep %d: status %d", i, status)
		}
		ids = append(ids, view.ID)
		if i == 0 {
			<-sim.started // the first sweep's cells are running when the others arrive
		}
	}
	close(sim.release)
	for i, id := range ids {
		h.waitState(id, StateDone)
		assertResultsMatchLibrary(t, h, id, reqs[i])
	}

	assertSimulatedOnce(t, sim, 9) // 3 applications x 3 cells
	text := h.metricsText()
	if got := metricValue(t, text, "refrint_cell_cache_misses_total"); got != 9 {
		t.Errorf("refrint_cell_cache_misses_total = %g, want 9 (one per simulated cell)", got)
	}
	if got := metricValue(t, text, "refrint_cell_inflight_joins_total"); got != 9 {
		t.Errorf("refrint_cell_inflight_joins_total = %g, want 9 (every application's second sweep)", got)
	}
}

// TestInteractiveWaitsAtMostOneCell pins the point of cell-granular
// scheduling with preemption: with the only worker busy on a background
// sweep of many held cells, an interactive job runs at once — the running
// background cell yields its worker — instead of after the whole
// background sweep, or even after the one cell.  The held cell goes back to
// the front of its queue; this Execute cannot park, so it starts over.  The
// background R.all and P.all cells take the finished R.valid and P.valid
// runs instead of simulating (sweep.Reuse).
func TestInteractiveWaitsAtMostOneCell(t *testing.T) {
	sim := newCellSim(100)
	h := newHarness(t, Config{Workers: 1, Execute: sim.fn})

	bgReq := refrint.SweepRequest{
		Apps:             []string{"FFT"},
		RetentionTimesUS: []float64{50},
		Policies:         []string{"R.valid", "R.dirty", "R.all", "P.all", "P.valid"},
		EffortScale:      0.05,
		Seed:             100,
		Priority:         "background",
	}
	bg, _ := h.submit(bgReq)
	held := <-sim.started // the first of six background cells holds the worker

	inter, status := h.submit(tinyRequest(101))
	if status != http.StatusAccepted {
		t.Fatalf("interactive submit: status %d", status)
	}
	h.waitState(inter.ID, StateDone) // no background cell released
	if got := h.getJob(bg.ID).Progress.Done; got != 0 {
		t.Fatalf("background cells done when the interactive job finished = %d, want 0", got)
	}
	if again := <-sim.started; again != held {
		t.Fatalf("after the interactive job, background cell %v started, want the preempted %v first", again, held)
	}

	close(sim.release)
	h.waitState(bg.ID, StateDone)
	sims := sim.simulations()
	if len(sims) != 6 {
		t.Fatalf("simulated %d distinct cells, want 6 of the 8 (R.all reuses R.valid, P.all P.valid)", len(sims))
	}
	if got := h.schedMetric("refrint_cell_reuses_total"); got != 2 {
		t.Errorf("refrint_cell_reuses_total = %g, want 2 (R.all and P.all)", got)
	}
	for k, n := range sims {
		want := 1
		if k == held {
			want = 2
		}
		if n != want {
			t.Errorf("cell %v simulated %d times, want %d", k, n, want)
		}
	}
	if got := h.schedMetric(`refrint_cell_preemptions_total{class="background"}`); got != 1 {
		t.Errorf("background preemptions = %g, want 1", got)
	}
}

// TestCancelKeepsSharedCellRunning cancels one of two sweeps while a cell
// they share is running: the cell keeps running for the other sweep, which
// completes with the library's results, and nothing is simulated twice.
func TestCancelKeepsSharedCellRunning(t *testing.T) {
	sim := newCellSim(9)
	h := newHarness(t, Config{Workers: 1, Execute: sim.fn})

	small := tinyRequest(9) // FFT: baseline + R.valid
	wide := tinyRequest(9)  // FFT and LU: shares both of small's cells
	wide.Apps = []string{"FFT", "LU"}

	sv, _ := h.submit(small)
	<-sim.started // small's FFT baseline is running
	wv, _ := h.submit(wide)

	var cancelled JobView
	h.do("DELETE", "/v1/sweeps/"+sv.ID, nil, &cancelled)
	if cancelled.State != StateCancelled {
		t.Fatalf("cancelled job state = %q", cancelled.State)
	}
	close(sim.release)
	h.waitState(wv.ID, StateDone)
	assertResultsMatchLibrary(t, h, wv.ID, wide)
	assertSimulatedOnce(t, sim, 4)
	if got := h.getJob(sv.ID).State; got != StateCancelled {
		t.Fatalf("cancelled job revived to %q", got)
	}
}

// TestDeadlineDropsUnsharedQueuedCells lets a sweep outlive its deadline
// while its first cell is held: it fails with "deadline exceeded", its
// queued cells leave the scheduler — except the one another live sweep
// still waits on — and that sweep completes normally.
func TestDeadlineDropsUnsharedQueuedCells(t *testing.T) {
	sim := newCellSim(11)
	h := newHarness(t, Config{Workers: 1, Execute: sim.fn})

	doomed := tinyRequest(11) // FFT: baseline + three policies
	doomed.Policies = []string{"R.valid", "R.dirty", "R.all"}
	doomed.TimeoutMS = 300
	dv, _ := h.submit(doomed)
	<-sim.started // R.valid, created first as R.all's leader, holds the worker; the deadline runs from here

	survivor := tinyRequest(11) // shares the baseline and R.valid
	sv, _ := h.submit(survivor)

	failed := h.waitState(dv.ID, StateFailed)
	if failed.Reason != reasonDeadline || !strings.Contains(failed.Error, "deadline exceeded") {
		t.Fatalf("doomed job = reason %q error %q, want the deadline", failed.Reason, failed.Error)
	}
	if got := metricValue(t, h.metricsText(), "refrint_queue_depth"); got != 1 {
		t.Fatalf("queued cells after the deadline = %g, want 1 (only the shared baseline)", got)
	}

	close(sim.release)
	h.waitState(sv.ID, StateDone)
	assertResultsMatchLibrary(t, h, sv.ID, survivor)
	assertSimulatedOnce(t, sim, 2)
	if got := metricValue(t, h.metricsText(), "refrint_queue_depth"); got != 0 {
		t.Fatalf("queued cells at the end = %g, want 0", got)
	}
}

// TestDuplicateAppsShareCells covers a request naming one application
// twice: its repeated cells join the ones it already has in flight, so each
// is simulated once and the sweep equals the library's — and when a shared
// cell fails, the sweep fails once instead of hanging on its other copy.
func TestDuplicateAppsShareCells(t *testing.T) {
	sim := newCellSim()
	h := newHarness(t, Config{Workers: 1, Execute: sim.fn})
	req := tinyRequest(13)
	req.Apps = []string{"FFT", "FFT"}
	view, _ := h.submit(req)
	h.waitState(view.ID, StateDone)
	assertResultsMatchLibrary(t, h, view.ID, req)
	assertSimulatedOnce(t, sim, 2)

	failing := newHarness(t, Config{Workers: 1, Execute: func(context.Context, sweep.Options, sweep.Cell) (sweep.Run, error) {
		return sweep.Run{}, errors.New("synthetic cell failure")
	}})
	fv, _ := failing.submit(req)
	if got := failing.waitState(fv.ID, StateFailed); !strings.Contains(got.Error, "synthetic cell failure") {
		t.Fatalf("failed job error = %q, want the cell's", got.Error)
	}
	if got := metricValue(t, failing.metricsText(), "refrint_queue_depth"); got != 0 {
		t.Fatalf("queued cells after the failure = %g, want 0", got)
	}
}

// TestDeadlineStopsRunningCell runs the real simulator: a sweep whose
// deadline passes while its first cell is simulating fails with "deadline
// exceeded", and that cell stops at its next context check, freeing the
// worker long before the simulation would have finished (the baseline cell
// at effort 16 runs for seconds).
func TestDeadlineStopsRunningCell(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	req := tinyRequest(17)
	req.EffortScale = 16
	req.TimeoutMS = 20
	view, status := h.submit(req)
	if status != http.StatusAccepted {
		t.Fatalf("POST status = %d, want %d", status, http.StatusAccepted)
	}
	failed := h.waitState(view.ID, StateFailed)
	if failed.Reason != reasonDeadline || !strings.Contains(failed.Error, "deadline exceeded") {
		t.Fatalf("job = reason %q error %q, want the deadline", failed.Reason, failed.Error)
	}
	const freeWithin = 300 * time.Millisecond
	for deadline := time.Now().Add(freeWithin); ; {
		busy := h.schedMetric("refrint_sched_busy_workers")
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refrint_sched_busy_workers = %g %v after the deadline, want 0: the cancelled cell kept running", busy, freeWithin)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := metricValue(t, h.metricsText(), "refrint_sims_completed_total"); got != 0 {
		t.Errorf("refrint_sims_completed_total = %g, want 0 (no cell ran to completion)", got)
	}
}
