package server

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"refrint"
	"refrint/internal/config"
	"refrint/internal/sched"
	"refrint/internal/sweep"
)

// reuseEffort keeps the reuse tests' cells short; the race detector slows
// a simulation about tenfold.
const reuseEffort = 0.02

// backgroundBatch is the shape of the benchmark's background round: three
// sweeps of two applications each, overlapping pairwise, with every policy
// at 50 µs.
func backgroundBatch(seed int64, effort float64) BatchRequest {
	b := BatchRequest{Priority: "background", Client: "background"}
	for _, pair := range [][]string{{"FFT", "LU"}, {"LU", "Blackscholes"}, {"Blackscholes", "FFT"}} {
		b.Requests = append(b.Requests, refrint.SweepRequest{
			Apps:             pair,
			RetentionTimesUS: []float64{50},
			EffortScale:      effort,
			Seed:             seed,
		})
	}
	return b
}

// aloneResults runs every distinct cell of reqs through sweep.RunCell on
// its own, the reference a served cell must equal.
func aloneResults(t *testing.T, reqs []refrint.SweepRequest) map[sweep.CellKey]sweep.Run {
	t.Helper()
	type job struct {
		opts sweep.Options
		cell sweep.Cell
	}
	var jobs []job
	seen := make(map[sweep.CellKey]bool)
	for _, req := range reqs {
		opts, err := req.Options()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sweep.Cells(opts) {
			if !seen[c.Key] {
				seen[c.Key] = true
				jobs = append(jobs, job{opts, c})
			}
		}
	}
	runs := make([]sweep.Run, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	var next atomic.Int64
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				runs[i], errs[i] = sweep.RunCell(context.Background(), jobs[i].opts, jobs[i].cell)
			}
		}()
	}
	wg.Wait()
	out := make(map[sweep.CellKey]sweep.Run, len(jobs))
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s %s alone: %v", j.cell.App, j.cell.Point.Key(), errs[i])
		}
		out[j.cell.Key] = runs[i]
	}
	return out
}

// assertServedAlone checks every cell of each done job against want: the
// Result the job assembled equals the cell simulated alone, in every field.
func assertServedAlone(t *testing.T, h *harness, ids []string, reqs []refrint.SweepRequest, want map[sweep.CellKey]sweep.Run) {
	t.Helper()
	for k, id := range ids {
		h.srv.mu.Lock()
		res := h.srv.jobs[id].res
		h.srv.mu.Unlock()
		if res == nil {
			t.Fatalf("job %s has no results", id)
		}
		opts, err := reqs[k].Options()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sweep.Cells(opts) {
			got, ok := res.Lookup(c.App, c.Point)
			if !ok {
				t.Fatalf("job %s: %s %s missing", id, c.App, c.Point.Key())
			}
			if w := want[c.Key]; !reflect.DeepEqual(got.Result, w.Result) {
				t.Errorf("job %s: %s %s differs from RunCell alone:\n got  %s %v, %d cycles\n want %s %v, %d cycles",
					id, c.App, c.Point.Key(), got.Result.Policy, got.Result.Energy, got.Result.Cycles,
					w.Result.Policy, w.Result.Energy, w.Result.Cycles)
			}
		}
	}
}

// runBatch submits a batch, waits until it is done and returns its job IDs.
func runBatch(t *testing.T, h *harness, b BatchRequest) []string {
	t.Helper()
	view, status := h.submitBatch(b)
	if status != 202 {
		t.Fatalf("batch submit: status %d", status)
	}
	h.waitBatchState(view.ID, StateDone)
	return jobIDs(view)
}

// jobIDs lists the IDs of a batch's jobs in request order.
func jobIDs(view BatchView) []string {
	ids := make([]string, len(view.Jobs))
	for i, j := range view.Jobs {
		ids[i] = j.ID
	}
	return ids
}

// TestServiceReuseMatchesRunCell is the differential test of the service's
// reuse: one background round (three overlapping two-application sweeps,
// 45 distinct cells) at 1 and 2 workers serves every cell with the Result
// of that cell simulated alone, while some followers take their leader's
// run instead of simulating.
func TestServiceReuseMatchesRunCell(t *testing.T) {
	batch := backgroundBatch(31, reuseEffort)
	want := aloneResults(t, batch.Requests)
	for _, workers := range []int{1, 2} {
		h := newHarness(t, Config{Workers: workers})
		ids := runBatch(t, h, batch)
		assertServedAlone(t, h, ids, batch.Requests, want)
		reused := h.schedMetric("refrint_cell_reuses_total")
		misses := h.schedMetric("refrint_cell_cache_misses_total")
		t.Logf("workers=%d: %g of %g computed cells reused a Valid run", workers, reused, misses)
		if reused == 0 {
			t.Errorf("workers=%d: no cell reused a Valid run", workers)
		}
	}
}

// TestServiceReuseSurvivesParking submits an interactive job while the
// only worker simulates the background round's first leader: the leader
// parks, resumes after the interactive job, and keeps its budget watch, so
// its followers are still served from its run.  With one worker every
// follower comes after its leader, so exactly as many cells reuse as in a
// round nothing interrupts.
func TestServiceReuseSurvivesParking(t *testing.T) {
	batch := backgroundBatch(32, reuseEffort)
	want := aloneResults(t, batch.Requests)

	plain := newHarness(t, Config{Workers: 1})
	runBatch(t, plain, batch)
	wantReused := plain.schedMetric("refrint_cell_reuses_total")

	var (
		started    = make(chan struct{})
		once       sync.Once
		leadParked atomic.Bool
	)
	exec := func(ctx context.Context, opts sweep.Options, c sweep.Cell) (sweep.Run, error) {
		lead := c.Point.Policy.Data == config.ValidData && opts.Seed == 32
		if lead {
			once.Do(func() { close(started) })
		}
		run, err := sweep.RunCell(ctx, opts, c)
		var p *sweep.Parked
		if lead && errors.As(err, &p) {
			leadParked.Store(true)
		}
		return run, err
	}
	h := newHarness(t, Config{Workers: 1, Execute: exec})
	view, status := h.submitBatch(batch)
	if status != 202 {
		t.Fatalf("batch submit: status %d", status)
	}
	<-started
	inter := tinyRequest(33)
	inter.Priority = "interactive"
	iv, _ := h.submit(inter)
	h.waitState(iv.ID, StateDone)
	h.waitBatchState(view.ID, StateDone)
	if !leadParked.Load() {
		t.Fatal("no leader parked for the interactive job; the test checks nothing")
	}
	if got := h.preemptions(sched.Background); got < 1 {
		t.Errorf("background preemptions = %g, want at least 1", got)
	}
	assertServedAlone(t, h, jobIDs(view), batch.Requests, want)
	if got := h.schedMetric("refrint_cell_reuses_total"); got != wantReused || got == 0 {
		t.Errorf("refrint_cell_reuses_total = %g with a parked leader, want %g as without", got, wantReused)
	}
}

// TestServiceReuseNeedsAWatchedLeader checks the two cases in which a
// WB(n,m) follower must simulate although its leader is done: the leader
// was served from the store, which keeps no budget watch, or a custom
// Execute returned a Run built afresh, which has none.  The R.all and P.all
// followers of the same leaders follow from any finished Valid run, so in
// both cases they take its Result instead of simulating.
func TestServiceReuseNeedsAWatchedLeader(t *testing.T) {
	req := tinyRequest(34)
	req.Policies = []string{"P.valid", "P.all", "P.WB(32,32)", "R.valid", "R.all", "R.WB(32,32)"}
	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	cells := sweep.Cells(opts)
	static := func(p config.Policy) bool { return p.Time != config.NoRefresh && p.Data == config.AllData }

	t.Run("stored leader", func(t *testing.T) {
		st := openStore(t, t.TempDir())
		t.Cleanup(func() { st.Close() })
		for _, c := range cells {
			if c.Point.Policy.Data != config.ValidData {
				continue
			}
			run, err := sweep.RunCell(context.Background(), opts, c)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PutCell(c.Key, run.Result); err != nil {
				t.Fatal(err)
			}
		}
		sim := newCellSim()
		h := newHarness(t, Config{Workers: 1, Store: st, Execute: sim.fn})
		view, _ := h.submit(req)
		h.waitState(view.ID, StateDone)
		assertResultsMatchLibrary(t, h, view.ID, req)
		assertSimulatedOnce(t, sim, len(cells)-4) // the baseline and the WB cells
		for k := range sim.simulations() {
			if static(k.Policy) {
				t.Errorf("%s simulated, though its Valid leader was stored", k.Policy)
			}
		}
		if got := h.schedMetric("refrint_cell_reuses_total"); got != 2 {
			t.Errorf("refrint_cell_reuses_total = %g with stored leaders, want 2 (R.all and P.all)", got)
		}
	})

	t.Run("stub execute", func(t *testing.T) {
		var mu sync.Mutex
		ran := make(map[config.Policy]int)
		h := newHarness(t, Config{Workers: 1, Execute: func(ctx context.Context, opts sweep.Options, c sweep.Cell) (sweep.Run, error) {
			mu.Lock()
			ran[c.Point.Policy]++
			mu.Unlock()
			run, err := sweep.RunCell(ctx, opts, c)
			return sweep.Run{App: run.App, Point: run.Point, Result: run.Result}, err
		}})
		view, _ := h.submit(req)
		h.waitState(view.ID, StateDone)
		assertResultsMatchLibrary(t, h, view.ID, req)
		mu.Lock()
		defer mu.Unlock()
		for _, c := range cells {
			want := 1
			if static(c.Point.Policy) {
				want = 0
			}
			if ran[c.Point.Policy] != want {
				t.Errorf("Execute ran %s %d times, want %d", c.Point.Key(), ran[c.Point.Policy], want)
			}
		}
		if got := h.schedMetric("refrint_cell_reuses_total"); got != 2 {
			t.Errorf("refrint_cell_reuses_total = %g with a stub Execute, want 2 (R.all and P.all)", got)
		}
	})
}
