package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"

	"refrint"
	"refrint/internal/sched"
	"refrint/internal/store"
	"refrint/internal/sweep"
)

// countingExec is the real per-cell executor with an invocation counter, so
// tests can assert how many cells were simulated.
func countingExec(calls *atomic.Int64) ExecuteFunc {
	return func(ctx context.Context, opts sweep.Options, c sweep.Cell) (sweep.Run, error) {
		calls.Add(1)
		return sweep.RunCell(ctx, opts, c)
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

func mustKey(t *testing.T, req refrint.SweepRequest) string {
	t.Helper()
	key, err := req.Key()
	if err != nil {
		t.Fatalf("request key: %v", err)
	}
	return key
}

// getText fetches a non-JSON endpoint.
func (h *harness) getText(path string) (string, int) {
	h.t.Helper()
	resp, err := h.ts.Client().Get(h.ts.URL + path)
	if err != nil {
		h.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatalf("GET %s: read body: %v", path, err)
	}
	return string(data), resp.StatusCode
}

// metricValue extracts one un-labelled metric value from exposition text.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s missing from:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s value %q: %v", name, m[1], err)
	}
	return v
}

// TestRestartServesPersistedSweep is the acceptance criterion for the
// persistent store: a second server over the first one's data dir serves a
// completed sweep's figures — by canonical key, with no job ever submitted —
// without executing anything, and a resubmission is an immediate cache hit.
func TestRestartServesPersistedSweep(t *testing.T) {
	dir := t.TempDir()
	req := tinyRequest(11)
	key := mustKey(t, req)

	// First server lifetime: run the sweep and persist it.
	st1 := openStore(t, dir)
	var calls1 atomic.Int64
	h1 := newHarness(t, Config{Store: st1, Execute: countingExec(&calls1)})
	view, _ := h1.submit(req)
	h1.waitState(view.ID, StateDone)
	if view.Key != key {
		t.Fatalf("job key %s, want %s", view.Key, key)
	}

	// Figures are addressable by sweep key as well as by job id.
	var figsByKey, figsByID sweep.FiguresExport
	if resp := h1.do("GET", "/v1/sweeps/"+key+"/figures", nil, &figsByKey); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET figures by key: status %d", resp.StatusCode)
	}
	h1.do("GET", "/v1/sweeps/"+view.ID+"/figures", nil, &figsByID)
	wantFigs, _ := json.Marshal(figsByKey)
	if byID, _ := json.Marshal(figsByID); string(byID) != string(wantFigs) {
		t.Fatal("figures by key differ from figures by job id")
	}

	h1.ts.Close()
	h1.srv.Close()
	if err := st1.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}

	// Restarted server over the same data dir: no jobs exist, yet the sweep
	// is served by key without a single execution.
	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	var calls2 atomic.Int64
	h2 := newHarness(t, Config{Store: st2, Execute: countingExec(&calls2)})

	var figs sweep.FiguresExport
	if resp := h2.do("GET", "/v1/sweeps/"+key+"/figures", nil, &figs); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET figures by key after restart: status %d", resp.StatusCode)
	}
	if got, _ := json.Marshal(figs); string(got) != string(wantFigs) {
		t.Fatal("restarted server served different figures")
	}
	var export sweep.Export
	if resp := h2.do("GET", "/v1/sweeps/"+key+"/results", nil, &export); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results by key after restart: status %d", resp.StatusCode)
	}
	if len(export.Runs) != 2 {
		t.Fatalf("restarted results export has %d runs, want 2", len(export.Runs))
	}

	// Resubmitting the same sweep is an immediate, terminal cache hit.
	again, status := h2.submit(req)
	if status != http.StatusOK || again.State != StateDone || !again.CacheHit {
		t.Fatalf("resubmit after restart: status %d, state %s, cache_hit %v",
			status, again.State, again.CacheHit)
	}
	if n := calls2.Load(); n != 0 {
		t.Fatalf("restarted server simulated %d cells, want 0", n)
	}

	// An unknown key is still a 404, not a 500.
	if _, status := h2.getText("/v1/sweeps/ffffffffffffffffffffffffffffffff/figures"); status != http.StatusNotFound {
		t.Errorf("unknown key: status %d, want 404", status)
	}

	// A data dir written before manifests existed holds the full results
	// under the sweep key, with the options under "options"; it still
	// resolves by key.
	res, err := refrint.RunSweep(mustOptions(t, req))
	if err != nil {
		t.Fatal(err)
	}
	full := struct {
		Options sweep.Options `json:"options"`
		Runs    []sweep.Run   `json:"runs"`
	}{Options: res.Options}
	for _, pt := range res.Points {
		for _, app := range res.Options.Apps {
			if run, ok := res.Lookup(app, pt); ok {
				full.Runs = append(full.Runs, run)
			}
		}
	}
	if err := st2.Put(store.KindSweep, key, full); err != nil {
		t.Fatal(err)
	}
	var legacy sweep.FiguresExport
	if resp := h2.do("GET", "/v1/sweeps/"+key+"/figures", nil, &legacy); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET figures by key from a full-results blob: status %d", resp.StatusCode)
	}
	if got, _ := json.Marshal(legacy); string(got) != string(wantFigs) {
		t.Fatal("full-results blob resolved to different figures")
	}
	if n := calls2.Load(); n != 0 {
		t.Fatalf("restarted server simulated %d cells, want 0", n)
	}
}

func mustOptions(t *testing.T, req refrint.SweepRequest) refrint.SweepOptions {
	t.Helper()
	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// TestStoredSweepSkipsFullQueue verifies a sweep whose cells are all stored
// takes no admission slot: submitted while its class queue is full, it is
// answered 200 done without a simulation, both alone and as a batch member.
func TestStoredSweepSkipsFullQueue(t *testing.T) {
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	stored := tinyRequest(1)
	h1 := newHarness(t, Config{Store: st})
	first, _ := h1.submit(stored)
	h1.waitState(first.ID, StateDone)

	exec := newBlockingExec()
	h := newHarness(t, Config{
		Store:           st,
		Workers:         1,
		ClassQueueDepth: [sched.NumClasses]int{1, 1, 1},
		Execute:         exec.fn,
	})
	h.submit(tinyRequest(2))
	<-exec.started // the only worker is busy: the next sweep stays queued
	if _, status := h.submit(tinyRequest(3)); status != http.StatusAccepted {
		t.Fatalf("filling submission: status %d, want 202", status)
	}
	if _, status := h.submit(tinyRequest(4)); status != http.StatusServiceUnavailable {
		t.Fatalf("interactive queue not full: status %d, want 503", status)
	}

	view, status := h.submit(stored)
	if status != http.StatusOK || view.State != StateDone || !view.CacheHit {
		t.Errorf("stored sweep on a full queue: status %d, state %s, cache_hit %v; want 200 done hit",
			status, view.State, view.CacheHit)
	}
	bv, status := h.submitBatch(BatchRequest{Priority: "interactive", Requests: []refrint.SweepRequest{stored}})
	if status != http.StatusOK || bv.State != StateDone {
		t.Errorf("stored batch member on a full queue: status %d, state %s; want 200 done", status, bv.State)
	}
	if n := exec.calls.Load(); n != 1 {
		t.Errorf("gated simulations = %d, want only the blocker's 1", n)
	}
	close(exec.release)
}

// TestOverlappingSweepsShareCells is the second acceptance criterion: a
// sweep overlapping an earlier one only simulates its fresh cells, and
// /metrics reports the cell-cache hits.
func TestOverlappingSweepsShareCells(t *testing.T) {
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	h := newHarness(t, Config{Store: st})

	// First sweep: baseline + R.valid@50 on FFT = 2 cells.
	first, _ := h.submit(tinyRequest(5))
	h.waitState(first.ID, StateDone)
	if got := st.Stats(); got.CellMisses != 2 || got.CellHits != 0 {
		t.Fatalf("first sweep store stats = %+v, want 2 misses, 0 hits", got)
	}

	// Overlapping sweep: one more retention time -> 3 cells, 2 shared.
	wider := tinyRequest(5)
	wider.RetentionTimesUS = []float64{50, 100}
	second, _ := h.submit(wider)
	done := h.waitState(second.ID, StateDone)
	if done.Progress.Total != 3 {
		t.Fatalf("wider sweep total = %d sims, want 3", done.Progress.Total)
	}
	stats := st.Stats()
	if stats.CellHits != 2 {
		t.Errorf("overlapping sweep: %d cell hits, want 2", stats.CellHits)
	}
	if stats.CellMisses != 3 { // 2 from the first sweep + 1 fresh
		t.Errorf("cell misses = %d, want 3", stats.CellMisses)
	}

	// The figures of the cell-cached sweep match a from-scratch run.
	var figs sweep.FiguresExport
	h.do("GET", "/v1/sweeps/"+second.ID+"/figures", nil, &figs)
	opts, err := wider.Options()
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := sweep.Execute(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(scratch.FiguresExport())
	got, _ := json.Marshal(figs)
	if string(got) != string(want) {
		t.Error("cell-cached sweep served different figures than a from-scratch run")
	}

	// /metrics reflects all of it.
	text, status := h.getText("/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", status)
	}
	if hits := metricValue(t, text, "refrint_cell_cache_hits_total"); hits != 2 {
		t.Errorf("metrics cell hits = %g, want 2", hits)
	}
	if sims := metricValue(t, text, "refrint_sims_completed_total"); sims != 5 {
		t.Errorf("metrics sims completed = %g, want 5 (2 + 3)", sims)
	}
	if v := metricValue(t, text, "refrint_store_entries"); v != 5 { // 3 cells + 2 sweeps
		t.Errorf("metrics store entries = %g, want 5", v)
	}
	if v := metricValue(t, text, "refrint_queue_depth"); v != 0 {
		t.Errorf("metrics queue depth = %g, want 0", v)
	}
	if misses := metricValue(t, text, "refrint_sweep_cache_misses_total"); misses != 2 {
		t.Errorf("metrics sweep cache misses = %g, want 2", misses)
	}
	// Jobs-by-state series present with both sweeps done.
	re := regexp.MustCompile(`(?m)^refrint_jobs\{state="done"\} (\d+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil || m[1] != "2" {
		t.Errorf("metrics jobs done series = %v, want 2", m)
	}
}

// TestFiguresByKeyInFlight verifies a sweep key whose job is still running
// answers 409 (like the job-id path), not 404, and flips to 200
// once done.
func TestFiguresByKeyInFlight(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, Config{Execute: exec.fn})
	view, _ := h.submit(tinyRequest(21))
	<-exec.started
	if _, status := h.getText("/v1/sweeps/" + view.Key + "/figures"); status != http.StatusConflict {
		t.Errorf("figures by in-flight key: status %d, want 409", status)
	}
	close(exec.release)
	h.waitState(view.ID, StateDone)
	if _, status := h.getText("/v1/sweeps/" + view.Key + "/figures"); status != http.StatusOK {
		t.Errorf("figures by done key: status %d, want 200", status)
	}
}

// TestBornDoneSweepResolvesByKey is a regression for sweeps served from
// stored cells leaving no manifest: a subset of a completed sweep, born
// done from its cells, must resolve by sweep key as well as by job id.
func TestBornDoneSweepResolvesByKey(t *testing.T) {
	h := newHarness(t, Config{})
	wider := tinyRequest(5)
	wider.RetentionTimesUS = []float64{50, 100}
	first, _ := h.submit(wider)
	h.waitState(first.ID, StateDone)

	subset, status := h.submit(tinyRequest(5))
	if status != http.StatusOK || !subset.CacheHit {
		t.Fatalf("subset submit: status %d, cache_hit %v; want 200 hit", status, subset.CacheHit)
	}
	if _, status := h.getText("/v1/sweeps/" + subset.ID + "/figures"); status != http.StatusOK {
		t.Errorf("figures by job id: status %d, want 200", status)
	}
	if _, status := h.getText("/v1/sweeps/" + subset.Key + "/figures"); status != http.StatusOK {
		t.Errorf("figures by key of a born-done sweep: status %d, want 200", status)
	}
}

// TestMetricsWithoutStore verifies a server given no store runs on a
// memory-only one: a resubmission is served from the stored cells, and
// /metrics exposes the store series with nothing on disk.
func TestMetricsWithoutStore(t *testing.T) {
	h := newHarness(t, Config{})
	view, _ := h.submit(tinyRequest(9))
	h.waitState(view.ID, StateDone)
	hit, status := h.submit(tinyRequest(9))
	if status != http.StatusOK || !hit.CacheHit {
		t.Fatalf("second submit: status %d, cache_hit %v", status, hit.CacheHit)
	}

	text, code := h.getText("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	if v := metricValue(t, text, "refrint_sweep_cache_hits_total"); v != 1 {
		t.Errorf("sweep cache hits = %g, want 1", v)
	}
	if v := metricValue(t, text, "refrint_sims_completed_total"); v != 2 {
		t.Errorf("sims completed = %g, want 2", v)
	}
	if v := metricValue(t, text, "refrint_cell_cache_misses_total"); v != 2 {
		t.Errorf("cell cache misses = %g, want 2 (the first run's cells)", v)
	}
	if v := metricValue(t, text, "refrint_cell_cache_hits_total"); v != 2 {
		t.Errorf("cell cache hits = %g, want 2 (the resubmission read both cells)", v)
	}
	if v := metricValue(t, text, "refrint_store_entries"); v != 3 { // 2 cells + 1 manifest
		t.Errorf("store entries = %g, want 3", v)
	}
	if h.srv.store.Dir() != "" {
		t.Errorf("default store has directory %q, want memory-only", h.srv.store.Dir())
	}
}

// TestRetentionFollowsUseNotClass verifies the store keeps what was used
// most recently, whoever first computed it.  A background batch computes
// sweep A after an interactive sweep B; an interactive resubmission of A is
// served from A's cells, which touches them; then a third sweep C pushes
// the store past its budget by B's size.  B's cells go, and A is still
// served from the store.  The budget is calibrated on a first pass of the
// same scenario over an unbounded store.
func TestRetentionFollowsUseNotClass(t *testing.T) {
	reqB, reqA, reqC := tinyRequest(1), tinyRequest(2), tinyRequest(3)
	// scenario runs the steps on st and returns the store's bytes after B
	// and the answer to A's last resubmission.
	scenario := func(st *store.Store) (afterB int64, last JobView, status int) {
		h := newHarness(t, Config{Store: st})
		b, _ := h.submit(reqB)
		h.waitState(b.ID, StateDone)
		afterB = st.Stats().Bytes

		bv, _ := h.submitBatch(BatchRequest{Priority: "background", Requests: []refrint.SweepRequest{reqA}})
		h.waitBatchState(bv.ID, StateDone)
		if v, status := h.submit(reqA); status != http.StatusOK || !v.CacheHit {
			t.Fatalf("interactive resubmission of A: status %d cache_hit %v, want 200 cache hit", status, v.CacheHit)
		}
		if n := st.Stats().Evictions; n != 0 {
			t.Fatalf("%d evictions before C, want 0", n)
		}

		c, _ := h.submit(reqC)
		h.waitState(c.ID, StateDone)
		last, status = h.submit(reqA)
		return afterB, last, status
	}

	probe, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	afterB, _, _ := scenario(probe)
	// A tenth of B's bytes of slack covers the few bytes by which the three
	// sweeps' blobs differ in size, and is far less than one of B's cells.
	budget := probe.Stats().Bytes - afterB + afterB/10

	st, err := store.Open("", store.Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	_, last, status := scenario(st)
	if status != http.StatusOK || !last.CacheHit {
		t.Errorf("resubmission of A after byte pressure: status %d cache_hit %v, want 200 cache hit", status, last.CacheHit)
	}
	for _, r := range []struct {
		name string
		req  refrint.SweepRequest
		kept bool
	}{{"B", reqB, false}, {"A", reqA, true}, {"C", reqC, true}} {
		opts, err := r.req.Options()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sweep.Cells(opts) {
			if got := st.Contains(store.KindCell, c.Key.Hash()); got != r.kept {
				t.Errorf("sweep %s cell %s stored = %v, want %v", r.name, c.Key.Hash(), got, r.kept)
			}
		}
	}
}

// TestBornDoneKeepsManifest: a sweep served born done off stored cells uses
// its manifest as well as its cells, so byte pressure evicts colder entries
// before it.  Sweeps A and C, a born-done resubmission of A, then sweep B
// run on a memory-only store one byte short of what the four leave behind:
// one entry goes, and A's figures are still served by its key.
func TestBornDoneKeepsManifest(t *testing.T) {
	reqA, reqC, reqB := tinyRequest(1), tinyRequest(3), tinyRequest(2)
	scenario := func(st *store.Store) *harness {
		h := newHarness(t, Config{Store: st})
		for _, req := range []refrint.SweepRequest{reqA, reqC} {
			v, _ := h.submit(req)
			h.waitState(v.ID, StateDone)
		}
		if v, status := h.submit(reqA); status != http.StatusOK || !v.CacheHit {
			t.Fatalf("resubmission of A: status %d cache_hit %v, want 200 cache hit", status, v.CacheHit)
		}
		b, _ := h.submit(reqB)
		h.waitState(b.ID, StateDone)
		return h
	}

	probe, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scenario(probe)
	st, err := store.Open("", store.Options{MaxBytes: probe.Stats().Bytes - 1})
	if err != nil {
		t.Fatal(err)
	}
	h := scenario(st)
	if n := st.Stats().Evictions; n != 1 {
		t.Fatalf("%d evictions, want 1", n)
	}
	if _, status := h.getText("/v1/sweeps/" + mustKey(t, reqA) + "/figures"); status != http.StatusOK {
		t.Errorf("figures of A by key after byte pressure: status %d, want 200", status)
	}
}
