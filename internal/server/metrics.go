package server

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"refrint/internal/sched"
)

// buildInfoLabels is the constant label set of refrint_build_info, resolved
// once from the binary's embedded build metadata.
var buildInfoLabels = func() string {
	version, revision := "unknown", "unknown"
	goVersion := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				revision = kv.Value
			}
		}
	}
	return fmt.Sprintf("go_version=%q,version=%q,revision=%q", goVersion, version, revision)
}()

// metricsSnapshot is everything /metrics reads from state guarded by the
// server mutex, captured in one short critical section.  Rendering — string
// formatting for dozens of series — happens after the lock is released, so a
// slow scraper can never stall submissions or terminal transitions.
type metricsSnapshot struct {
	byState       map[State]int
	batches       int
	inflight      int
	sims          int64
	sweepHits     int64
	sweepMisses   int64
	inflightJoins int64
	cellReuses    int64
	queuedSweeps  [sched.NumClasses]int
	panics        map[string]int64
	jobTimeouts   [sched.NumClasses]int64
	preemptions   [sched.NumClasses]int64
	parked        int
	windowed      float64
}

// snapshotMetricsLocked captures the mutex-guarded half of the exposition.
// Caller holds the server mutex.
func (s *Server) snapshotMetricsLocked() metricsSnapshot {
	snap := metricsSnapshot{
		byState:       make(map[State]int, 5),
		batches:       len(s.batches),
		sims:          s.simsCompleted,
		sweepHits:     s.sweepCacheHits,
		sweepMisses:   s.sweepCacheMisses,
		inflightJoins: s.inflightJoins,
		cellReuses:    s.cellReuses,
		queuedSweeps:  s.queuedSweeps,
		panics:        make(map[string]int64, len(s.panicsTotal)),
		jobTimeouts:   s.jobTimeouts,
		preemptions:   s.preemptions,
		parked:        s.parked,
	}
	for site, n := range s.panicsTotal {
		snap.panics[site] = n
	}
	for _, j := range s.jobs {
		snap.byState[j.state]++
	}
	snap.inflight = snap.byState[StateQueued] + snap.byState[StateRunning]
	snap.windowed = s.simRate.Rate()
	return snap
}

// handleMetrics implements GET /metrics: a plain-text, Prometheus-style
// exposition of the service's operational counters, gauges and latency
// histograms.  It uses no external dependencies — the format is simple
// enough to emit by hand.  Everything under s.mu is snapshotted first and
// rendered after unlock; the scheduler, store, quota and event-bus stats
// have their own locks, and the histograms are lock-free atomics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snap := s.snapshotMetricsLocked()
	s.mu.Unlock()

	var b strings.Builder
	s.renderMetrics(&b, snap)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// renderMetrics formats the full exposition.  It holds NO server mutex: the
// mutex-guarded values arrive pre-snapshotted, everything else is read from
// independently synchronized sources.
func (s *Server) renderMetrics(b *strings.Builder, snap metricsSnapshot) {
	sst := s.sched.Stats()
	queued := 0
	for _, q := range sst.Queued {
		queued += q
	}
	subs, published, dropped := s.bus.stats()
	sims := snap.sims
	uptime := time.Since(s.startedAt).Seconds()

	gauge := func(name, help string, value any) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, value)
	}
	counter := func(name, help string, value any) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, value)
	}

	fmt.Fprintf(b, "# HELP refrint_build_info Build metadata of the running binary (constant 1).\n# TYPE refrint_build_info gauge\nrefrint_build_info{%s} 1\n", buildInfoLabels)

	gauge("refrint_queue_depth", "Simulation cells waiting in scheduler queues (all classes).", queued)

	fmt.Fprintf(b, "# HELP refrint_sched_queue_depth Simulation cells waiting in scheduler queues, by priority class.\n# TYPE refrint_sched_queue_depth gauge\n")
	for c := sched.Class(0); c < sched.NumClasses; c++ {
		fmt.Fprintf(b, "refrint_sched_queue_depth{class=%q} %d\n", c.String(), sst.Queued[c])
	}
	fmt.Fprintf(b, "# HELP refrint_sweeps_queued Admitted jobs none of whose cells has started, by priority class (what the per-class admission bounds limit).\n# TYPE refrint_sweeps_queued gauge\n")
	for c := sched.Class(0); c < sched.NumClasses; c++ {
		fmt.Fprintf(b, "refrint_sweeps_queued{class=%q} %d\n", c.String(), snap.queuedSweeps[c])
	}
	writeHistogramFamily(b, "refrint_sched_wait_seconds",
		"Submit-to-dequeue latency of simulation cells, by priority class.",
		s.classHistogramSeries(&s.schedWait))
	writeHistogramFamily(b, "refrint_exec_seconds",
		"Wall time of jobs from their first cell starting to terminal, by priority class.",
		s.classHistogramSeries(&s.execSeconds))
	writeHistogramFamily(b, "refrint_http_request_seconds",
		"HTTP request latency, by route pattern and status code.",
		s.httpMetrics.series())
	fmt.Fprintf(b, "# HELP refrint_cell_preemptions_total Running cells preempted for a more urgent queued cell and requeued to resume, by the class of the preempted cell.\n# TYPE refrint_cell_preemptions_total counter\n")
	for c := sched.Class(0); c < sched.NumClasses; c++ {
		fmt.Fprintf(b, "refrint_cell_preemptions_total{class=%q} %d\n", c.String(), snap.preemptions[c])
	}
	gauge("refrint_cells_parked", "Preempted cells queued with their half-run simulation (at most refrint_sched_workers).", snap.parked)
	gauge("refrint_sched_workers", "Worker goroutines simulating cells.", sst.Workers)
	gauge("refrint_sched_busy_workers", "Workers currently simulating a cell.", sst.Busy)
	gauge("refrint_batches", "Batches currently pollable.", snap.batches)

	fmt.Fprintf(b, "# HELP refrint_jobs Jobs by lifecycle state.\n# TYPE refrint_jobs gauge\n")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(b, "refrint_jobs{state=%q} %d\n", string(st), snap.byState[st])
	}

	gauge("refrint_sweep_inflight", "Live jobs (queued or running).", snap.inflight)
	counter("refrint_sweep_cache_hits_total", "Submissions answered immediately from stored cells.", snap.sweepHits)
	counter("refrint_sweep_cache_misses_total", "Submissions admitted as live jobs (not served from stored cells).", snap.sweepMisses)
	counter("refrint_cell_inflight_joins_total", "Job cells that joined a simulation already in flight instead of running their own (identical submissions included).", snap.inflightJoins)
	counter("refrint_cell_reuses_total", "Simulation cells (R.all, P.all and WB(n,m)) served from their family's Valid run instead of simulating.", snap.cellReuses)

	// The known recovery sites are always exposed (zero included) so
	// dashboards can rate() them from the first scrape; any further site
	// that ever recorded a panic is appended after.
	fmt.Fprintf(b, "# HELP refrint_panics_total Panics recovered without killing the process, by recovery site.\n# TYPE refrint_panics_total counter\n")
	known := []string{"complete", "exec", "sched", "sim"}
	for _, site := range known {
		fmt.Fprintf(b, "refrint_panics_total{site=%q} %d\n", site, snap.panics[site])
	}
	extra := make([]string, 0, len(snap.panics))
	for site := range snap.panics {
		switch site {
		case "complete", "exec", "sched", "sim":
		default:
			extra = append(extra, site)
		}
	}
	sort.Strings(extra)
	for _, site := range extra {
		fmt.Fprintf(b, "refrint_panics_total{site=%q} %d\n", site, snap.panics[site])
	}
	fmt.Fprintf(b, "# HELP refrint_job_timeouts_total Jobs that hit their deadline and failed, by priority class.\n# TYPE refrint_job_timeouts_total counter\n")
	for c := sched.Class(0); c < sched.NumClasses; c++ {
		fmt.Fprintf(b, "refrint_job_timeouts_total{class=%q} %d\n", c.String(), snap.jobTimeouts[c])
	}

	if byClient, throttledTotal := s.quota.stats(); s.quota != nil {
		fmt.Fprintf(b, "# HELP refrint_client_throttled_total Submissions rejected with 429 by the per-client rate limit.\n# TYPE refrint_client_throttled_total counter\n")
		clients := make([]string, 0, len(byClient))
		for c := range byClient {
			clients = append(clients, c)
		}
		sort.Strings(clients)
		for _, c := range clients {
			fmt.Fprintf(b, "refrint_client_throttled_total{client=%q} %d\n", c, byClient[c])
		}
		if len(byClient) == 0 {
			// No throttles yet: expose the zero total so the series exists
			// (and dashboards can rate() it) from the first scrape.
			fmt.Fprintf(b, "refrint_client_throttled_total{client=\"\"} %d\n", throttledTotal)
		}
	}

	ss := s.store.Stats()
	counter("refrint_cell_cache_hits_total", "Simulation cells served from the store.", ss.CellHits)
	counter("refrint_cell_cache_misses_total", "Simulation cells that had to be computed (cells already in flight are joined before the store is asked).", ss.CellMisses)
	counter("refrint_store_sweep_hits_total", "Sweep-manifest store reads that hit.", ss.SweepHits)
	counter("refrint_store_sweep_misses_total", "Sweep-manifest store reads that missed.", ss.SweepMisses)
	gauge("refrint_store_entries", "Results (cells and sweep manifests) currently held by the store, on disk or in memory.", ss.Entries)
	gauge("refrint_store_bytes", "Bytes currently held by the store.", ss.Bytes)
	counter("refrint_store_quarantined_total", "Blobs quarantined after failing verification.", ss.Quarantined)
	counter("refrint_store_evictions_total", "Blobs evicted by the LRU byte budget.", ss.Evictions)
	degraded := 0
	if ss.Degraded {
		degraded = 1
	}
	gauge("refrint_store_degraded", "1 while the store runs memory-only after persistent write failures, 0 when healthy.", degraded)
	counter("refrint_store_write_retries_total", "Transient blob-write failures retried with backoff.", ss.WriteRetries)
	counter("refrint_store_degraded_puts_total", "Puts absorbed into memory while the store was degraded.", ss.DegradedPuts)

	gauge("refrint_event_subscribers", "Open SSE subscriptions (job, batch and firehose streams).", subs)
	counter("refrint_events_published_total", "Events fanned out to at least one SSE subscriber.", published)
	counter("refrint_events_dropped_total", "Events dropped or coalesced away on slow SSE subscribers.", dropped)

	counter("refrint_sims_completed_total", "Simulations delivered to jobs (cell-cache hits included).", sims)
	rate := 0.0
	if uptime > 0 {
		rate = float64(sims) / uptime
	}
	gauge("refrint_sims_per_second", "Average simulations per second since the server started.", fmt.Sprintf("%.6g", rate))
	gauge("refrint_sims_per_second_1m", "Simulations per second over the last minute (sliding window).", fmt.Sprintf("%.6g", snap.windowed))
	gauge("refrint_uptime_seconds", "Seconds since the server started.", fmt.Sprintf("%.3f", uptime))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("refrint_goroutines", "Goroutines currently live in the process.", runtime.NumGoroutine())
	gauge("refrint_gomaxprocs", "Go scheduler slots (GOMAXPROCS); above refrint_sched_workers, one stays free for HTTP and SSE.", runtime.GOMAXPROCS(0))
	gauge("refrint_heap_alloc_bytes", "Bytes of allocated heap objects.", ms.HeapAlloc)
	counter("refrint_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", fmt.Sprintf("%.6f", float64(ms.PauseTotalNs)/1e9))
}

// classHistogramSeries labels one per-class histogram array for family
// rendering.
func (s *Server) classHistogramSeries(hs *[sched.NumClasses]histogram) []histogramSeries {
	series := make([]histogramSeries, sched.NumClasses)
	for c := range hs {
		series[c] = histogramSeries{
			labels: fmt.Sprintf("class=%q", sched.Class(c).String()),
			h:      &hs[c],
		}
	}
	return series
}
