package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"refrint"
	"refrint/internal/config"
	"refrint/internal/sched"
	"refrint/internal/store"
	"refrint/internal/sweep"
	"refrint/internal/workload"
)

// ExecuteFunc runs one simulation cell of a sweep.  The default is
// sweep.RunCell; tests substitute instrumented implementations to count and
// gate simulations.  ctx is cancelled when no sweep waits on the cell any
// more (or the server closes), and with the cause sweep.ErrYield when the
// cell is preempted: sweep.RunCell then returns a *sweep.Parked, which the
// server resumes later, while an implementation that returns ctx's error
// instead is run again from the start.  An R.all, P.all or WB(n,m) cell
// whose finished Valid leader's Run computes its result too (sweep.Reuse)
// takes that Result without reaching Execute.  A Run that Execute builds
// itself, rather than one sweep.RunCell returned, carries no budget watch,
// so the WB(n,m) followers of its cell run; its R.all and P.all followers
// take its Result when it has Stats.
type ExecuteFunc func(ctx context.Context, opts sweep.Options, c sweep.Cell) (sweep.Run, error)

// Config tunes the service.  The zero value is usable.
type Config struct {
	// Workers is the number of simulation workers (default NumCPU; see
	// NumWorkers): the one pool that runs every sweep's cells, one cell per
	// worker at a time, each worker taking the next cell from the
	// scheduler's shared queues.
	//
	// Each worker keeps a P (a Go scheduler slot) busy while it simulates.
	// With GOMAXPROCS no larger than Workers, every P can be busy at once,
	// and an HTTP or SSE goroutine woken by the network poller then waits
	// for the runtime to preempt a simulation (~10 ms).  cmd/refrint-serve
	// therefore raises GOMAXPROCS to Workers+1 unless the GOMAXPROCS
	// environment variable is set.  New never changes GOMAXPROCS: a program
	// embedding the server owns that setting.
	Workers int
	// QueueDepth scales the queued-job bound (default 8): each priority
	// class admits Workers*QueueDepth queued jobs — admitted jobs none of
	// whose cells has started — unless ClassQueueDepth overrides it.
	// Submissions beyond the bound get HTTP 503.
	QueueDepth int
	// ClassQueueDepth, where positive, bounds the queued jobs of one
	// priority class (indexed by sched.Class) instead of Workers*QueueDepth.
	ClassQueueDepth [sched.NumClasses]int
	// ClassWeights are the weighted-fair dequeue shares per priority class
	// (default sched.DefaultWeights, 16/4/1): with every class backlogged,
	// one dequeue cycle serves that many cells of each class, most urgent
	// first.
	ClassWeights [sched.NumClasses]int
	// JobHistory bounds how many finished jobs remain pollable (default
	// 1024).  The oldest terminal jobs beyond the bound are forgotten —
	// along with their grip on their results — so a long-running service
	// does not grow without bound.
	JobHistory int
	// BatchHistory bounds how many finished batches remain pollable
	// (default 256), like JobHistory for /v1/batches handles.
	BatchHistory int
	// EventHeartbeat is the keepalive comment interval on SSE streams
	// (default 15s), so idle connections survive proxies.
	EventHeartbeat time.Duration
	// ClientRate, where positive and finite, rate-limits submissions per
	// client label: each client's token bucket refills at ClientRate
	// tokens/second, a sweep submission costs one token and a batch costs
	// one per request.  Over-quota submissions get HTTP 429 with a
	// Retry-After hint.  The default (0) disables quotas, and so does any
	// other rate that is not a positive finite number.
	ClientRate float64
	// ClientBurst is the token-bucket capacity per client (default
	// ceil(ClientRate), minimum 1).  Batches larger than the burst can
	// never be admitted for a rate-limited client.
	ClientBurst int
	// JobTimeout, where positive, bounds each job's wall time from its
	// first cell starting: one that outlives it turns terminal failed with a
	// deadline-exceeded reason, and its cells no other job waits on leave
	// the scheduler (or, when running, stop within a few thousand
	// references).
	// A request's timeout_ms field may only lower the bound, never raise or
	// disable it.  The default (0) imposes no server-wide deadline.
	JobTimeout time.Duration
	// Execute runs one simulation cell (default sweep.RunCell).
	Execute ExecuteFunc
	// Store holds the simulation cells and the manifests of completed
	// sweeps: a sweep whose cells are all stored is served without running
	// anything, and overlapping sweeps reuse each other's cells.  A store
	// with a data directory makes that survive restarts.  When nil, New
	// opens a memory-only store with the default budget, which Close
	// closes; a store passed in here stays open for the caller to close.
	Store *store.Store
	// Logger is the structured log sink.  Job lifecycle lines carry the
	// request trace ID, client, class and sweep key, and terminal lines
	// carry the per-phase duration breakdown.  When unset the server logs
	// nothing.
	Logger *slog.Logger
}

// NumWorkers is the number of simulation workers a server built from c
// runs: Workers, or runtime.NumCPU() when Workers is not positive.
func (c Config) NumWorkers() int {
	if c.Workers <= 0 {
		return runtime.NumCPU()
	}
	return c.Workers
}

func (c Config) withDefaults() Config {
	c.Workers = c.NumWorkers()
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 1024
	}
	if c.BatchHistory <= 0 {
		c.BatchHistory = 256
	}
	for class := range c.ClassQueueDepth {
		if c.ClassQueueDepth[class] <= 0 {
			c.ClassQueueDepth[class] = c.Workers * c.QueueDepth
		}
	}
	if c.EventHeartbeat <= 0 {
		c.EventHeartbeat = 15 * time.Second
	}
	if c.Execute == nil {
		c.Execute = sweep.RunCell
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c
}

// Server is the sweep service.  It implements http.Handler.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the request-metrics middleware
	sched   *sched.Scheduler
	bus     *eventBus
	// store is Config.Store, or the memory-only store New opened (ownStore).
	store    *store.Store
	ownStore bool

	baseCtx    context.Context
	baseCancel context.CancelFunc

	startedAt time.Time

	// mu guards jobs, jobOrder, batches, batchOrder, cells, probes,
	// queuedSweeps, nextID, nextBatchID, closed, running, parked, yields,
	// the metrics counters, simRate and every mutable Job/Batch/cell field.
	// Every scheduler mutation (Submit, Requeue, Cancel, Promote) happens
	// under mu too, which is what makes admission's
	// capacity-check-then-submit atomic; lock order is always s.mu ->
	// sched's internal mutex.
	mu         sync.Mutex
	jobs       map[string]*Job
	jobOrder   []string
	batches    map[string]*Batch
	batchOrder []string
	// cells is the in-flight table: every cell being probed, queued or
	// simulated, by key (cells.go).  probes holds the fresh cells awaiting
	// their store lookup.  queuedSweeps counts, per class, the admitted
	// jobs none of whose cells has started: what the per-class admission
	// bounds (Config.ClassQueueDepth) limit.  A job's class never changes,
	// so queuedSweeps[c] never exceeds the bound of class c.
	cells        map[sweep.CellKey]*cell
	probes       []*cell
	queuedSweeps [sched.NumClasses]int
	nextID       int
	nextBatchID  int
	closed       bool
	// draining means BeginDrain ran: submissions answer 503 with a
	// Retry-After of drainRetryAfter seconds and /healthz reports closing,
	// while admitted work keeps running to its own terminal state.
	draining        bool
	drainRetryAfter int

	// running holds the cells a worker is simulating.  parked counts the
	// queued cells that hold a preempted cell's half-run simulation, and
	// yields the running cells asked to yield that have not stopped yet
	// (cells.go, preemptLocked).
	running []*cell
	parked  int
	yields  int

	// Metrics counters (see handleMetrics).
	sweepCacheHits   int64 // submissions answered done from stored cells
	sweepCacheMisses int64 // submissions admitted as live jobs
	inflightJoins    int64 // job cells that joined a cell already in flight
	cellReuses       int64 // followers served from their leader's run (cells.go)
	simsCompleted    int64 // simulations delivered to jobs (cell hits included)
	// panicsTotal counts recovered panics by site: "sim" (inside a sweep
	// cell), "exec" (the Execute wrapper), "sched" (scheduler callbacks)
	// and "complete" (a job's assembly and manifest write).  Every
	// recovery is also logged with its stack.  jobTimeouts counts jobs that
	// hit their deadline, by class.  Both guarded by mu.
	panicsTotal map[string]int64
	jobTimeouts [sched.NumClasses]int64
	// preemptions counts running cells preempted for a more urgent one, by
	// the class of the preempted cell.  Guarded by mu.
	preemptions [sched.NumClasses]int64
	// quota is the per-client admission limiter (nil with quotas off).  It
	// has its own mutex and is checked before s.mu is ever taken.
	quota *clientQuota

	// Latency histograms (see histogram.go).  Record paths are lock-free
	// atomics, NOT guarded by mu: schedWait is observed per class by the
	// scheduler's OnDequeue callback, execSeconds per class at the terminal
	// transition, and httpMetrics per (route, code) by the middleware.
	schedWait   [sched.NumClasses]histogram
	execSeconds [sched.NumClasses]histogram
	httpMetrics *httpMetrics

	// simRate tracks recent simsCompleted increments for the windowed
	// sims/sec gauge.
	simRate *rateWindow
}

// New builds a server and starts its worker pool.  Call Close to stop it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		bus:         newEventBus(),
		store:       cfg.Store,
		jobs:        make(map[string]*Job),
		cells:       make(map[sweep.CellKey]*cell),
		batches:     make(map[string]*Batch),
		startedAt:   time.Now(),
		simRate:     newRateWindow(time.Minute, time.Now),
		quota:       newClientQuota(cfg.ClientRate, cfg.ClientBurst, time.Now),
		httpMetrics: newHTTPMetrics(),
		panicsTotal: make(map[string]int64),
	}
	if s.store == nil {
		s.store, _ = store.Open("", store.Options{Logf: s.logf}) // memory-only: cannot fail
		s.ownStore = true
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	// The scheduler queues cells, not jobs: admission is bounded per class
	// in queued jobs (queuedSweeps), before any cell reaches it.
	s.sched = sched.New(sched.Config{
		Workers: cfg.Workers,
		Weights: cfg.ClassWeights,
		// OnDequeue runs on the worker goroutine with no scheduler lock
		// held: it feeds the per-class queue-wait histogram.
		OnDequeue: func(payload any, class sched.Class, wait time.Duration) {
			if class >= 0 && class < sched.NumClasses {
				s.schedWait[class].Observe(wait.Seconds())
			}
		},
		// OnPanic is the scheduler-side containment boundary: a panic that
		// escapes runCell (or the hooks above) loses only its cell — the
		// worker survives — and the cell is failed here so its jobs reach a
		// terminal state instead of hanging forever.
		OnPanic: func(payload any, recovered any, stack []byte) {
			s.recordPanic("sched", recovered, stack)
			if c, ok := payload.(*cell); ok {
				s.mu.Lock()
				s.cellDoneLocked(c, sweep.Run{}, fmt.Errorf("cell execution panicked: %v: %w", recovered, errPanicked))
				s.mu.Unlock()
			}
		},
	})
	s.sched.Start(func(payload any) { s.runCell(payload.(*cell)) })

	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/figures", s.handleFigures)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/batches/{id}/events", s.handleBatchEvents)
	s.mux.HandleFunc("GET /v1/batches/{id}/trace", s.handleBatchTrace)
	s.mux.HandleFunc("GET /v1/events", s.handleFirehose)
	s.mux.HandleFunc("POST /v1/batches", s.handleSubmitBatch)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handleGetBatch)
	s.mux.HandleFunc("DELETE /v1/batches/{id}", s.handleCancelBatch)
	s.mux.HandleFunc("GET /v1/sims", s.handleSims)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.instrument(s.mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Close cancels every in-flight cell and stops the workers.  Pending
// queue entries are drained (and observed cancelled) before Close returns,
// so their jobs' and batches' terminal events reach still-attached
// subscribers; then every open SSE stream is terminated, and a store New
// opened is closed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.baseCancel()
	s.sched.Close()
	s.bus.close()
	if s.ownStore {
		_ = s.store.Close()
	}
}

// BeginDrain flips the server into graceful-shutdown admission: new
// submissions answer 503 with Retry-After (expect rounds up to the hint in
// seconds, so well-behaved clients come back after this instance is gone or
// healthy again) and /healthz reports "closing" with 503 so load balancers
// stop routing here — while everything already admitted keeps running.
// Idempotent; Close still does the hard stop afterwards.
func (s *Server) BeginDrain(expect time.Duration) {
	s.mu.Lock()
	s.draining = true
	s.drainRetryAfter = retryAfterSeconds(expect)
	s.mu.Unlock()
	s.logf("server: draining, in-flight work has %v to finish", expect)
}

// Drain blocks until every admitted job reaches a terminal state or ctx
// expires (returning the context error).  Call BeginDrain first so new work
// cannot arrive faster than the backlog drains.
func (s *Server) Drain(ctx context.Context) error {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		s.mu.Lock()
		live := s.liveJobsLocked()
		s.mu.Unlock()
		if live == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// liveJobsLocked counts the jobs not yet terminal.  Caller holds the server
// mutex.
func (s *Server) liveJobsLocked() int {
	live := 0
	for _, j := range s.jobs {
		if !j.state.Terminal() {
			live++
		}
	}
	return live
}

// effectiveTimeout resolves a request's timeout_ms against the server cap:
// the request may only lower Config.JobTimeout, never raise or disable it.
// Zero means no deadline (only possible with no server cap).
func (s *Server) effectiveTimeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if limit := s.cfg.JobTimeout; limit > 0 && (d <= 0 || d > limit) {
		return limit
	}
	return d
}

// errPanicked marks errors synthesized from recovered panics outside the
// sweep's own per-cell guard, so finishLocked can attribute the failure
// reason without string matching.
var errPanicked = errors.New("panicked")

// recordPanic logs one recovered panic with its stack and bumps the
// refrint_panics_total{site} counter.  Safe from any goroutine that does NOT
// already hold s.mu.
func (s *Server) recordPanic(site string, recovered any, stack []byte) {
	s.cfg.Logger.Error("panic recovered",
		"site", site,
		"panic", fmt.Sprint(recovered),
		"stack", string(stack))
	s.mu.Lock()
	s.panicsTotal[site]++
	s.mu.Unlock()
}

// publishJobLocked emits a named event carrying the job's full view.
// Caller holds the server mutex.
func (s *Server) publishJobLocked(j *Job, name string) {
	s.bus.publish(name, jobTopic(j.id), j.request.Client, j.class, func() any { return j.snapshot() })
}

// publishBatchLocked publishes a member job's change on its batch's topic
// (a no-op for a job outside any batch): when the batch's aggregate state
// moved since it was last published, the full view as a state or terminal
// event; otherwise, with progress set, a slim progress event.  Caller holds
// the server mutex.
func (s *Server) publishBatchLocked(b *Batch, progress bool) {
	if b == nil {
		return
	}
	st, done, total := b.tallyLocked()
	if st != b.lastState {
		b.lastState = st
		name := eventState
		if st.Terminal() {
			name = string(st)
		}
		s.bus.publish(name, batchTopic(b.id), b.client, b.class, b.viewLocked)
		return
	}
	if progress {
		s.bus.publish(eventProgress, batchTopic(b.id), b.client, b.class, func() any {
			return progressEvent{ID: b.id, Kind: "batch", State: st, Progress: progressView(done, total, st)}
		})
	}
}

// finishLocked moves a job to a terminal state: done with res when err is
// nil; otherwise failed, or cancelled for context.Canceled.  A job that did
// not complete withdraws from its outstanding cells.  A no-op for a job
// already terminal.  Caller holds the server mutex.
func (s *Server) finishLocked(j *Job, res *refrint.SweepResults, err error) {
	if j.state.Terminal() {
		return
	}
	now := time.Now()
	if j.state == StateQueued {
		s.queuedSweeps[j.class]--
	} else {
		s.execSeconds[j.class].Observe(now.Sub(j.startedAt).Seconds())
	}
	if j.timer != nil {
		j.timer.Stop()
	}
	switch {
	case err == nil:
		j.state = StateDone
		j.res = res
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.err = fmt.Errorf("deadline exceeded after %v", j.timeout)
		j.reason = reasonDeadline
		s.jobTimeouts[j.class]++
		j.trace.mark(phaseDeadline, now)
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = context.Canceled
	default:
		j.state = StateFailed
		j.err = err
		var pe *sweep.PanicError
		if errors.As(err, &pe) || errors.Is(err, errPanicked) {
			j.reason = reasonPanic // counted and logged where it was recovered
		}
	}
	if j.state != StateDone {
		s.abortJobLocked(j)
	}
	j.cells, j.runs = nil, nil
	j.endedAt = now
	j.trace.mark(string(j.state), now)
	s.publishJobLocked(j, string(j.state))
	// The job's last transition: dropping the batch here keeps a finished
	// job from pinning a batch that history has already forgotten.
	s.publishBatchLocked(j.batch, false)
	j.batch = nil
	s.logTerminalLocked(j, now)
}

// Failure reasons exposed in job views, distinguishing the robustness
// machinery's verdicts from ordinary execution errors.
const (
	reasonPanic    = "panic"
	reasonDeadline = "deadline exceeded"
)

// logTerminalLocked emits the one log line of a job's terminal transition,
// carrying the phase-duration breakdown of its whole lifecycle and, when
// set, its error and failure reason.  Caller holds the server mutex.
func (s *Server) logTerminalLocked(j *Job, now time.Time) {
	v := j.traceView(now)
	args := []any{"total_seconds", v.TotalSeconds, "phases", v.phaseSummary()}
	if j.err != nil {
		args = append(args, "error", j.err.Error())
	}
	if j.reason != "" {
		args = append(args, "reason", j.reason)
	}
	s.jobLogger(j).Info("job "+string(j.state), args...)
}

// --- HTTP handlers ---

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// retryAfterHint estimates, in whole seconds, how soon a full class queue is
// likely to have room: queued work divided by the class's observed drain rate
// since startup, clamped to [1s, 60s].  Before any dequeue has been observed
// the hint is a flat 5s.  It is a hint for well-behaved clients, not a
// promise — admission is still first-come when capacity frees up.
func (s *Server) retryAfterHint(class sched.Class) int {
	st := s.sched.Stats()
	uptime := time.Since(s.startedAt).Seconds()
	if st.WaitCount[class] <= 0 || uptime <= 0 {
		return 5
	}
	rate := float64(st.WaitCount[class]) / uptime // dequeues per second
	hint := int(math.Ceil(float64(st.Queued[class]) / rate))
	return min(max(hint, 1), 60)
}

// classFor resolves an optional wire priority label, falling back to def.
func classFor(label string, def sched.Class) (sched.Class, error) {
	if label == "" {
		return def, nil
	}
	return sched.ParseClass(label)
}

// planJob resolves one wire request into a planned member of a
// submission: a job not yet admitted, with its client label, its class (def
// when the request names none), its options and their key, its effective
// timeout, and a trace stamped traceID that opens at received.  A lone POST
// /v1/sweeps is a plan of one, a POST /v1/batches a plan of one per request.
// Every error is the client's, answered 400.
func (s *Server) planJob(req refrint.SweepRequest, def sched.Class, traceID string, received time.Time) (*Job, error) {
	if err := validateClient(req.Client); err != nil {
		return nil, err
	}
	class, err := classFor(req.Priority, def)
	if err != nil {
		return nil, err
	}
	opts, err := req.Options()
	if err != nil {
		return nil, err
	}
	j := &Job{request: req, opts: opts, key: opts.Key(), class: class, total: opts.Size(),
		timeout: s.effectiveTimeout(req.TimeoutMS), trace: trace{id: traceID}}
	j.trace.mark(phaseReceived, received)
	return j, nil
}

// decodeBody decodes a JSON body of at most limit bytes into v, rejecting
// unknown fields, and reports whether it did; if not, it has answered 400.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// admit admits a plan whole or not at all.  It charges each job's client a
// token, all-or-nothing (429), and reads the stored results once per key
// outside the mutex: those jobs are born done and need no queue capacity.
// Under one hold of the server mutex, which every change to the admission
// counts also takes, it then refuses the plan (see refusalLocked) or admits
// every job and calls render, still holding the mutex.  A 503 refunds the
// charge, so a client honouring its Retry-After does not come back to a
// drained bucket.  admit reports whether it admitted the plan; if not, it
// has answered.
func (s *Server) admit(w http.ResponseWriter, plan []*Job, render func()) bool {
	validated := time.Now()
	charge := make(map[string]int, 1)
	for _, j := range plan {
		j.trace.mark(phaseValidated, validated)
		charge[j.request.Client]++
	}
	if ok, denied, wait := s.quota.charge(charge); !ok {
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(wait)))
		writeError(w, http.StatusTooManyRequests,
			"client %q is over its submission rate, retry later", denied)
		return false
	}
	stored := make(map[string]*refrint.SweepResults, len(plan))
	for _, j := range plan {
		if _, seen := stored[j.key]; !seen {
			stored[j.key] = s.storedResults(j.opts)
			if stored[j.key] != nil {
				// Born done: leave the manifest like any job that ends done,
				// before the job is observable.
				s.recordSweep(j.key, j.opts)
			}
		}
	}

	s.mu.Lock()
	refusal, retryAfter := s.refusalLocked(plan, stored)
	if refusal != "" {
		s.mu.Unlock()
		s.quota.refund(charge)
		if retryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprint(retryAfter))
		}
		writeError(w, http.StatusServiceUnavailable, "%s", refusal)
		return false
	}
	for _, j := range plan {
		s.submitJobLocked(j, stored[j.key])
	}
	render()
	s.mu.Unlock()
	s.probeStore()
	return true
}

// refusalLocked says why admission turns a plan away with 503, with a
// Retry-After hint in seconds (0 for none), or "" to admit it.  Caller holds
// the server mutex.
func (s *Server) refusalLocked(plan []*Job, stored map[string]*refrint.SweepResults) (string, int) {
	if s.closed || s.draining {
		return "server is shutting down", s.drainRetryAfter
	}
	var need [sched.NumClasses]int
	for _, j := range plan {
		if stored[j.key] == nil {
			need[j.class]++
		}
	}
	for class, n := range need {
		// A full class must not veto a plan that needs nothing from it.
		if free := s.cfg.ClassQueueDepth[class] - s.queuedSweeps[class]; n > 0 && n > free {
			return fmt.Sprintf("%s queue has %d free slots, batch needs %d; retry later", sched.Class(class), free, n),
				s.retryAfterHint(sched.Class(class))
		}
	}
	return "", 0
}

// handleSubmit implements POST /v1/sweeps: the request is admitted as a plan
// of one, served from its stored cells when they are all there and
// otherwise queued on its cells.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	received, reqID := time.Now(), requestTraceID(r)
	w.Header().Set("X-Request-Id", reqID)
	var req refrint.SweepRequest
	if !decodeBody(w, r, 1<<20, &req) {
		return
	}
	job, err := s.planJob(req, sched.Interactive, reqID, received)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var view JobView
	if !s.admit(w, []*Job{job}, func() { view = job.snapshot() }) {
		return
	}
	status := http.StatusAccepted
	if view.CacheHit {
		status = http.StatusOK
	}
	w.Header().Set("Location", "/v1/sweeps/"+view.ID)
	writeJSON(w, status, view)
}

// submitJobLocked admits one planned job: born done from stored (the
// results storedResults read, nil on a miss), or queued on its cells (see
// attachCellsLocked; admit runs probeStore after unlocking).  A queued job
// holds one slot of its class until one of its cells starts; a job born
// done takes none.  Caller holds the server mutex, which keeps every
// scheduler mutation serialized under it.
func (s *Server) submitJobLocked(job *Job, stored *refrint.SweepResults) {
	s.nextID++
	job.id = fmt.Sprintf("job-%06d", s.nextID)
	job.state = StateQueued
	job.createdAt = time.Now()
	job.trace.mark(phaseAdmitted, job.createdAt)

	if stored != nil {
		// Served from the stored cells: the job is born terminal.
		job.state = StateDone
		job.cacheHit = true
		job.res = stored
		job.done = job.total
		job.startedAt = job.createdAt
		job.endedAt = job.createdAt
		job.trace.mark(phaseCacheHit, job.createdAt)
		job.trace.mark(string(StateDone), job.createdAt)
		s.sweepCacheHits++
		s.logTerminalLocked(job, job.createdAt)
	} else {
		s.sweepCacheMisses++
		job.trace.mark(phaseQueued, job.createdAt)
		s.queuedSweeps[job.class]++
		s.logf("sweep %s: queued %s (%d sims)", job.key, job.class, job.total)
		s.attachCellsLocked(job)
	}
	s.jobLogger(job).Debug("job admitted", "state", string(job.state))
	s.jobs[job.id] = job
	s.jobOrder = append(s.jobOrder, job.id)
	// Forget the oldest terminal jobs beyond the history bound.  A batch may
	// still hold a forgotten job, so it drops its results here.
	s.jobOrder = evictOldest(s.jobOrder, s.cfg.JobHistory, s.jobs, func(j *Job) bool {
		if !j.state.Terminal() {
			return false
		}
		j.res = nil
		return true
	})
	// Announce the newborn job (and, for a cache hit, its immediate
	// completion) to firehose subscribers; nobody can be subscribed to the
	// job's own topic before its id is returned.
	s.publishJobLocked(job, eventState)
	if job.state.Terminal() {
		s.publishJobLocked(job, string(job.state))
	}
}

// storedResults serves a sweep from the store when every one of its cells
// is there: it checks them all with Contains, then reads them and
// assembles the Results.  Any miss (a cell evicted between the check and
// the read included) returns nil; the caller then goes through
// admission, where stored cells still complete from the store as they are
// probed.  It runs WITHOUT the server mutex: the store may read disk.
func (s *Server) storedResults(opts sweep.Options) *refrint.SweepResults {
	cells := sweep.Cells(opts)
	for _, c := range cells {
		if !s.store.Contains(store.KindCell, c.Key.Hash()) {
			return nil
		}
	}
	// Read on one goroutine per P: a cold read is a file read and two JSON
	// decodes, and a full sweep has hundreds of cells.
	runs := make([]sweep.Run, len(cells))
	var next atomic.Int64
	var missed atomic.Bool
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cells) && !missed.Load(); i = int(next.Add(1) - 1) {
				res, ok := s.store.GetCell(cells[i].Key)
				if !ok {
					missed.Store(true)
					return
				}
				runs[i] = sweep.Run{App: cells[i].App, Point: cells[i].Point, Result: res}
			}
		}()
	}
	wg.Wait()
	if missed.Load() {
		return nil
	}
	return sweep.Assemble(opts, runs)
}

// evictOldest forgets, oldest first, the entries of order beyond bound
// that finished reports terminal, deleting them from m, and returns the
// order left.  Live entries are never evicted.  finished is asked only
// while entries are beyond the bound, and each entry it reports terminal
// is forgotten, so it may release what that entry holds.
func evictOldest[V any](order []string, bound int, m map[string]V, finished func(V) bool) []string {
	excess := len(order) - bound
	if excess <= 0 {
		return order
	}
	kept := order[:0]
	for _, id := range order {
		if excess > 0 && finished(m[id]) {
			delete(m, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	return kept
}

// lookupJob resolves {id} for the per-job handlers.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return nil, false
	}
	return job, true
}

// handleGetJob implements GET /v1/sweeps/{id}: the poll endpoint.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	view := job.snapshot()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleListJobs implements GET /v1/sweeps: every job, oldest first.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		views = append(views, s.jobs[id].snapshot())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{Jobs: views})
}

// handleCancel implements DELETE /v1/sweeps/{id}: the job withdraws from
// its cells, and those no other job waits on are aborted.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	s.finishLocked(job, nil, context.Canceled)
	view := job.snapshot()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleFigures implements GET /v1/sweeps/{id}/figures: the Table 6.1 and
// Figures 6.1-6.4 data series of a completed sweep.
func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	res, ok := s.completedResults(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, res.FiguresExport())
}

// handleResults implements GET /v1/sweeps/{id}/results: the raw per-run
// export of a completed sweep (the same payload refrint-sweep can archive).
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	res, ok := s.completedResults(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, res.Export())
}

// completedResults fetches the results behind {id}, which may be a job id or
// a canonical sweep key.  A key resolves through its manifest in the store
// to the sweep's options, and the results are assembled from its stored
// cells, so a restarted server serves completed sweeps by key without any
// job existing.  Jobs that are not (yet) done are rejected.
func (s *Server) completedResults(w http.ResponseWriter, r *http.Request) (*refrint.SweepResults, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		// Not a job: try it as a sweep key.  A key with a live job answers
		// 409 like the job-id path, so clients can tell "still running"
		// from "never existed"; the store reads happen outside the mutex.
		var inflight State
		for _, j := range s.jobs {
			if j.key == id && !j.state.Terminal() {
				inflight = j.state
				break
			}
		}
		s.mu.Unlock()
		if inflight != "" {
			writeError(w, http.StatusConflict, "sweep %s is %s, not done", id, inflight)
			return nil, false
		}
		var m store.Manifest
		if s.store.Get(store.KindSweep, id, &m) {
			if res := s.storedResults(m.Options); res != nil {
				return res, true
			}
		}
		writeError(w, http.StatusNotFound, "no job or completed sweep %q", id)
		return nil, false
	}
	state, res := job.state, job.res
	s.mu.Unlock()
	if state != StateDone || res == nil {
		writeError(w, http.StatusConflict, "job %s is %s, not done", job.id, state)
		return nil, false
	}
	return res, true
}

// simCatalog is the payload of GET /v1/sims.
type simCatalog struct {
	Applications     []simApp  `json:"applications"`
	Policies         []string  `json:"policies"`
	RetentionTimesUS []float64 `json:"retention_times_us"`
	Presets          []string  `json:"presets"`
}

type simApp struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
	Input string `json:"input"`
	Class string `json:"class"`
}

// handleSims implements GET /v1/sims: the catalog of everything a sweep
// request may reference — applications, policy labels, retention times and
// presets.
func (s *Server) handleSims(w http.ResponseWriter, r *http.Request) {
	cat := simCatalog{
		RetentionTimesUS: config.RetentionTimesUS(),
		Presets:          []string{"scaled", "fullsize"},
	}
	apps := workload.Apps()
	for _, name := range workload.AppNames() {
		p := apps[name]
		cat.Applications = append(cat.Applications, simApp{
			Name:  p.Name,
			Suite: p.Suite,
			Input: p.Input,
			Class: p.PaperClass.String(),
		})
	}
	for _, p := range config.SweepPolicies() {
		cat.Policies = append(cat.Policies, p.String())
	}
	writeJSON(w, http.StatusOK, cat)
}

// healthz is the payload of GET /healthz.
type healthz struct {
	// Status is "ok", "degraded" (the store lost its disk and is running
	// memory-only; Cause says why) or "closing" (draining or shut down).
	Status string `json:"status"`
	// Cause is the first write error that degraded the store ("degraded"
	// status only).
	Cause  string `json:"cause,omitempty"`
	Jobs   int    `json:"jobs"`
	Queued int    `json:"queued"`
	// Inflight counts the live (queued or running) jobs.
	Inflight int `json:"inflight"`
}

// handleHealthz implements GET /healthz.  Status codes follow the statuses:
// "ok" and "degraded" answer 200 — a degraded server still serves sweeps,
// results just do not survive a restart — while "closing" answers 503 so
// load balancers stop routing to an instance on its way out.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := healthz{
		Status:   "ok",
		Jobs:     len(s.jobs),
		Queued:   s.sched.Queued(),
		Inflight: s.liveJobsLocked(),
	}
	closing := s.draining || s.closed
	s.mu.Unlock()
	code := http.StatusOK
	// The store has its own mutex; checked outside s.mu like every other
	// store call on a handler path.
	if deg, cause := s.store.Degraded(); deg {
		h.Status = "degraded"
		h.Cause = cause
	}
	if closing {
		h.Status = "closing"
		h.Cause = ""
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}
