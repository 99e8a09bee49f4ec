package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"refrint/internal/faults"
	"refrint/internal/sched"
	"refrint/internal/store"
	"refrint/internal/sweep"
)

// This file is the cell-granular execution layer.  A job does not run as
// one unit: each of its simulation cells is a scheduler item of its own,
// inheriting the class and client of the job that created it.  The
// in-flight table (Server.cells) maps every cell that is being probed,
// queued or running to the one execution that computes it, so a later job
// overlapping an earlier one — identical or not — joins the cells already
// in flight instead of simulating them again.
//
// A cell's life:
//
//	probing ──▶ queued ◀──▶ running ──▶ done
//	   │          │            │
//	   └──────────┴────────────┴──▶ done (result from the store, failure, or abort)
//
// A fresh cell is looked up in the store after the admitting handler
// releases the server mutex, and only a miss is queued.  A running cell
// goes back to queued when it is preempted: when a strictly more urgent
// cell is queued and no worker is idle, the least urgent running cell
// yields at its simulation's next poll point (sweep.ErrYield) and is
// requeued at the front of its class with its half-run simulator
// (sweep.Parked), which the next worker to take it resumes.  A cell is removed
// from the in-flight table when it reaches done, after a fresh result has
// been stored — so at every instant a cell is either in flight or (store
// budget permitting) stored, and no cell is simulated twice.
//
// Nor is a refresh trajectory: a follower (an R.all, P.all or WB(n,m) cell,
// see sweep.CellKey.Leader) created while its family's Valid cell is in
// flight keeps a pointer to that leader.  When the leader has finished by
// the time a worker takes the follower, and sweep.Reuse says its run
// computes the follower's too, the follower takes that Result instead of
// simulating.  A leader served from the store counts as finished: its
// R.all and P.all followers take its Result, and its WB(n,m) followers,
// which need the budget watch of a leader simulated here, simulate.  Every
// other follower simulates; no worker waits for a leader.

// cellState is the lifecycle state of an in-flight cell.
type cellState uint8

const (
	cellProbing cellState = iota // fresh, waiting for its store lookup
	cellQueued                   // waiting in a scheduler queue
	cellRunning                  // a worker is simulating it
	cellDone                     // completed, failed or aborted
)

// cell is one simulation in flight, shared by every job waiting on it.
// All fields are guarded by the server mutex except ctx, from which the
// worker derives each running slice's context.
type cell struct {
	sc   sweep.Cell
	opts sweep.Options // options of the sweep that created the cell

	client string
	class  sched.Class // the most urgent class among the waiting jobs
	handle sched.Handle
	state  cellState

	// ctx is cancelled when no live job waits on the cell any more, or
	// when the server closes; the simulation checks it every few thousand
	// references (sim.(*System).RunContext) and stops.
	ctx    context.Context
	cancel context.CancelFunc

	// yield cancels the context of the running slice, a child of ctx; with
	// the cause sweep.ErrYield it preempts the cell.  yielding marks a slice
	// asked to yield that has not stopped yet, and turn a slice that is
	// never asked (see runCell).  parked is the half-run simulation of a
	// preempted cell, held while the cell is queued again.
	yield    context.CancelCauseFunc
	yielding bool
	turn     bool
	parked   *sweep.Parked

	waiters []waiter

	// leader is the in-flight cell of this follower's family leader when
	// the follower was created, or nil; run is a done cell's result, which
	// its followers may take (sweep.Reuse).
	leader *cell
	run    sweep.Run
}

// waiter is one job waiting on a cell, with the cell's index in the job's
// sweep.
type waiter struct {
	j *Job
	i int
}

// attachCellsLocked enrols a fresh job on its sweep's cells.  Cells already
// in flight are joined, promoting them to the job's class when it is more
// urgent; the others are created in sweep.ClaimOrder, leaders first, and
// left for probeStore — which the admitting handler must call after
// releasing the mutex.  Caller holds the server mutex.
func (s *Server) attachCellsLocked(j *Job) {
	cells := sweep.Cells(j.opts)
	j.cells = make([]*cell, len(cells))
	j.runs = make([]sweep.Run, len(cells))
	j.pending = len(cells)
	for _, i := range sweep.ClaimOrder(cells) {
		sc := cells[i]
		if c, ok := s.cells[sc.Key]; ok {
			s.inflightJoins++
			c.waiters = append(c.waiters, waiter{j: j, i: i})
			j.cells[i] = c
			s.reclassCellLocked(c)
			if c.state == cellRunning {
				s.startJobLocked(j, time.Now())
			}
			continue
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		c := &cell{
			sc:      sc,
			opts:    j.opts,
			client:  j.request.Client,
			class:   j.class,
			state:   cellProbing,
			ctx:     ctx,
			cancel:  cancel,
			waiters: []waiter{{j: j, i: i}},
		}
		if k, ok := sc.Key.Leader(); ok {
			c.leader = s.cells[k]
		}
		s.cells[sc.Key] = c
		j.cells[i] = c
		s.probes = append(s.probes, c)
	}
}

// enqueueCellLocked hands a cell to the scheduler: a fresh cell at the back
// of its queue, a preempted one (requeue) at the front, keeping its parked
// simulation.  After Close the cell (and every job waiting on it) is
// cancelled instead.  Caller holds the server mutex.
func (s *Server) enqueueCellLocked(c *cell, requeue bool, parked *sweep.Parked) {
	if !s.closed {
		var h sched.Handle
		var ok bool
		if requeue {
			h, ok = s.sched.Requeue(c.client, c.class, c)
		} else {
			h, ok = s.sched.Submit(c.client, c.class, c)
		}
		if ok {
			c.handle, c.state = h, cellQueued
			if parked != nil {
				c.parked = parked
				s.parked++
			}
			s.preemptLocked()
			return
		}
	}
	s.cellDoneLocked(c, sweep.Run{}, context.Canceled)
}

// preemptLocked makes room for queued cells more urgent than a running
// one.  While every worker is busy, it asks the least urgent running cell to
// yield (sweep.ErrYield) if a queued cell is strictly more urgent than it:
// one yield per such queued cell, counting the yields still under way.  A
// cell never preempts another of its own class, nor one running its
// weighted round-robin turn.  At most Workers cells are parked or yielding
// at once, so a flood holds no more half-run simulators than there are
// workers.  Caller holds the server mutex.
func (s *Server) preemptLocked() {
	for len(s.running) >= s.cfg.Workers && s.parked+s.yields < s.cfg.Workers {
		var victim *cell
		for _, c := range s.running {
			if !c.yielding && !c.turn && (victim == nil || c.class > victim.class) {
				victim = c
			}
		}
		if victim == nil || victim.class == sched.Interactive {
			return
		}
		if s.urgentQueuedLocked(victim.class) <= s.yields {
			return
		}
		victim.yielding = true
		s.yields++
		victim.yield(sweep.ErrYield)
	}
}

// urgentQueuedLocked counts the queued cells strictly more urgent than
// class.  Caller holds the server mutex.
func (s *Server) urgentQueuedLocked(class sched.Class) int {
	queued := s.sched.Stats().Queued
	n := 0
	for c := sched.Class(0); c < class; c++ {
		n += queued[c]
	}
	return n
}

// takeParkedLocked detaches and returns a cell's parked simulation, if it
// has one.  Caller holds the server mutex.
func (s *Server) takeParkedLocked(c *cell) *sweep.Parked {
	p := c.parked
	if p != nil {
		c.parked = nil
		s.parked--
	}
	return p
}

// probeStore resolves the fresh cells awaiting their store lookup: a stored
// cell completes at once, any other is queued.  It runs WITHOUT the server
// mutex (the store may read disk).  Checking the in-flight table before the
// store means the store's cell misses count exactly the cells that are then
// simulated.
func (s *Server) probeStore() {
	s.mu.Lock()
	probes := s.probes
	s.probes = nil
	s.mu.Unlock()
	for _, c := range probes {
		res, hit := s.store.GetCell(c.sc.Key)
		var done []*Job
		s.mu.Lock()
		switch {
		case c.state != cellProbing: // aborted while probing
		case hit:
			done = s.cellDoneLocked(c, sweep.Run{App: c.sc.App, Point: c.sc.Point, Result: res}, nil)
		default:
			s.enqueueCellLocked(c, false, nil)
		}
		s.mu.Unlock()
		s.completeJobs(done)
	}
}

// runCell is the scheduler's run callback: it simulates one dequeued cell,
// or resumes a preempted one, and delivers the run to every job waiting on
// it.  A slice that yields puts the cell back in the queue instead.
func (s *Server) runCell(c *cell) {
	s.mu.Lock()
	if c.state != cellQueued {
		s.mu.Unlock() // aborted between dequeue and here
		return
	}
	if s.closed {
		// Close drains the queues through here: nothing runs any more.
		s.cellDoneLocked(c, sweep.Run{}, context.Canceled)
		s.mu.Unlock()
		return
	}
	c.state = cellRunning
	now := time.Now()
	for _, w := range c.waiters {
		s.startJobLocked(w.j, now)
	}
	class := c.class
	ctx, yield := context.WithCancelCause(c.ctx)
	c.yield = yield
	// Taken while a more urgent cell waits, the cell has its weighted
	// round-robin turn, which keeps less urgent classes from starving: it
	// runs to the end of its slice unpreempted.
	c.turn = s.urgentQueuedLocked(class) > 0
	parked := s.takeParkedLocked(c)
	var lead sweep.Run
	if c.leader != nil {
		lead = c.leader.run
	}
	s.running = append(s.running, c)
	s.mu.Unlock()

	var run sweep.Run
	var err error
	res, reused := sweep.Reuse(c.opts, lead, c.sc)
	if reused {
		run = sweep.Run{App: c.sc.App, Point: c.sc.Point, Result: res}
	} else {
		run, err = s.executeGuarded(ctx, c, class, parked)
	}
	yield(nil)
	// Persist before leaving the in-flight table, so a sweep arriving in
	// between finds the cell in one place or the other.  Blob writes happen
	// outside the mutex, like every store call.
	if err == nil {
		if perr := s.store.PutCell(c.sc.Key, run.Result); perr != nil {
			s.logf("store: persisting cell %s: %v", c.sc.Key.Hash(), perr)
		}
	}
	s.mu.Lock()
	if reused {
		s.cellReuses++
	}
	yielded := s.stopRunningLocked(c)
	var p *sweep.Parked
	if errors.As(err, &p) {
		err = context.Canceled // unless requeued below, a parked cell is abandoned
	}
	if yielded && errors.Is(err, context.Canceled) && c.state == cellRunning && !s.closed {
		// Preempted.  An Execute that stopped without parking starts over.
		s.preemptions[c.class]++
		s.enqueueCellLocked(c, true, p)
		s.mu.Unlock()
		return
	}
	done := s.cellDoneLocked(c, run, err)
	s.mu.Unlock()
	s.completeJobs(done)
}

// stopRunningLocked removes a cell whose slice returned from the running
// set and reports whether the slice had been asked to yield.  Caller holds
// the server mutex.
func (s *Server) stopRunningLocked(c *cell) bool {
	for i, r := range s.running {
		if r == c {
			last := len(s.running) - 1
			s.running[i] = s.running[last]
			s.running[last] = nil
			s.running = s.running[:last]
			break
		}
	}
	c.yield = nil
	yielded := c.yielding
	if yielded {
		c.yielding = false
		s.yields--
	}
	return yielded
}

// executeGuarded runs one slice of a cell — the configured per-cell Execute,
// or the resumption of its parked simulation — behind a recover guard.
// sweep.RunCell already converts simulation panics into errors; this is the
// last line of defense for panics in other Execute implementations — a
// recovered panic fails the cell's jobs instead of killing the worker.
// The slice runs under pprof labels naming its class, client, application
// and policy, so a CPU profile of a live server splits by them.
func (s *Server) executeGuarded(ctx context.Context, c *cell, class sched.Class, parked *sweep.Parked) (run sweep.Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.recordPanic("exec", r, debug.Stack())
			run, err = sweep.Run{}, fmt.Errorf("cell execution panicked: %v: %w", r, errPanicked)
		}
	}()
	labels := pprof.Labels("class", class.String(), "client", c.client, "app", c.sc.App, "policy", c.sc.Point.Label())
	pprof.Do(ctx, labels, func(ctx context.Context) {
		if parked != nil {
			run, err = parked.Resume(ctx)
		} else {
			run, err = s.cfg.Execute(ctx, c.opts, c.sc)
		}
	})
	return run, err
}

// cellDoneLocked retires a cell from the in-flight table and delivers its
// outcome to every waiting job: a failure fails them all, a run fills their
// slot, advances their progress and publishes it as a progress event of the
// job and of its batch.  It returns the jobs whose last cell this was; the
// caller completes them with completeJobs after releasing the mutex.
// Caller holds the server mutex.
func (s *Server) cellDoneLocked(c *cell, run sweep.Run, err error) []*Job {
	if c.state == cellDone {
		return nil
	}
	c.state = cellDone
	if s.cells[c.sc.Key] == c {
		delete(s.cells, c.sc.Key)
	}
	c.cancel()
	s.takeParkedLocked(c)
	if err == nil {
		c.run = run
	}
	var pe *sweep.PanicError
	if errors.As(err, &pe) {
		// A panic contained inside the simulation: account and log it once
		// per cell here — sweep cannot reach the server's counters or logger.
		s.panicsTotal["sim"]++
		s.cfg.Logger.Error("panic recovered",
			"site", "sim",
			"app", pe.App,
			"cell", pe.Cell,
			"panic", fmt.Sprint(pe.Value),
			"stack", string(pe.Stack))
	}
	// Detach the waiters first: failing a job withdraws it from its other
	// cells (abortJobLocked), which must find this one already empty.
	waiters := c.waiters
	c.waiters = nil
	var done []*Job
	now := time.Now()
	for _, w := range waiters {
		j := w.j
		if j.state.Terminal() {
			continue
		}
		j.cells[w.i] = nil
		if err != nil {
			s.finishLocked(j, nil, err)
			continue
		}
		s.startJobLocked(j, now) // a stored cell can complete a queued job's first cell
		j.runs[w.i] = run
		j.pending--
		j.done++
		s.simsCompleted++
		s.simRate.Add(1)
		s.bus.publish(eventProgress, jobTopic(j.id), j.request.Client, j.class, func() any {
			return progressEvent{ID: j.id, Kind: "sweep", State: j.state, Progress: progressView(j.done, j.total, j.state)}
		})
		s.publishBatchLocked(j.batch, true)
		if j.pending == 0 {
			done = append(done, j)
		}
	}
	return done
}

// completeJobs assembles, records and finishes jobs whose every cell has
// completed.  Called WITHOUT the server mutex: assembly and the manifest
// write (recordSweep) must not stall handlers — and once a job is
// observably done, its manifest is stored.
func (s *Server) completeJobs(done []*Job) {
	for _, j := range done {
		s.mu.Lock()
		if j.state.Terminal() { // cancelled or timed out since its last cell
			s.mu.Unlock()
			continue
		}
		runs := j.runs
		j.trace.mark(phasePersisting, time.Now())
		s.mu.Unlock()
		res, err := s.assembleGuarded(j, runs)
		s.mu.Lock()
		s.finishLocked(j, res, err)
		s.mu.Unlock()
	}
}

// assembleGuarded assembles a job's results and records its manifest behind
// a recover guard: a panic there fails this job alone, with reason "panic",
// and the caller goes on to the next job.  The guard must be here: the
// scheduler's guard sees only the cell, which is already done.
func (s *Server) assembleGuarded(j *Job, runs []sweep.Run) (res *sweep.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.recordPanic("complete", r, debug.Stack())
			res, err = nil, fmt.Errorf("job completion panicked: %v: %w", r, errPanicked)
		}
	}()
	if err := faults.Check(faults.JobComplete); err != nil {
		return nil, err
	}
	res = sweep.Assemble(j.opts, runs)
	s.recordSweep(j.key, j.opts)
	return res, nil
}

// recordSweep writes the manifest of a sweep whose job ended done, which
// lets GET /v1/sweeps/{key}/... find the sweep's cells, unless the store
// already holds it.  Called WITHOUT the server mutex.
func (s *Server) recordSweep(key string, opts sweep.Options) {
	if s.store.Contains(store.KindSweep, key) {
		return
	}
	if err := s.store.Put(store.KindSweep, key, store.Manifest{Options: opts}); err != nil {
		s.logf("store: persisting sweep manifest %s: %v", key, err)
	}
}

// startJobLocked moves a queued job to running the first time one of its
// cells starts (or completes from the store): it leaves the queue phase,
// its admission slot frees, and its deadline starts.  A no-op for a job
// already started.  Caller holds the server mutex.
func (s *Server) startJobLocked(j *Job, now time.Time) {
	if j.state != StateQueued {
		return
	}
	j.state = StateRunning
	s.queuedSweeps[j.class]--
	j.startedAt = now
	j.trace.mark(phaseExecuting, now)
	s.publishJobLocked(j, eventState)
	s.publishBatchLocked(j.batch, false)
	if j.timeout > 0 {
		j.timer = time.AfterFunc(j.timeout, func() {
			s.mu.Lock()
			s.finishLocked(j, nil, context.DeadlineExceeded)
			s.mu.Unlock()
		})
	}
	s.logf("sweep %s: running (%d sims)", j.key, j.total)
}

// abortJobLocked withdraws a terminal job from its outstanding cells.  A
// cell left with no waiter is aborted — dropped from its queue, or its
// simulation cancelled — while a cell other jobs still wait on keeps
// running, moved to the most urgent class that remains.  Cells the job
// already completed are in the store.  Caller holds the server mutex.
func (s *Server) abortJobLocked(j *Job) {
	for i, c := range j.cells {
		if c == nil {
			continue
		}
		j.cells[i] = nil
		kept := c.waiters[:0]
		for _, w := range c.waiters {
			if w.j != j {
				kept = append(kept, w)
			}
		}
		c.waiters = kept
		if len(kept) == 0 {
			s.abortCellLocked(c)
		} else {
			s.reclassCellLocked(c)
		}
	}
}

// abortCellLocked retires a cell nobody waits on: a queued cell leaves the
// scheduler and drops its parked simulation, a running one has its context
// cancelled, and either way the cell leaves the in-flight table so no later
// job joins it.  Caller holds the server mutex.
func (s *Server) abortCellLocked(c *cell) {
	if c.state == cellDone {
		return
	}
	if c.state == cellQueued {
		s.sched.Cancel(c.handle)
	}
	c.state = cellDone
	if s.cells[c.sc.Key] == c {
		delete(s.cells, c.sc.Key)
	}
	c.cancel()
	s.takeParkedLocked(c)
}

// reclassCellLocked moves a waiting cell to the most urgent class among the
// jobs waiting on it (priority inheritance in both directions), keeping its
// parked simulation if it has one; a queued cell made more urgent may
// preempt a running one.  Running and finished cells are left alone.
// Caller holds the server mutex.
func (s *Server) reclassCellLocked(c *cell) {
	if (c.state != cellProbing && c.state != cellQueued) || len(c.waiters) == 0 {
		return
	}
	want := c.waiters[0].j.class
	for _, w := range c.waiters[1:] {
		want = min(want, w.j.class)
	}
	switch {
	case want == c.class:
	case c.state == cellProbing:
		c.class = want
	default:
		if h, ok := s.sched.Promote(c.handle, want); ok {
			c.handle, c.class = h, want
			s.preemptLocked()
		}
	}
}
