// Package sweep is the experiment harness: it runs the parameter sweep of
// Table 5.4 (2 time policies x 7 data policies x 3 retention times, plus the
// full-SRAM baseline) over the applications of Table 5.3, normalizes every
// metric to the per-application SRAM baseline exactly as the paper does, and
// produces the data series behind Table 6.1 and Figures 6.1-6.4.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"refrint/internal/config"
	"refrint/internal/core"
	"refrint/internal/faults"
	"refrint/internal/sim"
	"refrint/internal/workload"
)

// Options selects what the harness runs.  Its JSON form carries exactly
// what determines the Results, and is what Key hashes: Workers only changes
// how fast the sweep runs, never what it computes, so it is left out.
type Options struct {
	// Base is the architecture preset ("scaled" by default; "fullsize" for
	// the paper's literal configuration).
	Base config.Config `json:"base"`
	// Apps is the list of application names (default: all of Table 5.3).
	Apps []string `json:"apps"`
	// RetentionTimesUS restricts the retention times (default: 50/100/200).
	RetentionTimesUS []float64 `json:"retention_times_us"`
	// Policies restricts the policies per retention time (default: the 14
	// of Table 5.4).
	Policies []config.Policy `json:"policies"`
	// EffortScale further multiplies every application's per-thread memory
	// operation count (1.0 = the preset's own size; benches use less).
	EffortScale float64 `json:"effort_scale"`
	// Seed makes the synthetic workloads deterministic.
	Seed int64 `json:"seed"`
	// Workers bounds the number of concurrent simulations (default: NumCPU).
	Workers int `json:"-"`

	// CellLookup, when non-nil, is consulted before every simulation with
	// the cell's canonical key.  A hit is used in place of running the
	// simulation and counts as an instantly-completed sim in progress
	// callbacks.  It must be safe for concurrent use.
	CellLookup func(CellKey) (sim.Result, bool) `json:"-"`
	// CellPut, when non-nil, receives every freshly computed cell result
	// (cache hits are not re-announced).  It must be safe for concurrent
	// use.
	CellPut func(CellKey, sim.Result) `json:"-"`
}

// DefaultOptions returns the options used by cmd/refrint-sweep: the scaled
// preset, every application, the full Table 5.4 sweep.
func DefaultOptions() Options {
	return Options{
		Base:             config.Scaled(),
		Apps:             workload.AppNames(),
		RetentionTimesUS: config.RetentionTimesUS(),
		Policies:         config.SweepPolicies(),
		EffortScale:      1.0,
		Seed:             1,
		Workers:          runtime.NumCPU(),
	}
}

// QuickOptions returns a reduced sweep used by benchmarks and integration
// tests: one representative application per class and a quarter of the
// per-thread work.  The figure shapes survive the reduction; only statistical
// noise grows.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Apps = []string{"FFT", "LU", "Blackscholes"}
	o.EffortScale = 0.25
	return o
}

// normalise fills in defaults.
func (o Options) normalise() Options {
	if o.Base.Cores == 0 {
		o.Base = config.Scaled()
	}
	if len(o.Apps) == 0 {
		o.Apps = workload.AppNames()
	}
	if len(o.RetentionTimesUS) == 0 {
		o.RetentionTimesUS = config.RetentionTimesUS()
	}
	if len(o.Policies) == 0 {
		o.Policies = config.SweepPolicies()
	}
	if o.EffortScale <= 0 {
		o.EffortScale = 1.0
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// CheckEffort reports an EffortScale the sweep cannot run: NaN, infinite,
// negative, or so large that an application's per-thread reference count
// overflows int64 (see workload.Params.WithEffort).  Zero means the
// default.  Unknown applications are left to fail in their cells.
func (o Options) CheckEffort() error {
	for _, app := range o.normalise().Apps {
		p, err := workload.Get(app)
		if err != nil {
			continue
		}
		if _, err := p.WithEffort(o.EffortScale); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return nil
}

// Size returns the number of simulations the options describe (after
// defaulting): every application at every (retention, policy) point, plus
// one SRAM baseline per application.
func (o Options) Size() int {
	o = o.normalise()
	return len(o.Apps) * (len(o.RetentionTimesUS)*len(o.Policies) + 1)
}

// Key returns a stable content hash identifying the sweep's outcome: two
// Options with equal keys compute the same set of simulation cells with
// identical per-cell results, regardless of worker count.  Defaults are
// applied first, so an all-zero Options and an explicit DefaultOptions()
// share a key.  Apps, RetentionTimesUS and Policies are sorted (on copies,
// never mutating the caller) before hashing, so permuted but equivalent
// requests share a cache/store slot.  Note the one consequence of that
// sharing: the series *order* of a cached Results follows whichever
// permutation executed first, not the caller's — the data is identical
// cell-for-cell.  The key is safe for use in URLs and file names.
func (o Options) Key() string {
	o = o.normalise()
	apps := append([]string(nil), o.Apps...)
	sort.Strings(apps)
	retentions := append([]float64(nil), o.RetentionTimesUS...)
	sort.Float64s(retentions)
	policies := append([]config.Policy(nil), o.Policies...)
	sort.Slice(policies, func(i, j int) bool { return policies[i].String() < policies[j].String() })
	return config.HashJSON(Options{
		Base:             o.Base,
		Apps:             apps,
		RetentionTimesUS: retentions,
		Policies:         policies,
		EffortScale:      o.EffortScale,
		Seed:             o.Seed,
	})
}

// Point identifies one cell of the sweep: a policy at a retention time (or
// the SRAM baseline when RetentionUS is zero).  Its JSON form names the
// policy by its paper label.
type Point struct {
	Policy      config.Policy `json:"policy"`
	RetentionUS float64       `json:"retention_us"`
}

// IsBaseline reports whether the point is the SRAM baseline.
func (p Point) IsBaseline() bool { return p.Policy.Time == config.NoRefresh }

// Config returns the chip configuration a cell at p runs on: base as the
// SRAM baseline, or base in eDRAM under p's policy and retention time.  A
// scaled base shrinks the paper-scale retention time with its capacities.
func (p Point) Config(base config.Config) config.Config {
	if p.IsBaseline() {
		return config.AsSRAM(base)
	}
	retention := p.RetentionUS
	if base.Name == "scaled" {
		retention = config.ScaledRetentionUS(retention)
	}
	return config.AsEDRAM(base, p.Policy, retention)
}

// Label renders the point the way the paper's figures label bars, e.g.
// "R.WB(32,32)".
func (p Point) Label() string { return p.Policy.String() }

// Key is a stable map key for the point.
func (p Point) Key() string {
	if p.IsBaseline() {
		return "SRAM"
	}
	return fmt.Sprintf("%s@%gus", p.Policy, p.RetentionUS)
}

// Run is one simulation outcome within the sweep.
type Run struct {
	App    string
	Point  Point
	Result sim.Result
	// watch is the WB(n,m) budget watch of a Valid cell this package
	// simulated, and nil in every other Run: one built elsewhere or read
	// back from a store spares no WB(n,m) follower (see Reuse).
	watch *core.Watch
}

// Results holds every run of a sweep, indexed for the figure generators.
type Results struct {
	Options Options
	// Baselines maps application name to its SRAM baseline run.
	Baselines map[string]Run
	// Runs maps point key -> application name -> run.
	Runs map[string]map[string]Run
	// Points lists the non-baseline points in figure order.
	Points []Point
}

// Execute runs the sweep described by the options.
func Execute(opts Options) (*Results, error) {
	return ExecuteContext(context.Background(), opts, nil)
}

// Progress reports how far a sweep has advanced: Done of Total simulations
// have completed.
type Progress struct {
	Done  int
	Total int
}

// Cell is one simulation of a sweep: an application at a point, with the
// canonical key that identifies its result across sweeps.
type Cell struct {
	App   string
	Point Point
	Key   CellKey
}

// points returns the non-baseline points of normalised options in figure
// order: every policy at each retention time.
func (o Options) points() []Point {
	var points []Point
	for _, ret := range o.RetentionTimesUS {
		for _, p := range o.Policies {
			points = append(points, Point{RetentionUS: ret, Policy: p})
		}
	}
	return points
}

// Cells enumerates the simulations the options describe (after defaulting):
// for every application, its SRAM baseline followed by every (retention,
// policy) point.  This is the unit of work: ExecuteContext runs the cells on
// a local pool, and the sweep service schedules them individually.
func Cells(opts Options) []Cell {
	opts = opts.normalise()
	keyer := opts.cellKeyer()
	points := opts.points()
	cells := make([]Cell, 0, opts.Size())
	for _, app := range opts.Apps {
		for _, pt := range append([]Point{{Policy: config.SRAMBaseline}}, points...) {
			cells = append(cells, Cell{App: app, Point: pt, Key: keyer.key(app, pt)})
		}
	}
	return cells
}

// Assemble indexes the runs of a sweep's cells into Results.  runs[i] is the
// Run of Cells(opts)[i] and is filed under that cell's application and
// point, whatever labels it carries itself; the Results do not depend on the
// order in which the cells completed.
func Assemble(opts Options, runs []Run) *Results {
	opts = opts.normalise()
	res := &Results{
		Options:   opts,
		Baselines: make(map[string]Run),
		Runs:      make(map[string]map[string]Run),
		Points:    opts.points(),
	}
	for _, pt := range res.Points {
		res.Runs[pt.Key()] = make(map[string]Run)
	}
	for i, c := range Cells(opts) {
		run := runs[i]
		run.App, run.Point = c.App, c.Point
		if c.Point.IsBaseline() {
			res.Baselines[c.App] = run
		} else {
			res.Runs[c.Point.Key()][c.App] = run
		}
	}
	return res
}

// ExecuteContext runs the sweep described by the options on a pool of
// Options.Workers goroutines, honouring cancellation and reporting progress.
//
// Each run is simulated once.  A family is the cells of one application,
// retention time and time policy, and its Valid cell leads it; the other
// members are the cells whose CellKey.Leader names it.  The pool claims the
// cells in ClaimOrder, leaders first.  A follower takes its leader's Result
// when Reuse says that run computes the follower's too: an R.all or P.all
// follower whenever its leader has finished, by simulating or from
// CellLookup, and a WB(n,m) follower when its leader simulated here and its
// budget watch spares the follower.  Every other follower simulates as
// RunCell does; no worker waits for another.  A reused cell still passes
// RunCell's fault points, CellLookup and CellPut, and counts in progress.
//
// When ctx is cancelled, or a cell fails, the pool stops starting new
// simulations and returns ctx.Err() (or the first cell error).  On
// cancellation the running simulations stop within a few thousand
// references; after a cell failure the others run to completion.  The
// partial Results are discarded.
//
// If progress is non-nil it is called after every completed simulation, from
// worker goroutines; each call carries the number of simulations completed
// at that instant, but calls from different workers may be observed out of
// order.  The callback must be safe for concurrent use and return quickly.
func ExecuteContext(ctx context.Context, opts Options, progress func(Progress)) (*Results, error) {
	res, _, err := execute(ctx, opts, progress, ClaimOrder)
	return res, err
}

// execute is ExecuteContext with the claim order given by order, which
// permutes the indices of cells.  It also returns how many cells reused a
// leader's Result.
func execute(ctx context.Context, opts Options, progress func(Progress), order func([]Cell) []int) (*Results, int, error) {
	if err := opts.CheckEffort(); err != nil {
		return nil, 0, err
	}
	opts = opts.normalise()
	cells := Cells(opts)
	fams := families(cells)
	claims := order(cells)
	runs := make([]Run, len(cells))
	var (
		wg       sync.WaitGroup
		next     atomic.Int64 // index in claims of the next cell to claim
		done     atomic.Int64
		reused   atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < min(opts.Workers, len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && !failed.Load() {
				k := int(next.Add(1)) - 1
				if k >= len(claims) {
					return
				}
				i := claims[k]
				run, copied, err := runCell(ctx, opts, cells[i], fams[i])
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
				runs[i] = run
				if copied {
					reused.Add(1)
				}
				if progress != nil {
					progress(Progress{Done: int(done.Add(1)), Total: len(cells)})
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if firstErr != nil {
		return nil, 0, firstErr
	}
	return Assemble(opts, runs), int(reused.Load()), nil
}

// family is the cells that share their Valid cell's run (see
// ExecuteContext).
type family struct {
	lead atomic.Pointer[Run] // nil until the Valid cell has simulated
}

// leads reports whether a cell at policy p leads its family.
func leads(p config.Policy) bool { return p.Data == config.ValidData }

// families returns each cell's family, or nil for a cell outside every
// family: a baseline, a Dirty cell, or a follower whose leader is not among
// cells.
func families(cells []Cell) []*family {
	byLeader := make(map[CellKey]*family)
	for _, c := range cells {
		if leads(c.Point.Policy) {
			byLeader[c.Key] = new(family)
		}
	}
	fams := make([]*family, len(cells))
	for i, c := range cells {
		if leads(c.Point.Policy) {
			fams[i] = byLeader[c.Key]
		} else if k, ok := c.Key.Leader(); ok {
			fams[i] = byLeader[k]
		}
	}
	return fams
}

// ClaimOrder lists the indices of cells in the order that lets followers
// reuse their leaders' runs: first the Valid cells that some cell in cells
// follows (see CellKey.Leader), last those followers (R.all, P.all and
// WB(n,m)), and every other cell in between, each group in the order of
// cells.  A sweep without followers keeps its order.
// ExecuteContext claims a sweep's cells in this order, and the sweep
// service creates a job's cells in it.
func ClaimOrder(cells []Cell) []int {
	fams := families(cells)
	followed := make(map[*family]bool)
	for i, c := range cells {
		if fams[i] != nil && !leads(c.Point.Policy) {
			followed[fams[i]] = true
		}
	}
	rank := func(i int) int {
		switch {
		case !followed[fams[i]]:
			return 1
		case leads(cells[i].Point.Policy):
			return 0
		default:
			return 2
		}
	}
	order := make([]int, 0, len(cells))
	for r := range 3 {
		for i := range cells {
			if rank(i) == r {
				order = append(order, i)
			}
		}
	}
	return order
}

// Reuse returns the Result that the follower cell c of the sweep opts takes
// from lead, which must be the Run of the cell whose key is c.Key.Leader(),
// or false when c must simulate.  R.all and P.all follow from any finished
// lead, by construction: R.all is R.valid, since sentries arm only on valid
// lines, and P.all is P.valid with each level's refreshes counted in closed
// form (sim.PeriodicAllFrom).  WB(n,m) is Valid until some line is due for a
// refresh with no budget left, which lead's budget watch shows; a lead this
// package did not simulate (one read back from a store) carries no watch
// and spares no WB(n,m) cell.  The zero Run spares nothing.  The Result is
// labelled with c's policy and has its own Stats.
func Reuse(opts Options, lead Run, c Cell) (sim.Result, bool) {
	if _, ok := c.Key.Leader(); !ok || lead.Result.Stats == nil {
		return sim.Result{}, false
	}
	p := c.Point.Policy
	switch {
	case p.Data == config.WBData && (lead.watch == nil || !lead.watch.Spares(p.N, p.M)):
		return sim.Result{}, false
	case p == config.PeriodicAll:
		return sim.PeriodicAllFrom(c.Point.Config(opts.normalise().Base), lead.Result), true
	}
	res := lead.Result
	res.Policy = p.String()
	res.Stats = res.Stats.Clone()
	return res, true
}

// PanicError is what a panicking simulation cell is converted into: the
// sweep's worker goroutines recover per cell, so one buggy policy/workload
// combination fails its sweep instead of killing the process.  Callers that
// need to distinguish contained panics from ordinary failures (the server's
// job lifecycle counts and logs them) unwrap it with errors.As; Stack holds
// the panicking goroutine's stack for that log.
type PanicError struct {
	App   string // application of the panicking cell
	Cell  string // Point.Key() of the panicking cell
	Value any    // the recovered panic value
	Stack []byte // debug.Stack() captured inside the recover
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: panic in cell %s/%s: %v", e.App, e.Cell, e.Value)
}

// RunCell runs one cell behind the per-cell containment boundary: a panic
// anywhere below (simulation bug, cache hook, injected fault) is recovered
// into a *PanicError, and the fault-injection points for simulation latency
// and simulation failure are consulted first.  The injection checks are a
// single atomic load each when no fault spec is installed.
//
// When the options carry the cell-level result cache hooks, a CellLookup hit
// replaces the simulation outright and every freshly computed result is
// offered to CellPut.
//
// When ctx is cancelled with the cause ErrYield while the cell simulates,
// RunCell returns a *Parked error that holds the half-run simulation.
func RunCell(ctx context.Context, opts Options, c Cell) (Run, error) {
	run, _, err := runCell(ctx, opts, c, nil)
	return run, err
}

// runCell is RunCell for a cell of family fam (nil: none).  A leader
// publishes its run to fam, whether CellLookup served or it simulated; a
// follower takes its leader's Result when Reuse allows, and reports that
// with copied.
func runCell(ctx context.Context, opts Options, c Cell, fam *family) (run Run, copied bool, err error) {
	defer contain(c, &run, &err)
	if err := faults.CheckCtx(ctx, faults.SimRun); err != nil {
		return Run{}, false, fmt.Errorf("sweep: %s %s: %w", c.App, c.Point.Key(), err)
	}
	if opts.CellLookup != nil {
		if res, ok := opts.CellLookup(c.Key); ok {
			run = Run{App: c.App, Point: c.Point, Result: res}
			fam.publish(c, run)
			return run, false, nil
		}
	}
	if lead := fam.leader(); lead != nil {
		if res, ok := Reuse(opts, *lead, c); ok {
			if opts.CellPut != nil {
				opts.CellPut(c.Key, res)
			}
			return Run{App: c.App, Point: c.Point, Result: res}, true, nil
		}
	}
	run, err = runOne(ctx, opts.normalise(), c)
	if err == nil {
		fam.publish(c, run)
	}
	return run, false, err
}

// publish makes run its family's leader when c, the cell it is the run of,
// leads f.  A nil f publishes nothing.
func (f *family) publish(c Cell, run Run) {
	if f != nil && leads(c.Point.Policy) {
		f.lead.Store(&run)
	}
}

// leader returns the published run of f's leader, or nil: none yet, or no
// family.
func (f *family) leader() *Run {
	if f == nil {
		return nil
	}
	return f.lead.Load()
}

// contain is RunCell's and Resume's deferred panic guard: it converts a
// recovered panic into a *PanicError for cell c.
func contain(c Cell, run *Run, err *error) {
	if r := recover(); r != nil {
		*run, *err = Run{}, &PanicError{App: c.App, Cell: c.Point.Key(), Value: r, Stack: debug.Stack()}
	}
}

// ErrYield is the cancellation cause that parks a running cell instead of
// abandoning it: cancel the context given to RunCell (or Resume) through
// context.WithCancelCause with ErrYield, and the cell's simulation stops at
// its next poll point, within a few thousand references, and comes back as
// a *Parked.
var ErrYield = errors.New("sweep: cell yielded")

// Parked is the error RunCell and Resume return for a cell whose context
// yielded (see ErrYield).  It holds the cell's half-run simulator, which
// belongs to the Parked until Resume finishes the run: a Parked that is
// never resumed is simply dropped, and its simulator with it.
type Parked struct {
	opts   Options
	cell   Cell
	system *sim.System
}

func (p *Parked) Error() string {
	return fmt.Sprintf("sweep: %s %s: parked", p.cell.App, p.cell.Point.Key())
}

// Resume continues the parked simulation under ctx, on any goroutine, and
// returns the Run the cell gives uninterrupted.  It is RunCell without the
// fault points and CellLookup, which the first slice already passed: a
// panic becomes a *PanicError, a fresh result is offered to CellPut, and a
// ctx that yields again returns another *Parked.  Call it at most once.
func (p *Parked) Resume(ctx context.Context) (run Run, err error) {
	defer contain(p.cell, &run, &err)
	return simulate(ctx, p.opts, p.cell, p.system)
}

// runOne executes one cell's simulation on an idle System, stopping early
// with ctx.Err() when ctx is cancelled.  A Valid cell watches the WB(n,m)
// budgets (sim.(*System).WatchBudgets), so that its Run can serve its
// followers (Reuse).
func runOne(ctx context.Context, opts Options, c Cell) (Run, error) {
	params, err := workload.Get(c.App)
	if err != nil {
		return Run{}, err
	}
	if params, err = params.WithEffort(opts.EffortScale); err != nil {
		return Run{}, fmt.Errorf("sweep: %s %s: %w", c.App, c.Point.Key(), err)
	}

	system := idle.get()
	if err := system.Reset(c.Point.Config(opts.Base), params, opts.Seed); err != nil {
		idle.put(system)
		return Run{}, fmt.Errorf("sweep: %s %s: %w", c.App, c.Point.Key(), err)
	}
	system.WatchBudgets()
	return simulate(ctx, opts, c, system)
}

// simulate runs or resumes system's simulation of cell c.  A run that
// finishes is offered to CellPut, and carries the budget watch when the
// System watched; one whose ctx yields is parked with its System.
// Otherwise the System goes back to idle: a cancelled System is as reusable
// as a finished one, since Reset re-initialises all of it.  One that
// panicked is not returned.
func simulate(ctx context.Context, opts Options, c Cell, system *sim.System) (Run, error) {
	result, err := system.RunContext(ctx)
	if err != nil && errors.Is(context.Cause(ctx), ErrYield) {
		return Run{}, &Parked{opts: opts, cell: c, system: system}
	}
	watch, watched := system.Watch() // read before another cell resets system
	idle.put(system)
	if err != nil {
		return Run{}, err
	}
	result.RetentionUS = c.Point.RetentionUS // report the paper-scale retention
	if opts.CellPut != nil {
		opts.CellPut(c.Key, result)
	}
	run := Run{App: c.App, Point: c.Point, Result: result}
	if watched {
		run.watch = &watch
	}
	return run, nil
}

// idle is the free list of simulators that runOne resets instead of
// building a chip per cell.  It holds at most GOMAXPROCS systems, as many as
// can run at once.  A sync.Pool is not used: nothing bounds the idle
// systems it keeps until a GC, which reuse makes rare, and in the service
// benchmark it raised peak resident memory by about a fifth.
var idle systemList

type systemList struct {
	mu   sync.Mutex
	free []*sim.System
}

// get returns an idle System, or a zero one for Reset to build.
func (l *systemList) get() *sim.System {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(sim.System)
	}
	s := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return s
}

// put returns s to the list, or drops it when the list is full.
func (l *systemList) put(s *sim.System) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < runtime.GOMAXPROCS(0) {
		l.free = append(l.free, s)
	}
}

// AppsByClass groups the sweep's applications by their paper class.
func (r *Results) AppsByClass() map[workload.Class][]string {
	out := make(map[workload.Class][]string)
	for _, app := range r.Options.Apps {
		p, err := workload.Get(app)
		if err != nil {
			continue
		}
		out[p.PaperClass] = append(out[p.PaperClass], app)
	}
	for _, apps := range out {
		sort.Strings(apps)
	}
	return out
}

// Lookup returns the run of an application at a point (ok reports presence).
func (r *Results) Lookup(app string, pt Point) (Run, bool) {
	if pt.IsBaseline() {
		run, ok := r.Baselines[app]
		return run, ok
	}
	byApp, ok := r.Runs[pt.Key()]
	if !ok {
		return Run{}, false
	}
	run, ok := byApp[app]
	return run, ok
}
