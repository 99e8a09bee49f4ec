package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"refrint"
	"refrint/internal/config"
	"refrint/internal/sim"
	"refrint/internal/stats"
	"refrint/internal/sweep"
	"refrint/internal/workload"
)

// cell is one simulation: an application under one policy and retention
// time, at one workload length and seed.  Every cell starts with empty
// caches, as the paper's runs do.
type cell struct {
	app       string
	policy    config.Policy
	retention float64 // paper-scale microseconds; 0 for the SRAM baseline
	effort    float64
	seed      int64
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/%gus/effort=%g/seed=%d", c.app, c.policy, c.retention, c.effort, c.seed)
}

// config returns the cell's architecture and application exactly as the
// sweep harness builds them for the same cell.
func (c cell) config() (config.Config, workload.Params, error) {
	params, err := workload.Get(c.app)
	if err != nil {
		return config.Config{}, workload.Params{}, err
	}
	if c.effort != 1 {
		params.MemOpsPerThread = max(int64(float64(params.MemOpsPerThread)*c.effort), 1000)
	}
	cfg := config.Scaled()
	if c.policy.Time == config.NoRefresh {
		cfg = config.AsSRAM(cfg)
	} else {
		cfg = config.AsEDRAM(cfg, c.policy, config.ScaledRetentionUS(c.retention))
	}
	return cfg, params, nil
}

// refs returns the number of references the cell simulates.
func (c cell) refs() int64 {
	cfg, params, err := c.config()
	if err != nil {
		return 0
	}
	return workload.ForConfig(params, cfg).MemOpsPerThread * int64(cfg.Cores)
}

// sram returns the SRAM control of the cell: same application and seed, no
// refresh.
func (c cell) sram() cell {
	c.policy, c.retention = config.SRAMBaseline, 0
	return c
}

// cellRun is one simulated cell and the host time of its two phases.
type cellRun struct {
	res            sim.Result
	refs           int64
	newDur, runDur time.Duration
}

// newSystem builds the cell's modelled chip, recording a prefix+"sim.New"
// span.
func newSystem(c cell, tr *tracer, parent int, prefix string) (*sim.System, time.Duration, error) {
	cfg, params, err := c.config()
	if err != nil {
		return nil, 0, err
	}
	sp := tr.begin(parent, prefix+"sim.New")
	start := time.Now()
	sys, err := sim.New(cfg, params, c.seed)
	d := time.Since(start)
	tr.end(sp, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", c, err)
	}
	return sys, d, nil
}

// simulate builds and runs one cell, recording prefix+"sim.New" and
// prefix+"sim.Run" spans.
func simulate(c cell, tr *tracer, parent int, prefix string) (cellRun, error) {
	sys, newDur, err := newSystem(c, tr, parent, prefix)
	if err != nil {
		return cellRun{}, err
	}
	refs := sys.Workload().MemOpsPerThread * int64(sys.Config().Cores)
	sp := tr.begin(parent, prefix+"sim.Run")
	start := time.Now()
	res := sys.Run()
	runDur := time.Since(start)
	tr.end(sp, refs)
	return cellRun{res: res, refs: refs, newDur: newDur, runDur: runDur}, nil
}

// drain generates the cell's whole reference stream with a fresh generator
// and no hierarchy behind it, returning the number of references.
func drain(c cell) (int64, error) {
	cfg, params, err := c.config()
	if err != nil {
		return 0, err
	}
	app := workload.NewApp(workload.ForConfig(params, cfg), cfg, c.seed)
	var n int64
	for t := 0; t < app.Threads(); t++ {
		g := app.Thread(t)
		for {
			if _, ok := g.Next(); !ok {
				break
			}
			n++
		}
	}
	return n, nil
}

// simWorkload is a workload of single simulations run one after another on
// one goroutine.  Its cells cycle through seeds S..S+seeds-1 of the run's
// seed S; each seed contributes one group of cells, every application under
// every policy.
type simWorkload struct {
	apps     []string
	policies []config.Policy
	seeds    int64
}

var (
	// streamRefrint: the refresh layer does the most work per reference
	// here, and so do L3, the NoC and DRAM.
	streamRefrint = simWorkload{
		apps:     []string{"FFT"},
		policies: []config.Policy{config.RefrintValid, config.RefrintWB(32, 32)},
		seeds:    24,
	}
	// residentSRAM bypasses refresh entirely and keeps almost every
	// reference in L1/L2, so the generator's share of the time is largest.
	residentSRAM = simWorkload{
		apps:     []string{"Blackscholes", "Streamcluster"},
		policies: []config.Policy{config.SRAMBaseline},
		seeds:    100,
	}
	// sharedPeriodic writes and shares heavily (upgrades, invalidations,
	// downgrades, writebacks) and refreshes through Periodic group scans
	// instead of the sentry wheel.
	sharedPeriodic = simWorkload{
		apps:     []string{"Radix", "LU"},
		policies: []config.Policy{config.PeriodicValid, config.PeriodicWB(32, 32)},
		seeds:    32,
	}
	simWorkloads = []simWorkload{streamRefrint, residentSRAM, sharedPeriodic}
)

// cells lists one cycle of the workload's cells for seed S, seed-major.
func (w simWorkload) cells(seed int64, effort float64) []cell {
	var out []cell
	for s := int64(0); s < w.seeds; s++ {
		for _, app := range w.apps {
			for _, p := range w.policies {
				c := cell{app: app, policy: p, retention: 50, effort: effort, seed: seed + s}
				if p.Time == config.NoRefresh {
					c.retention = 0
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// run simulates whole seed groups of cells until the window has passed.
// In the traced run, alternate groups are traced: each traced cell also
// drains a fresh generator alone and, under a refresh policy, runs its SRAM
// control, so the layers' host time can be separated.  The untraced groups
// between them measure what tracing costs.
func (w simWorkload) run(ctx context.Context, opt options, tr *tracer) (*report, error) {
	exp, err := loadExpected(opt.expected)
	if err != nil {
		return nil, err
	}
	cells := w.cells(opt.seed, opt.scale)
	group := len(w.apps) * len(w.policies)
	minCells := group
	if tr != nil {
		minCells = 2 * group
	}
	rep := newReport()
	chk := newCellChecker(exp)
	var counts modelCounts

	// One untimed warm-up cell.  The first timed cell repeats it, so every
	// run also checks that a cell computes the same result twice.
	warm, err := simulate(cells[0], nil, 0, "")
	if err != nil {
		return nil, err
	}
	rep.attempted++
	rep.failAll(cells[0].String(), chk.check(cells[0], warm.res))
	rep.cal.sampleN(calibrationSamples)

	// Rates are medians over seed groups, which all simulate the same mix of
	// cells, so a burst of interference on a shared host moves few of them.
	var (
		newS, cellS           []float64
		refsRate, cellsRate   []float64
		tracedRate, plainRate []float64
		groupRefs, groupRun   float64
		groupStart, start     = time.Now(), time.Now()
	)
	for i := 0; i < minCells || i%group != 0 || time.Since(start) < opt.window(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := cells[i%len(cells)]
		traced := tr != nil && (i/group)%2 == 0
		var ctr *tracer
		root := 0
		if traced {
			ctr = tr
			root = tr.begin(0, "cell")
		}
		// Each cell starts on a collected heap, as a simulation in a process
		// of its own does, so no cell pays for the garbage of the one before.
		runtime.GC()
		run, err := simulate(c, ctr, root, "")
		if err != nil {
			return nil, err
		}
		rep.attempted++
		problems := chk.check(c, run.res)
		if traced {
			problems = append(problems, traceLayers(c, run, tr, root)...)
			tr.end(root, run.refs)
		}
		rep.failAll(c.String(), problems)
		counts.add(run.res)

		newS = append(newS, run.newDur.Seconds())
		cellS = append(cellS, (run.newDur + run.runDur).Seconds())
		groupRefs += float64(run.refs)
		groupRun += run.runDur.Seconds()
		if i%group == group-1 {
			rate := groupRefs / groupRun
			refsRate = append(refsRate, rate)
			cellsRate = append(cellsRate, float64(group)/time.Since(groupStart).Seconds())
			if traced {
				tracedRate = append(tracedRate, rate)
			} else {
				plainRate = append(plainRate, rate)
			}
			if rep.cal.due(calibrationEvery) {
				rep.cal.sample()
			}
			groupRefs, groupRun, groupStart = 0, 0, time.Now()
		}
	}

	rep.e2e["refs_per_s"] = percentile(refsRate, 50)
	rep.e2e["cells_per_s"] = percentile(cellsRate, 50)
	rep.e2e["latency_p50_s"] = percentile(cellS, 50)
	rep.e2e["latency_p90_s"] = percentile(cellS, 90)
	rep.e2e["setup_s"] = percentile(newS, 50)
	rep.e2e["max_rss_mb"] = maxRSSMB()
	if tr != nil {
		counts.report(rep.layer)
		var run, next, hierarchy, refresh, newMS []float64
		for _, sp := range tr.children("cell") {
			r, n := sp["sim.Run"], sp["workload.Next"]
			run = append(run, perRef(r))
			next = append(next, perRef(n))
			hierarchy = append(hierarchy, perRef(r)-perRef(n))
			newMS = append(newMS, float64(sp["sim.New"].dur())/1e6)
			if ctl, ok := sp["control.sim.Run"]; ok {
				refresh = append(refresh, perRef(r)-perRef(ctl))
			}
		}
		rep.layer["sim.run_ns_per_ref"] = percentile(run, 50)
		rep.layer["workload.next_ns_per_ref"] = percentile(next, 50)
		rep.layer["sim.hierarchy_ns_per_ref"] = percentile(hierarchy, 50)
		rep.layer["core.refresh_ns_per_ref"] = percentile(refresh, 50)
		rep.layer["sim.new_ms_per_cell"] = percentile(newMS, 50)
		rep.layer["trace.overhead_frac"] = ratio(percentile(plainRate, 50), percentile(tracedRate, 50)) - 1
	}
	return rep, nil
}

// traceLayers runs the extra measurements of a traced cell under its root
// span: the cell's generator alone and, for a refresh policy, its SRAM
// control.  It returns the problems found.
func traceLayers(c cell, run cellRun, tr *tracer, root int) []string {
	var problems []string
	sp := tr.begin(root, "workload.Next")
	n, err := drain(c)
	tr.end(sp, n)
	switch {
	case err != nil:
		problems = append(problems, err.Error())
	case n != run.refs:
		problems = append(problems, fmt.Sprintf("generator alone issued %d references, the run %d", n, run.refs))
	}
	if c.policy.Time == config.NoRefresh {
		return problems
	}
	ctlRun, err := simulate(c.sram(), tr, root, "control.")
	switch {
	case err != nil:
		problems = append(problems, err.Error())
	case ctlRun.refs != run.refs:
		problems = append(problems, fmt.Sprintf("SRAM control simulated %d references, the cell %d", ctlRun.refs, run.refs))
	}
	return problems
}

// modelCounts sums the simulated events of a run's cells.  The counts are
// deterministic: they repeat exactly for the same cells.
type modelCounts struct {
	cells             int
	refs, cycles      int64
	st                stats.Stats
	refreshJ, memoryJ float64
}

func (m *modelCounts) add(res sim.Result) {
	m.cells++
	m.refs += res.Stats.MemOps
	m.cycles += res.Cycles
	m.st.Add(res.Stats)
	m.refreshJ += res.Energy.Refresh
	m.memoryJ += res.Energy.MemoryHierarchy()
}

// report writes the per-layer model-count metrics.
func (m *modelCounts) report(out map[string]float64) {
	refs := float64(m.refs)
	lv := m.st.Levels
	l1 := lv[stats.IL1]
	l1.Add(lv[stats.DL1])
	var lookups, stall int64
	for l := stats.IL1; l <= stats.L3; l++ {
		lookups += lv[l].Accesses()
	}
	for l := range lv {
		stall += lv[l].RefreshStall
	}
	out["workload.refs_per_cell"] = ratio(refs, float64(m.cells))
	out["cache.lookups_per_ref"] = ratio(float64(lookups), refs)
	out["cache.l1_hit_rate"] = ratio(float64(l1.Hits), float64(l1.Accesses()))
	out["cache.l3_lookups_per_ref"] = ratio(float64(lv[stats.L3].Accesses()), refs)
	out["cache.l3_miss_rate"] = lv[stats.L3].MissRate()
	out["core.refreshes_per_ref"] = ratio(float64(m.st.TotalOnChipRefreshes()), refs)
	out["core.sentry_irqs_per_ref"] = ratio(float64(m.st.SentryInterrupts), refs)
	out["core.group_scans_per_ref"] = ratio(float64(m.st.PeriodicGroupScans), refs)
	out["core.refresh_stall_cycles_per_ref"] = ratio(float64(stall), refs)
	out["coherence.invalidations_per_ref"] = ratio(float64(m.st.CoherenceInvalidations), refs)
	out["coherence.downgrades_per_ref"] = ratio(float64(m.st.CoherenceDowngrades), refs)
	out["noc.flit_hops_per_ref"] = ratio(float64(m.st.NoCFlits), refs)
	out["dram.accesses_per_ref"] = ratio(float64(m.st.DRAMAccesses()), refs)
	out["sim.cycles_per_ref"] = ratio(float64(m.cycles), refs)
	out["energy.refresh_frac"] = ratio(m.refreshJ, m.memoryJ)
}

// pinnedSweeps is how many quick sweeps, from the default seed on, have
// their figure export pinned.
const pinnedSweeps = 8

// quickOptions returns the quick paper sweep, which runs on every CPU, at
// one seed.
func quickOptions(seed int64, scale float64) sweep.Options {
	opts := refrint.QuickSweep()
	opts.Seed = seed
	opts.EffortScale *= scale
	return opts
}

func figuresKey(o sweep.Options) string {
	return fmt.Sprintf("quick-sweep/figures/effort=%g/seed=%d", o.EffortScale, o.Seed)
}

// figuresPayload renders a sweep's figure export exactly as the sweep
// package's golden file holds it.
func figuresPayload(res *sweep.Results) ([]byte, error) {
	data, err := json.MarshalIndent(res.FiguresExport(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding figures: %w", err)
	}
	return append(data, '\n'), nil
}

// sweepCells lists every cell of a sweep with its harness point.
func sweepCells(o sweep.Options) ([]cell, []sweep.Point) {
	var cells []cell
	var points []sweep.Point
	for _, app := range o.Apps {
		base := sweep.Point{Policy: config.SRAMBaseline}
		cells = append(cells, cell{app: app, policy: base.Policy, effort: o.EffortScale, seed: o.Seed})
		points = append(points, base)
		for _, ret := range o.RetentionTimesUS {
			for _, p := range o.Policies {
				cells = append(cells, cell{app: app, policy: p, retention: ret, effort: o.EffortScale, seed: o.Seed})
				points = append(points, sweep.Point{RetentionUS: ret, Policy: p})
			}
		}
	}
	return cells, points
}

// cellTimer times every cell of a sweep between the harness's CellLookup
// and CellPut hooks, which bracket the cell's sim.New and Run, and records a
// "sweep.cell" span for each on a traced sweep.
type cellTimer struct {
	mu      sync.Mutex
	started map[sweep.CellKey]time.Time
	seconds []float64
}

func timeCells(opts *sweep.Options, tr *tracer, parent int) *cellTimer {
	t := &cellTimer{started: make(map[sweep.CellKey]time.Time)}
	opts.CellLookup = func(k sweep.CellKey) (sim.Result, bool) {
		t.mu.Lock()
		t.started[k] = time.Now()
		t.mu.Unlock()
		return sim.Result{}, false
	}
	opts.CellPut = func(k sweep.CellKey, res sim.Result) {
		end := time.Now()
		t.mu.Lock()
		start := t.started[k]
		t.seconds = append(t.seconds, end.Sub(start).Seconds())
		t.mu.Unlock()
		tr.add(parent, "sweep.cell", "", start, end, res.Stats.MemOps)
	}
	return t
}

// quickRun is one quick sweep of the sweep-quick workload.
type quickRun struct {
	opts    sweep.Options
	res     *sweep.Results
	payload []byte
}

// runSweepQuick runs quick paper sweeps at seeds S, S+1, ... with their
// figure export until the window has passed: the path refrint-sweep users
// take, across every policy and the sweep's worker pool.  Every cell is
// timed through the harness hooks; in the traced run, alternate sweeps also
// record spans.
func runSweepQuick(ctx context.Context, opt options, tr *tracer) (*report, error) {
	exp, err := loadExpected(opt.expected)
	if err != nil {
		return nil, err
	}
	rep := newReport()

	// Set-up: build the modelled chip of a sample of the sweep's cells,
	// each three times.
	first := quickOptions(opt.seed, opt.scale)
	var newS []float64
	setup := tr.begin(0, "setup")
	for range 3 {
		for _, app := range first.Apps {
			for _, c := range []cell{
				{app: app, policy: config.SRAMBaseline},
				{app: app, policy: config.RefrintValid, retention: 50},
				{app: app, policy: config.PeriodicValid, retention: 50},
			} {
				c.effort, c.seed = first.EffortScale, opt.seed
				runtime.GC()
				_, d, err := newSystem(c, tr, setup, "")
				if err != nil {
					return nil, err
				}
				newS = append(newS, d.Seconds())
			}
		}
	}
	tr.end(setup, 0)
	warm := cell{app: first.Apps[0], policy: config.SRAMBaseline, effort: first.EffortScale, seed: opt.seed}
	if _, err := simulate(warm, nil, 0, ""); err != nil {
		return nil, err
	}
	rep.cal.sampleN(calibrationSamples)

	// Rates are medians over sweeps, so a burst of interference on a shared
	// host moves few of them.
	var (
		runs                        []quickRun
		cellS, refsRate, cellsRate  []float64
		tracedExecS                 float64
		tracedPerCell, plainPerCell []float64 // execution seconds per cell
		minSweeps                   = 1
		start                       = time.Now()
	)
	if tr != nil {
		minSweeps = 2
	}
	for k := 0; k < minSweeps || time.Since(start) < opt.window(); k++ {
		opts := quickOptions(opt.seed+int64(k), opt.scale)
		traced := tr != nil && k%2 == 0
		var str *tracer
		root := 0
		if traced {
			str = tr
			root = tr.begin(0, "sweep")
		}
		timer := timeCells(&opts, str, root)
		t0 := time.Now()
		res, err := refrint.RunSweepContext(ctx, opts, nil)
		t1 := time.Now()
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("quick sweep at seed %d: %w", opts.Seed, err)
		}
		fig := tr.begin(root, "report.FiguresExport")
		payload, err := figuresPayload(res)
		tr.end(fig, 0)
		t2 := time.Now()
		tr.end(root, int64(opts.Size()))
		if err != nil {
			return nil, err
		}
		rep.attempted++
		runs = append(runs, quickRun{opts: opts, res: res, payload: payload})
		exec, size := t1.Sub(t0).Seconds(), float64(opts.Size())
		var refs int64
		cells, _ := sweepCells(opts)
		for _, c := range cells {
			refs += c.refs()
		}
		cellS = append(cellS, timer.seconds...)
		refsRate = append(refsRate, float64(refs)/exec)
		cellsRate = append(cellsRate, size/t2.Sub(t0).Seconds())
		if traced {
			tracedExecS += exec
			tracedPerCell = append(tracedPerCell, exec/size)
		} else {
			plainPerCell = append(plainPerCell, exec/size)
		}
		rep.cal.sampleN(calibrationSamples) // the worker pool is idle
	}

	counts, err := checkQuickRuns(opt, exp, runs, rep)
	if err != nil {
		return nil, err
	}
	rep.e2e["refs_per_s"] = percentile(refsRate, 50)
	rep.e2e["cells_per_s"] = percentile(cellsRate, 50)
	rep.e2e["latency_p50_s"] = percentile(cellS, 50)
	rep.e2e["latency_p90_s"] = percentile(cellS, 90)
	rep.e2e["setup_s"] = percentile(newS, 50)
	rep.e2e["max_rss_mb"] = maxRSSMB()
	if tr != nil {
		counts.report(rep.layer)
		cellSpans := tr.named("sweep.cell")
		cellMS := durations(cellSpans, time.Millisecond)
		var nsPerRef []float64
		for _, s := range cellSpans {
			nsPerRef = append(nsPerRef, perRef(s))
		}
		rep.layer["sweep.cell_ms_p50"] = percentile(cellMS, 50)
		rep.layer["sweep.cell_ms_p90"] = percentile(cellMS, 90)
		rep.layer["sim.run_ns_per_ref"] = percentile(nsPerRef, 50)
		rep.layer["sweep.pool_idle_frac"] = 1 - ratio(sum(cellMS)/1e3, float64(first.Workers)*tracedExecS)
		rep.layer["report.figures_ms"] = percentile(durations(tr.named("report.FiguresExport"), time.Millisecond), 50)
		rep.layer["sim.new_ms_per_cell"] = percentile(durations(tr.named("sim.New"), time.Millisecond), 50)
		rep.layer["trace.overhead_frac"] = ratio(percentile(tracedPerCell, 50), percentile(plainPerCell, 50)) - 1
	}
	return rep, nil
}

// checkQuickRuns checks every sweep of the run, outside the timed window:
// the figure export against the sweep package's golden file (seed 1) and
// the pinned digests, every cell against the model's laws, and one cell per
// sweep against a direct simulation of the same cell.  It returns the model
// counts of all the sweeps' cells.
func checkQuickRuns(opt options, exp expected, runs []quickRun, rep *report) (modelCounts, error) {
	var counts modelCounts
	var golden []byte
	for i, r := range runs {
		var problems []string
		if r.opts.Seed == 1 && opt.scale == 1 {
			if golden == nil {
				var err error
				golden, err = os.ReadFile(filepath.Join(opt.root, "internal", "sweep", "testdata", "figures_quick.json"))
				if err != nil {
					return counts, fmt.Errorf("reading the quick sweep's golden figures: %w", err)
				}
			}
			if !bytes.Equal(r.payload, golden) {
				problems = append(problems, "figure export differs from internal/sweep/testdata/figures_quick.json")
			}
		}
		if want, ok := exp[figuresKey(r.opts)]; ok && want != bytesDigest(r.payload) {
			problems = append(problems, fmt.Sprintf("figure export digest %s, pinned %s", bytesDigest(r.payload), want))
		}
		cells, points := sweepCells(r.opts)
		for j, c := range cells {
			run, ok := r.res.Lookup(c.app, points[j])
			if !ok {
				problems = append(problems, c.String()+": missing from the results")
				continue
			}
			for _, p := range laws(c, run.Result) {
				problems = append(problems, c.String()+": "+p)
			}
			counts.add(run.Result)
		}
		j := (i * 37) % len(cells)
		direct, err := simulate(cells[j], nil, 0, "")
		if err != nil {
			return counts, err
		}
		if run, ok := r.res.Lookup(cells[j].app, points[j]); ok && digest(run.Result) != digest(direct.res) {
			problems = append(problems, cells[j].String()+": the sweep's result differs from a direct simulation")
		}
		rep.failAll(fmt.Sprintf("quick sweep seed %d", r.opts.Seed), problems)
	}
	return counts, nil
}
