package verify

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"refrint/internal/config"
	"refrint/internal/sim"
	"refrint/internal/stats"
	"refrint/internal/sweep"
)

// quickSweep runs the quick sweep at seed 1 once per test binary; every
// test below reads from it.
var quickSweep = sync.OnceValues(func() (*sweep.Results, error) {
	return sweep.Execute(sweep.QuickOptions())
})

// cell is one run of the quick sweep with a name for failure messages.
type cell struct {
	name string
	run  sweep.Run
}

// cells returns every run of the quick sweep, SRAM baselines first, in a
// fixed order.
func cells(t *testing.T) []cell {
	t.Helper()
	res, err := quickSweep()
	if err != nil {
		t.Fatalf("quick sweep: %v", err)
	}
	var out []cell
	for _, app := range res.Options.Apps {
		out = append(out, cell{app + "/SRAM", res.Baselines[app]})
	}
	for _, pt := range res.Points {
		for _, app := range res.Options.Apps {
			run, ok := res.Lookup(app, pt)
			if !ok {
				t.Fatalf("quick sweep has no %s run at %s", app, pt.Key())
			}
			out = append(out, cell{fmt.Sprintf("%s/%s@%gus", app, pt.Label(), pt.RetentionUS), run})
		}
	}
	if len(out) != sweep.QuickOptions().Size() {
		t.Fatalf("%d cells, want %d", len(out), sweep.QuickOptions().Size())
	}
	return out
}

var cacheLevels = []stats.Level{stats.IL1, stats.DL1, stats.L2, stats.L3}

// TestLookupsAreHitsOrMisses checks that every lookup at a cache level is
// counted as exactly one hit or miss.  L3 writes are writebacks arriving
// from the L2s, which look nothing up, so at L3 only reads count.
func TestLookupsAreHitsOrMisses(t *testing.T) {
	for _, c := range cells(t) {
		for _, l := range cacheLevels {
			ctr := c.run.Result.Stats.Levels[l]
			lookups := ctr.Reads + ctr.Writes
			if l == stats.L3 {
				lookups = ctr.Reads
			}
			if ctr.Hits+ctr.Misses != lookups {
				t.Errorf("%s %v: hits %d + misses %d != lookups %d", c.name, l, ctr.Hits, ctr.Misses, lookups)
			}
		}
	}
}

// TestFillsAtMostMisses checks that no cache level fills a line it did not
// miss on.
func TestFillsAtMostMisses(t *testing.T) {
	for _, c := range cells(t) {
		for _, l := range cacheLevels {
			if ctr := c.run.Result.Stats.Levels[l]; ctr.Fills > ctr.Misses {
				t.Errorf("%s %v: fills %d > misses %d", c.name, l, ctr.Fills, ctr.Misses)
			}
		}
	}
}

// TestEnergyDecompositionsAgree checks that the per-level split of on-chip
// cache energy (Figure 6.1) and the per-component split (Figure 6.2) add up
// to the same total.  The two sums add in a different order, so they may
// differ in the last bits.
func TestEnergyDecompositionsAgree(t *testing.T) {
	for _, c := range cells(t) {
		e := c.run.Result.Energy
		levels := e.IL1 + e.DL1 + e.L2 + e.L3
		components := e.Dynamic + e.Leakage + e.Refresh
		if d := math.Abs(levels - components); d > 1e-12*math.Max(math.Abs(levels), math.Abs(components)) {
			t.Errorf("%s: levels sum to %g J, components to %g J", c.name, levels, components)
		}
	}
}

// TestPerCoreCyclesWithinRunCycles checks that no core finishes after the
// run's execution time, which is the slowest core's.
func TestPerCoreCyclesWithinRunCycles(t *testing.T) {
	for _, c := range cells(t) {
		r := c.run.Result
		for i, cyc := range r.Stats.PerCoreCycles {
			if cyc > r.Cycles {
				t.Errorf("%s: core %d ran %d cycles, past the run's %d", c.name, i, cyc, r.Cycles)
			}
		}
	}
}

// TestSRAMNeverRefreshesOrDecays checks that SRAM cells spend no refresh
// energy and lose no line to decay.
func TestSRAMNeverRefreshesOrDecays(t *testing.T) {
	for _, c := range cells(t) {
		if c.run.Point.Policy != config.SRAMBaseline {
			continue
		}
		r := c.run.Result
		if r.Energy.Refresh != 0 {
			t.Errorf("%s: refresh energy %g J", c.name, r.Energy.Refresh)
		}
		for _, l := range cacheLevels {
			if d := r.Stats.Levels[l].Decays; d != 0 {
				t.Errorf("%s %v: %d decays", c.name, l, d)
			}
		}
	}
}

// TestRefrintAllIsRefrintValid pins that under Refrint the All and Valid
// data policies are the same computation: sentries are armed only on valid
// lines, so no invalid line ever raises an interrupt to be refreshed.  Every
// counter, the energy and the execution time agree in each (application,
// retention) pair.  Both cells are simulated alone, since the sweep hands
// R.all the R.valid run.
func TestRefrintAllIsRefrintValid(t *testing.T) {
	runs := alone(t, func(c sweep.Cell) bool {
		return c.Point.Policy.Time == config.RefrintTime &&
			(c.Point.Policy.Data == config.AllData || c.Point.Policy.Data == config.ValidData)
	})
	opts := sweep.QuickOptions()
	rAll := config.Policy{Time: config.RefrintTime, Data: config.AllData}
	pairs := 0
	for _, ret := range opts.RetentionTimesUS {
		for _, app := range opts.Apps {
			a, okAll := runs[cellID{app, sweep.Point{RetentionUS: ret, Policy: rAll}}]
			v, okValid := runs[cellID{app, sweep.Point{RetentionUS: ret, Policy: config.RefrintValid}}]
			if !okAll || !okValid {
				t.Fatalf("%s@%gus: R.all or R.valid missing from the sweep", app, ret)
			}
			if !sameRun(a, v) {
				t.Errorf("%s@%gus: R.all differs from R.valid:\n all   %v, %d cycles\n valid %v, %d cycles",
					app, ret, a.Energy, a.Cycles, v.Energy, v.Cycles)
			}
			pairs++
		}
	}
	if pairs != 9 {
		t.Errorf("compared %d (app, retention) pairs, want 9", pairs)
	}
}

// TestPeriodicAllIsPeriodicValid checks the identity the sweep derives
// P.all from: P.all is P.valid with each level's refreshes counted in closed
// form (sim.PeriodicAllFrom).  In each (application, retention) pair, P.all
// derived from P.valid agrees with P.all in every counter, the energy, the
// execution time and the label.  Both cells are simulated alone, since the
// sweep hands P.all the derived run.
func TestPeriodicAllIsPeriodicValid(t *testing.T) {
	runs := alone(t, func(c sweep.Cell) bool {
		return c.Point.Policy == config.PeriodicAll || c.Point.Policy == config.PeriodicValid
	})
	opts := sweep.QuickOptions()
	pairs := 0
	for _, ret := range opts.RetentionTimesUS {
		for _, app := range opts.Apps {
			all := sweep.Point{RetentionUS: ret, Policy: config.PeriodicAll}
			a, okAll := runs[cellID{app, all}]
			v, okValid := runs[cellID{app, sweep.Point{RetentionUS: ret, Policy: config.PeriodicValid}}]
			if !okAll || !okValid {
				t.Fatalf("%s@%gus: P.all or P.valid missing from the sweep", app, ret)
			}
			d := sim.PeriodicAllFrom(all.Config(opts.Base), v)
			if !sameRun(d, a) || d.Policy != a.Policy {
				t.Errorf("%s@%gus: P.all derived from P.valid differs from P.all:\n derived %s %v, %d cycles, %d refreshes\n P.all   %s %v, %d cycles, %d refreshes",
					app, ret, d.Policy, d.Energy, d.Cycles, d.Stats.TotalOnChipRefreshes(),
					a.Policy, a.Energy, a.Cycles, a.Stats.TotalOnChipRefreshes())
			}
			pairs++
		}
	}
	if pairs != 9 {
		t.Errorf("compared %d (app, retention) pairs, want 9", pairs)
	}
}

// sameRun reports whether two runs agree in every counter, the energy and
// the execution time.
func sameRun(a, b sim.Result) bool {
	return reflect.DeepEqual(a.Stats, b.Stats) && a.Energy == b.Energy && a.Cycles == b.Cycles
}

// cellID names a cell of the quick sweep.
type cellID struct {
	app   string
	point sweep.Point
}

// alone simulates each cell of the quick sweep at seed 1 that keep selects
// on its own, through sweep.RunCell, on GOMAXPROCS goroutines.
func alone(t *testing.T, keep func(sweep.Cell) bool) map[cellID]sim.Result {
	t.Helper()
	opts := sweep.QuickOptions()
	var cells []sweep.Cell
	for _, c := range sweep.Cells(opts) {
		if keep(c) {
			cells = append(cells, c)
		}
	}
	runs := make([]sweep.Run, len(cells))
	errs := make([]error, len(cells))
	parallel(len(cells), func(i int) {
		runs[i], errs[i] = sweep.RunCell(context.Background(), opts, cells[i])
	})
	out := make(map[cellID]sim.Result, len(cells))
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatalf("%s %s: %v", c.App, c.Point.Key(), errs[i])
		}
		out[cellID{c.App, c.Point}] = runs[i].Result
	}
	return out
}

// parallel calls f(0), ..., f(n-1) on GOMAXPROCS goroutines.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
}
