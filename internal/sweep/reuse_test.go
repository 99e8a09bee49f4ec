package sweep

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"refrint/internal/config"
	"refrint/internal/sim"
	"refrint/internal/stats"
)

// aloneRuns runs every cell of opts through RunCell on its own, with no
// family, on GOMAXPROCS goroutines.  It is the reference the reusing
// executor must reproduce.
func aloneRuns(t testing.TB, opts Options) []Run {
	t.Helper()
	cells := Cells(opts)
	runs := make([]Run, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	next := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runs[i], errs[i] = RunCell(context.Background(), opts, cells[i])
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s %s alone: %v", cells[i].App, cells[i].Point.Key(), err)
		}
	}
	return runs
}

// reversed claims the cells in the reverse of ExecuteContext's order, so
// every follower is claimed before its leader.
func reversed(cells []Cell) []int {
	order := ClaimOrder(cells)
	slices.Reverse(order)
	return order
}

// raceDetector is set in a build with the race detector, which slows a
// simulation about tenfold.
var raceDetector bool

// TestReuseMatchesRunCell is the differential test of the reusing
// executor: every cell of the quick sweep at seeds 1 and 7 equals the cell
// simulated alone by RunCell, in its whole Result (Stats, Energy, Cycles and
// the Policy label), at 1, 2 and 7 workers and in the reverse claim order.
// In the reverse order every follower is claimed before its leader has
// published, so none reuses and all simulate.  No two cells share a Stats.
// Under the race detector only FFT at seed 1 runs, at 1/32 of the quick
// effort.
func TestReuseMatchesRunCell(t *testing.T) {
	type variant struct {
		name    string
		workers int
		order   func([]Cell) []int
	}
	quick, seeds := QuickOptions(), []int64{1, 7}
	if raceDetector {
		quick.Apps, quick.EffortScale, seeds = quick.Apps[:1], quick.EffortScale/32, seeds[:1]
	}
	for _, seed := range seeds {
		opts := quick
		opts.Seed = seed
		want := aloneRuns(t, opts)
		variants := []variant{{"workers=2", 2, ClaimOrder}, {"reversed", 2, reversed}}
		if seed == 1 {
			variants = append(variants, variant{"workers=1", 1, ClaimOrder}, variant{"workers=7", 7, ClaimOrder})
		}
		for _, v := range variants {
			opts.Workers = v.workers
			res, reused, err := execute(context.Background(), opts, nil, v.order)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			t.Logf("seed %d %s: %d of %d cells reused a Valid run", seed, v.name, reused, len(want))
			switch {
			case v.name == "reversed" && reused != 0:
				t.Errorf("seed %d %s: %d cells reused a leader claimed after them", seed, v.name, reused)
			case v.name != "reversed" && reused == 0:
				t.Errorf("seed %d %s: no cell reused a Valid run", seed, v.name)
			case seed == 1 && v.name == "workers=1" && !raceDetector && reused != 62:
				// One worker finishes every leader before it claims a
				// follower, so the count depends only on the leaders' runs.
				t.Errorf("seed 1 %s: %d cells reused a Valid run, want 62 (44 WB(n,m), 9 R.all and 9 P.all)", v.name, reused)
			}
			seen := make(map[*stats.Stats]string)
			for _, w := range want {
				got, ok := res.Lookup(w.App, w.Point)
				name := w.App + " " + w.Point.Key()
				if !ok {
					t.Fatalf("seed %d %s: %s missing", seed, v.name, name)
				}
				if !reflect.DeepEqual(got, w) {
					t.Errorf("seed %d %s: %s differs from RunCell alone:\n got  %s %v, %d cycles\n want %s %v, %d cycles",
						seed, v.name, name, got.Result.Policy, got.Result.Energy, got.Result.Cycles,
						w.Result.Policy, w.Result.Energy, w.Result.Cycles)
				}
				if other, dup := seen[got.Result.Stats]; dup {
					t.Errorf("seed %d %s: %s shares its Stats with %s", seed, v.name, name, other)
				}
				seen[got.Result.Stats] = name
			}
		}
	}
}

// TestLookedUpLeaderServesStaticFollowers serves only the Valid cells from
// CellLookup: their R.all and P.all followers take the looked-up Result
// instead of simulating, the WB(n,m) followers, which need the budget watch
// of a leader simulated here, simulate, and every Result equals RunCell's
// alone.
func TestLookedUpLeaderServesStaticFollowers(t *testing.T) {
	opts := tinyOptions()
	opts.Workers = 1
	opts.Policies = []config.Policy{
		config.RefrintValid, {Time: config.RefrintTime, Data: config.AllData},
		config.PeriodicValid, config.PeriodicAll, config.RefrintWB(32, 32),
	}
	want := aloneRuns(t, opts)
	stored := make(map[CellKey]sim.Result)
	for i, c := range Cells(opts) {
		if leads(c.Point.Policy) {
			stored[c.Key] = want[i].Result
		}
	}
	opts.CellLookup = func(k CellKey) (sim.Result, bool) {
		res, ok := stored[k]
		return res, ok
	}
	res, reused, err := execute(context.Background(), opts, nil, ClaimOrder)
	if err != nil {
		t.Fatal(err)
	}
	if n := 2 * len(opts.Apps); reused != n {
		t.Errorf("%d cells reused a looked-up Valid run, want %d (R.all and P.all)", reused, n)
	}
	for _, w := range want {
		got, ok := res.Lookup(w.App, w.Point)
		if !ok || !reflect.DeepEqual(got.Result, w.Result) {
			t.Errorf("%s %s differs from RunCell alone", w.App, w.Point.Key())
		}
	}
}

// TestReusedCellPassesHooks checks that a reused cell is looked up, put and
// counted in progress like a simulated one.
func TestReusedCellPassesHooks(t *testing.T) {
	opts := tinyOptions()
	opts.Policies = append(opts.Policies, config.Policy{Time: config.RefrintTime, Data: config.AllData})
	var (
		mu              sync.Mutex
		lookups, puts   = map[CellKey]int{}, map[CellKey]int{}
		progressReports int
	)
	opts.CellLookup = func(k CellKey) (sim.Result, bool) {
		mu.Lock()
		defer mu.Unlock()
		lookups[k]++
		return sim.Result{}, false
	}
	opts.CellPut = func(k CellKey, _ sim.Result) {
		mu.Lock()
		defer mu.Unlock()
		puts[k]++
	}
	_, reused, err := execute(context.Background(), opts, func(Progress) {
		mu.Lock()
		defer mu.Unlock()
		progressReports++
	}, ClaimOrder)
	if err != nil {
		t.Fatal(err)
	}
	if reused == 0 {
		t.Fatal("no cell reused a Valid run; the test checks nothing")
	}
	for _, c := range Cells(opts) {
		if lookups[c.Key] != 1 || puts[c.Key] != 1 {
			t.Errorf("%s %s: %d lookups, %d puts, want 1 and 1", c.App, c.Point.Key(), lookups[c.Key], puts[c.Key])
		}
	}
	if progressReports != opts.Size() {
		t.Errorf("%d progress reports, want %d", progressReports, opts.Size())
	}
}

// BenchmarkQuickSweep runs the quick sweep at seed 1 through ExecuteContext
// and reports the simulation cells completed per second and how many of
// them reused a Valid run.
func BenchmarkQuickSweep(b *testing.B) {
	opts := QuickOptions()
	var reused int
	b.ResetTimer()
	start := time.Now()
	for range b.N {
		var err error
		if _, reused, err = execute(context.Background(), opts, nil, ClaimOrder); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*opts.Size())/time.Since(start).Seconds(), "cells/s")
	b.ReportMetric(float64(reused), "reused_cells")
}
