package verify

import (
	"testing"

	"refrint/internal/config"
	"refrint/internal/core"
	"refrint/internal/edram"
	"refrint/internal/sim"
	"refrint/internal/stats"
	"refrint/internal/sweep"
	"refrint/internal/workload"
)

// family names the cells of one application, retention time and time
// policy.
type family struct {
	app       string
	retention float64
	time      config.TimePolicy
}

func familyOf(app string, pt sweep.Point) family {
	return family{app, pt.RetentionUS, pt.Policy.Time}
}

// watched is a Valid cell simulated with the WB(n,m) budget watch on.
type watched struct {
	result sim.Result
	watch  core.Watch
}

// TestBudgetWatchIsExact checks the watch's verdict both ways on the quick
// sweep: for each WB(n,m) cell, the watch of its family's Valid run says
// that no budget ran out if and only if the WB cell, simulated alone,
// equals that Valid run in every counter, the energy and the execution
// time.  The log gives how many WB cells compute their Valid cell's run.
func TestBudgetWatchIsExact(t *testing.T) {
	opts := sweep.QuickOptions()
	var valid []sweep.Cell
	for _, c := range sweep.Cells(opts) {
		if c.Point.Policy.Data == config.ValidData {
			valid = append(valid, c)
		}
	}
	leads := make([]watched, len(valid))
	errs := make([]error, len(valid))
	parallel(len(valid), func(i int) {
		leads[i], errs[i] = simulateWatched(opts, valid[i])
	})
	byFamily := make(map[family]watched)
	for i, c := range valid {
		if errs[i] != nil {
			t.Fatalf("%s %s: %v", c.App, c.Point.Key(), errs[i])
		}
		byFamily[familyOf(c.App, c.Point)] = leads[i]
	}

	wb := alone(t, func(c sweep.Cell) bool { return c.Point.Policy.Data == config.WBData })
	identical := 0
	for id, res := range wb {
		lead, ok := byFamily[familyOf(id.app, id.point)]
		if !ok {
			t.Fatalf("%s %s: no Valid cell in its family", id.app, id.point.Key())
		}
		p := id.point.Policy
		same, spared := sameRun(res, lead.result), lead.watch.Spares(p.N, p.M)
		if same != spared {
			t.Errorf("%s %s: equal to its Valid run %v, but the watch (%+v) spares WB(%d,%d) %v",
				id.app, id.point.Key(), same, lead.watch, p.N, p.M, spared)
		}
		if same {
			identical++
		}
	}
	if len(wb) != 72 {
		t.Errorf("compared %d WB cells, want 72", len(wb))
	}
	t.Logf("%d of %d WB(n,m) cells compute their Valid cell's run", identical, len(wb))
}

// simulateWatched runs a Valid cell of opts with the budget watch on.
func simulateWatched(opts sweep.Options, c sweep.Cell) (watched, error) {
	params, err := workload.Get(c.App)
	if err != nil {
		return watched{}, err
	}
	if params, err = params.WithEffort(opts.EffortScale); err != nil {
		return watched{}, err
	}
	s, err := sim.New(c.Point.Config(opts.Base), params, opts.Seed)
	if err != nil {
		return watched{}, err
	}
	s.WatchBudgets()
	res := s.Run()
	w, _ := s.Watch()
	return watched{res, w}, nil
}

// TestWBPolicyActionsMonotoneInBudget checks that a larger WB(n,m) budget
// never makes the policy act more: in each (application, retention, time
// policy) family, policy writebacks plus policy invalidations never
// increase from WB(4,4) through WB(32,32).  On-chip refreshes are not
// monotone in the budget, and this test does not assert them.
func TestWBPolicyActionsMonotoneInBudget(t *testing.T) {
	res, err := quickSweep()
	if err != nil {
		t.Fatalf("quick sweep: %v", err)
	}
	families := 0
	for _, ret := range res.Options.RetentionTimesUS {
		for _, tp := range config.TimePolicies() {
			for _, app := range res.Options.Apps {
				prev, prevName := int64(-1), ""
				for _, p := range config.DataPolicies(tp) {
					if p.Data != config.WBData {
						continue
					}
					run, ok := res.Lookup(app, sweep.Point{RetentionUS: ret, Policy: p})
					if !ok {
						t.Fatalf("%s %s@%gus missing from the sweep", app, p, ret)
					}
					acts := run.Result.Stats.PolicyWritebacks + run.Result.Stats.PolicyInvalidates
					if prev >= 0 && acts > prev {
						t.Errorf("%s@%gus: %s acts %d times, more than %s's %d", app, ret, p, acts, prevName, prev)
					}
					prev, prevName = acts, p.String()
				}
				families++
			}
		}
	}
	if families != 18 {
		t.Errorf("checked %d families, want 18", families)
	}
}

// TestPeriodicAllRefreshesClosedForm checks P.all's refresh count at every
// level against its closed form: each bank refreshes every frame of the
// group of each firing due by the end of the run, so a level refreshes
// banks × the sum, over firings k < FiringsUpTo(Cycles), of the size of
// GroupRange(GroupAt(k)).  The P.all cells are simulated alone, since the
// sweep derives them from P.valid through edram's O(1) form of this sum.
func TestPeriodicAllRefreshesClosedForm(t *testing.T) {
	runs := alone(t, func(c sweep.Cell) bool { return c.Point.Policy == config.PeriodicAll })
	base := sweep.QuickOptions().Base
	pairs := 0
	for id, res := range runs {
		cfg := id.point.Config(base)
		ret := edram.NewRetention(cfg.Cell)
		for _, lv := range []struct {
			level stats.Level
			cache config.CacheConfig
			banks int
		}{
			{stats.IL1, cfg.IL1, cfg.Cores},
			{stats.DL1, cfg.DL1, cfg.Cores},
			{stats.L2, cfg.L2, cfg.Cores},
			{stats.L3, cfg.L3, cfg.L3.Banks},
		} {
			sched := edram.NewPeriodicSchedule(ret, lv.cache.SubArrays, lv.cache.Sets()*lv.cache.Ways)
			var perBank int64
			for k := range sched.FiringsUpTo(res.Cycles) {
				group, _ := sched.GroupAt(k)
				start, end := sched.GroupRange(group)
				perBank += int64(end - start)
			}
			want := int64(lv.banks) * perBank
			if got := res.Stats.Levels[lv.level].Refreshes; got != want {
				t.Errorf("%s %s %v: %d refreshes, closed form %d", id.app, id.point.Key(), lv.level, got, want)
			}
			pairs++
		}
	}
	if pairs != 36 {
		t.Errorf("checked %d (cell, level) pairs, want 36", pairs)
	}
}
