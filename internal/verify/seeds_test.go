package verify

import (
	"math"
	"testing"

	"refrint/internal/config"
	"refrint/internal/sweep"
)

// seedTolerance bounds how far a Figure 6.1 total may move with the
// workload seed.  Over seeds 1–8 of the quick sweep the largest move was
// 0.030.
const seedTolerance = 0.05

// TestFiguresStableAcrossSeeds is the seed relation of the quick sweep:
// at seeds 2–4, every Figure 6.1 total stays within seedTolerance of its
// value at seed 1, and the headline ordering holds at every seed —
// R.WB(32,32) below P.all at 50 µs in memory energy (Figure 6.1) and in
// execution time (Figure 6.4).
func TestFiguresStableAcrossSeeds(t *testing.T) {
	first, err := quickSweep()
	if err != nil {
		t.Fatalf("quick sweep: %v", err)
	}
	base := first.Figure61()
	for seed := int64(1); seed <= 4; seed++ {
		res := first
		if seed > 1 {
			opts := sweep.QuickOptions()
			opts.Seed = seed
			if res, err = sweep.Execute(opts); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		bars := res.Figure61()
		if len(bars) != len(base) {
			t.Fatalf("seed %d: %d Figure 6.1 bars, want %d", seed, len(bars), len(base))
		}
		worst := 0.0
		for i, bar := range bars {
			d := math.Abs(bar.Total - base[i].Total)
			worst = math.Max(worst, d)
			if d > seedTolerance {
				t.Errorf("seed %d: Figure 6.1 %s total %.4f, %.4f from seed 1's %.4f", seed, bar.Point.Key(), bar.Total, d, base[i].Total)
			}
		}
		t.Logf("seed %d: largest Figure 6.1 move from seed 1 is %.4f", seed, worst)

		pAll, ok1 := sweep.Find(bars, "P.all", config.Retention50us)
		rWB, ok2 := sweep.Find(bars, "R.WB(32,32)", config.Retention50us)
		times := res.Figure64("all")
		pAllT, ok3 := sweep.Find(times, "P.all", config.Retention50us)
		rWBT, ok4 := sweep.Find(times, "R.WB(32,32)", config.Retention50us)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			t.Fatalf("seed %d: no P.all or R.WB(32,32) bar at 50us", seed)
		}
		if rWB.Total >= pAll.Total {
			t.Errorf("seed %d: R.WB(32,32) memory energy %.4f not below P.all's %.4f at 50us", seed, rWB.Total, pAll.Total)
		}
		if rWBT.Value >= pAllT.Value {
			t.Errorf("seed %d: R.WB(32,32) time %.4f not below P.all's %.4f at 50us", seed, rWBT.Value, pAllT.Value)
		}
	}
}
