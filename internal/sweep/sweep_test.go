package sweep

import (
	"testing"

	"refrint/internal/config"
	"refrint/internal/workload"
)

// tinyOptions is the smallest sweep worth running in unit tests: two
// applications (one Class 1, one Class 3), one retention time, four
// policies, low effort.
func tinyOptions() Options {
	return Options{
		Base:             config.Scaled(),
		Apps:             []string{"FFT", "Blackscholes"},
		RetentionTimesUS: []float64{config.Retention50us},
		Policies: []config.Policy{
			config.PeriodicAll,
			config.RefrintValid,
			config.RefrintWB(4, 4),
			config.RefrintWB(32, 32),
		},
		EffortScale: 0.15,
		Seed:        1,
		Workers:     2,
	}
}

func runTiny(t *testing.T) *Results {
	t.Helper()
	res, err := Execute(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExecuteProducesAllRuns(t *testing.T) {
	res := runTiny(t)
	if len(res.Baselines) != 2 {
		t.Fatalf("baselines = %d, want 2", len(res.Baselines))
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for _, pt := range res.Points {
		byApp := res.Runs[pt.Key()]
		if len(byApp) != 2 {
			t.Errorf("%s: %d runs, want 2", pt.Key(), len(byApp))
		}
	}
}

func TestPointLabelsAndKeys(t *testing.T) {
	base := Point{Policy: config.SRAMBaseline}
	if !base.IsBaseline() || base.Key() != "SRAM" || base.Label() != "SRAM" {
		t.Errorf("baseline point misbehaves: %+v", base)
	}
	p := Point{RetentionUS: 50, Policy: config.RefrintWB(32, 32)}
	if p.IsBaseline() {
		t.Error("policy point marked as baseline")
	}
	if p.Key() != "R.WB(32,32)@50us" {
		t.Errorf("Key = %q", p.Key())
	}
	if p.Label() != "R.WB(32,32)" {
		t.Errorf("Label = %q", p.Label())
	}
}

// TestSweepMatchesTable54 checks one application's cells of the default
// sweep against Table 5.4: the SRAM baseline first, then 3 retention times
// x 14 policies, 43 combinations in all.
func TestSweepMatchesTable54(t *testing.T) {
	opts := DefaultOptions()
	opts.Apps = opts.Apps[:1]
	cells := Cells(opts)
	if len(cells) != 43 {
		t.Fatalf("sweep has %d combinations, want 43 (Table 5.4)", len(cells))
	}
	if !cells[0].Point.IsBaseline() {
		t.Error("first sweep point should be the SRAM baseline")
	}
	if cells[0].Point.Label() != "SRAM" {
		t.Errorf("baseline label = %q", cells[0].Point.Label())
	}
	perRetention := map[float64]int{}
	for _, c := range cells[1:] {
		perRetention[c.Point.RetentionUS]++
		if c.Point.IsBaseline() {
			t.Errorf("non-baseline point %v marked as baseline", c.Point)
		}
	}
	for _, ret := range config.RetentionTimesUS() {
		if perRetention[ret] != 14 {
			t.Errorf("retention %v us has %d policies, want 14", ret, perRetention[ret])
		}
	}
}

func TestDefaultAndQuickOptions(t *testing.T) {
	d := DefaultOptions()
	if len(d.Apps) != 11 || len(d.Policies) != 14 || len(d.RetentionTimesUS) != 3 {
		t.Errorf("DefaultOptions: %d apps %d policies %d retentions", len(d.Apps), len(d.Policies), len(d.RetentionTimesUS))
	}
	q := QuickOptions()
	if len(q.Apps) >= len(d.Apps) || q.EffortScale >= d.EffortScale {
		t.Error("QuickOptions should be strictly smaller than DefaultOptions")
	}
}

func TestNormaliseFillsDefaults(t *testing.T) {
	o := Options{}.normalise()
	if o.Base.Cores == 0 || len(o.Apps) == 0 || len(o.Policies) == 0 || o.EffortScale != 1.0 || o.Workers <= 0 || o.Seed == 0 {
		t.Errorf("normalise left defaults unset: %+v", o)
	}
}

func TestExecuteRejectsUnknownApp(t *testing.T) {
	o := tinyOptions()
	o.Apps = []string{"NotAnApp"}
	if _, err := Execute(o); err == nil {
		t.Error("unknown application should fail")
	}
}

func TestNormalizedEnergyBelowOne(t *testing.T) {
	// Any eDRAM configuration should use less memory energy than the SRAM
	// baseline (that is the whole premise of the paper).
	res := runTiny(t)
	bars := res.Figure61()
	for _, b := range bars {
		if b.Total <= 0 {
			t.Errorf("%s: empty bar", b.Point.Key())
		}
		if b.Total >= 1.0 {
			t.Errorf("%s: normalized memory energy %.2f >= 1 (should beat SRAM)", b.Point.Key(), b.Total)
		}
	}
}

func TestFigure61And62Consistent(t *testing.T) {
	// The two decompositions of Figure 6.1 and 6.2 are views of the same
	// energy: their bar totals must match per point.
	res := runTiny(t)
	byLevel := res.Figure61()
	byComponent := res.Figure62("all")
	if len(byLevel) != len(byComponent) {
		t.Fatalf("series lengths differ: %d vs %d", len(byLevel), len(byComponent))
	}
	for i := range byLevel {
		a, b := byLevel[i].Total, byComponent[i].Total
		if diff := a - b; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: level total %.6f != component total %.6f", byLevel[i].Point.Key(), a, b)
		}
	}
}

func TestRefrintWBBeatsPeriodicAll(t *testing.T) {
	// The paper's headline ordering at 50us: R.WB(32,32) < P.all in memory
	// energy, and execution-time penalty of R.WB(32,32) below P.all.
	res := runTiny(t)
	mem := res.Figure61()
	pAll, ok1 := Find(mem, "P.all", config.Retention50us)
	rWB, ok2 := Find(mem, "R.WB(32,32)", config.Retention50us)
	if !ok1 || !ok2 {
		t.Fatal("missing sweep points")
	}
	if rWB.Total >= pAll.Total {
		t.Errorf("R.WB(32,32) memory energy %.3f should be below P.all %.3f", rWB.Total, pAll.Total)
	}

	times := res.Figure64("all")
	pAllT, _ := Find(times, "P.all", config.Retention50us)
	rWBT, _ := Find(times, "R.WB(32,32)", config.Retention50us)
	if rWBT.Value >= pAllT.Value {
		t.Errorf("R.WB(32,32) slowdown %.3f should be below P.all %.3f", rWBT.Value, pAllT.Value)
	}
	if pAllT.Value <= 1.0 {
		t.Errorf("P.all normalized time %.3f should exceed 1 (it blocks the cache)", pAllT.Value)
	}
}

func TestFigure63TotalAboveMemoryFraction(t *testing.T) {
	// Total system energy savings are diluted by core and network energy,
	// so the normalized total must sit above the normalized memory energy.
	res := runTiny(t)
	mem := res.Figure61()
	tot := res.Figure63("all")
	for i := range mem {
		if tot[i].Value <= mem[i].Total {
			t.Errorf("%s: normalized total %.3f should exceed normalized memory %.3f",
				mem[i].Point.Key(), tot[i].Value, mem[i].Total)
		}
		if tot[i].Value >= 1.0 {
			t.Errorf("%s: normalized total %.3f should still be below 1", tot[i].Point.Key(), tot[i].Value)
		}
	}
}

func TestAppsByClassAndSelectors(t *testing.T) {
	res := runTiny(t)
	classes := res.AppsByClass()
	if len(classes[workload.Class1]) != 1 || classes[workload.Class1][0] != "FFT" {
		t.Errorf("Class1 = %v", classes[workload.Class1])
	}
	if len(classes[workload.Class3]) != 1 || classes[workload.Class3][0] != "Blackscholes" {
		t.Errorf("Class3 = %v", classes[workload.Class3])
	}
	if got := res.appsFor("class1"); len(got) != 1 {
		t.Errorf("appsFor(class1) = %v", got)
	}
	if got := res.appsFor("all"); len(got) != 2 {
		t.Errorf("appsFor(all) = %v", got)
	}
	if got := res.appsFor("bogus"); got != nil {
		t.Errorf("appsFor(bogus) = %v, want nil", got)
	}
}

func TestTable61RowsPresent(t *testing.T) {
	res := runTiny(t)
	rows := res.Table61()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, row := range rows {
		if row.Class == workload.ClassUnknown {
			t.Errorf("%s: unknown class", row.App)
		}
		if row.FootprintRatio <= 0 {
			t.Errorf("%s: footprint ratio %.3f", row.App, row.FootprintRatio)
		}
	}
	// FFT (Class 1) has a much larger footprint ratio than Blackscholes.
	var fft, bs Table61Row
	for _, row := range rows {
		switch row.App {
		case "FFT":
			fft = row
		case "Blackscholes":
			bs = row
		}
	}
	if fft.FootprintRatio <= bs.FootprintRatio {
		t.Errorf("FFT footprint ratio %.2f should exceed Blackscholes %.2f", fft.FootprintRatio, bs.FootprintRatio)
	}
	// A Class 1 application streams through memory, so it produces far more
	// DRAM traffic than a cache-resident Class 3 application.  (The L3 miss
	// *rate* is not a good discriminator: Class 3 applications access the L3
	// so rarely that most of their few accesses are cold misses.)
	if fft.DRAMAccesses <= 2*bs.DRAMAccesses {
		t.Errorf("FFT DRAM accesses %d should far exceed Blackscholes %d", fft.DRAMAccesses, bs.DRAMAccesses)
	}
}

func TestLookup(t *testing.T) {
	res := runTiny(t)
	if _, ok := res.Lookup("FFT", Point{Policy: config.SRAMBaseline}); !ok {
		t.Error("baseline lookup failed")
	}
	pt := Point{RetentionUS: config.Retention50us, Policy: config.RefrintValid}
	if _, ok := res.Lookup("FFT", pt); !ok {
		t.Error("point lookup failed")
	}
	if _, ok := res.Lookup("FFT", Point{RetentionUS: 123, Policy: config.RefrintValid}); ok {
		t.Error("lookup of missing point should fail")
	}
	if _, ok := res.Lookup("Nope", pt); ok {
		t.Error("lookup of missing app should fail")
	}
}

func TestFindHelpersMissing(t *testing.T) {
	if _, ok := Find([]ScalarBar(nil), "x", 1); ok {
		t.Error("Find on an empty ScalarBar series should miss")
	}
	if _, ok := Find([]ComponentEnergyBar(nil), "x", 1); ok {
		t.Error("Find on an empty ComponentEnergyBar series should miss")
	}
	if _, ok := Find([]LevelEnergyBar(nil), "x", 1); ok {
		t.Error("Find on an empty LevelEnergyBar series should miss")
	}
}

func TestApplyEffortFloors(t *testing.T) {
	p, _ := workload.Get("LU")
	small, err := p.WithEffort(0.000001)
	if err != nil || small.MemOpsPerThread < 1000 {
		t.Errorf("effort floor violated: %d (%v)", small.MemOpsPerThread, err)
	}
	for _, scale := range []float64{0, 1.0} {
		same, err := p.WithEffort(scale)
		if err != nil || same.MemOpsPerThread != p.MemOpsPerThread {
			t.Errorf("effort %v should not change the workload", scale)
		}
	}
}
