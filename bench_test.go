package refrint

// This file is the benchmark harness required by DESIGN.md: one benchmark
// per table and figure of the paper's evaluation chapter, each of which
// regenerates the corresponding data series and reports the headline values
// as custom benchmark metrics (so `go test -bench` output doubles as a
// compact reproduction log), plus micro-benchmarks of the simulator's hot
// paths.
//
// The figure benchmarks run a reduced sweep per iteration: one application
// per class, the policies that appear in the figure's discussion, a single
// retention time where the paper highlights 50 us, and shortened runs.  The
// full-resolution data (all 11 applications, all 43 combinations) is
// produced by cmd/refrint-sweep and recorded in EXPERIMENTS.md.

import (
	"testing"

	"refrint/internal/config"
	"refrint/internal/sim"
	"refrint/internal/sweep"
)

// benchApps is one representative application per class (Table 6.1).
var benchApps = []string{"FFT", "LU", "Blackscholes"}

// benchPolicies are the policies the paper's discussion focuses on.
var benchPolicies = []Policy{
	config.PeriodicAll,
	config.PeriodicValid,
	config.RefrintValid,
	config.RefrintDirty,
	config.RefrintWB(4, 4),
	config.RefrintWB(32, 32),
}

// benchSweep runs the reduced sweep used by the figure benchmarks.
func benchSweep(b *testing.B, retentions []float64) *SweepResults {
	b.Helper()
	opts := DefaultSweep()
	opts.Apps = benchApps
	opts.Policies = benchPolicies
	opts.RetentionTimesUS = retentions
	opts.EffortScale = 0.15
	results, err := RunSweep(opts)
	if err != nil {
		b.Fatal(err)
	}
	return results
}

// BenchmarkTable31PolicyTaxonomy exercises the policy taxonomy of Table 3.1:
// parsing, validation and budget derivation for every policy label the
// paper uses.  It is a micro-benchmark of the policy layer.
func BenchmarkTable31PolicyTaxonomy(b *testing.B) {
	labels := []string{
		"SRAM", "P.all", "P.valid", "P.dirty", "R.all", "R.valid", "R.dirty",
		"P.WB(4,4)", "P.WB(8,8)", "P.WB(16,16)", "P.WB(32,32)",
		"R.WB(4,4)", "R.WB(8,8)", "R.WB(16,16)", "R.WB(32,32)",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, l := range labels {
			p, err := ParsePolicy(l)
			if err != nil {
				b.Fatal(err)
			}
			_ = p.DirtyBudget()
			_ = p.CleanBudget()
		}
	}
}

// BenchmarkTable54Sweep runs the complete 43-combination parameter sweep of
// Table 5.4 (3 retention times x 14 policies + the SRAM baseline) on one
// application with shortened runs.
func BenchmarkTable54Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := DefaultSweep()
		opts.Apps = []string{"LU"}
		opts.EffortScale = 0.05
		results, err := RunSweep(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(results.Points) != 42 {
			b.Fatalf("sweep has %d points, want 42", len(results.Points))
		}
	}
	b.ReportMetric(43, "combinations")
}

// BenchmarkTable61AppBinning reproduces the application binning of
// Table 6.1: it runs the SRAM baseline of every application and classifies
// each one along the two axes of Figure 3.1.
func BenchmarkTable61AppBinning(b *testing.B) {
	var class1, class2, class3 int
	for i := 0; i < b.N; i++ {
		opts := DefaultSweep()
		opts.Policies = []Policy{config.RefrintValid}
		opts.RetentionTimesUS = []float64{Retention50us}
		opts.EffortScale = 0.05
		results, err := RunSweep(opts)
		if err != nil {
			b.Fatal(err)
		}
		class1, class2, class3 = 0, 0, 0
		for _, row := range results.Table61() {
			switch row.Class.String() {
			case "Class 1":
				class1++
			case "Class 2":
				class2++
			case "Class 3":
				class3++
			}
		}
	}
	b.ReportMetric(float64(class1), "class1_apps")
	b.ReportMetric(float64(class2), "class2_apps")
	b.ReportMetric(float64(class3), "class3_apps")
}

// BenchmarkFigure61LevelEnergy regenerates Figure 6.1 (L1/L2/L3/DRAM energy
// normalized to full-SRAM) and reports the paper's two headline bars at
// 50 us as metrics (paper: P.all = 0.50, R.WB(32,32) = 0.36).
func BenchmarkFigure61LevelEnergy(b *testing.B) {
	var pAll, rWB float64
	for i := 0; i < b.N; i++ {
		results := benchSweep(b, []float64{Retention50us})
		bars := results.Figure61()
		if bar, ok := sweep.Find(bars, "P.all", Retention50us); ok {
			pAll = bar.Total
		}
		if bar, ok := sweep.Find(bars, "R.WB(32,32)", Retention50us); ok {
			rWB = bar.Total
		}
	}
	b.ReportMetric(pAll, "P.all_mem_vs_SRAM")
	b.ReportMetric(rWB, "R.WB32_mem_vs_SRAM")
}

// BenchmarkFigure62ComponentEnergy regenerates Figure 6.2 (dynamic, leakage,
// refresh and DRAM energy) for each application class and reports the
// refresh fraction of P.all and R.WB(32,32) at 50 us.
func BenchmarkFigure62ComponentEnergy(b *testing.B) {
	var pAllRefresh, rWBRefresh float64
	for i := 0; i < b.N; i++ {
		results := benchSweep(b, []float64{Retention50us})
		for _, class := range []string{"class1", "class2", "class3", "all"} {
			bars := results.Figure62(class)
			if class != "all" {
				continue
			}
			if bar, ok := sweep.Find(bars, "P.all", Retention50us); ok {
				pAllRefresh = bar.Refresh
			}
			if bar, ok := sweep.Find(bars, "R.WB(32,32)", Retention50us); ok {
				rWBRefresh = bar.Refresh
			}
		}
	}
	b.ReportMetric(pAllRefresh, "P.all_refresh_vs_SRAMmem")
	b.ReportMetric(rWBRefresh, "R.WB32_refresh_vs_SRAMmem")
}

// BenchmarkFigure63TotalEnergy regenerates Figure 6.3 (total system energy
// normalized to full-SRAM) for Class 1 and for all applications, and reports
// the 50 us headline bars (paper: P.all = 0.72, R.WB(32,32) = 0.61).
func BenchmarkFigure63TotalEnergy(b *testing.B) {
	var pAll, rWB float64
	for i := 0; i < b.N; i++ {
		results := benchSweep(b, []float64{Retention50us})
		_ = results.Figure63("class1")
		bars := results.Figure63("all")
		if bar, ok := sweep.Find(bars, "P.all", Retention50us); ok {
			pAll = bar.Value
		}
		if bar, ok := sweep.Find(bars, "R.WB(32,32)", Retention50us); ok {
			rWB = bar.Value
		}
	}
	b.ReportMetric(pAll, "P.all_total_vs_SRAM")
	b.ReportMetric(rWB, "R.WB32_total_vs_SRAM")
}

// BenchmarkFigure64ExecutionTime regenerates Figure 6.4 (execution time
// normalized to full-SRAM) for Class 1 and all applications, and reports the
// 50 us slowdowns (paper: P.all = 1.18, R.WB(32,32) = 1.02).
func BenchmarkFigure64ExecutionTime(b *testing.B) {
	var pAll, rWB float64
	for i := 0; i < b.N; i++ {
		results := benchSweep(b, []float64{Retention50us})
		_ = results.Figure64("class1")
		bars := results.Figure64("all")
		if bar, ok := sweep.Find(bars, "P.all", Retention50us); ok {
			pAll = bar.Value
		}
		if bar, ok := sweep.Find(bars, "R.WB(32,32)", Retention50us); ok {
			rWB = bar.Value
		}
	}
	b.ReportMetric(pAll, "P.all_time_vs_SRAM")
	b.ReportMetric(rWB, "R.WB32_time_vs_SRAM")
}

// BenchmarkRetentionSweep covers the retention-time axis of Figures 6.1-6.4
// (50 / 100 / 200 us) for the Refrint Valid policy and reports how the
// refresh share falls as retention grows.
func BenchmarkRetentionSweep(b *testing.B) {
	var r50, r200 float64
	for i := 0; i < b.N; i++ {
		opts := DefaultSweep()
		opts.Apps = []string{"LU"}
		opts.Policies = []Policy{config.RefrintValid}
		opts.EffortScale = 0.1
		results, err := RunSweep(opts)
		if err != nil {
			b.Fatal(err)
		}
		bars := results.Figure62("all")
		if bar, ok := sweep.Find(bars, "R.valid", Retention50us); ok {
			r50 = bar.Refresh
		}
		if bar, ok := sweep.Find(bars, "R.valid", Retention200us); ok {
			r200 = bar.Refresh
		}
	}
	b.ReportMetric(r50, "refresh_at_50us")
	b.ReportMetric(r200, "refresh_at_200us")
}

// --- Single-configuration benchmarks ---------------------------------------
//
// These measure the simulator itself (cycles simulated per second of wall
// clock) for the three configurations the paper's headline compares.

func benchmarkSingleRun(b *testing.B, policy string) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := Simulate(SimRequest{
			App:         "LU",
			Policy:      policy,
			RetentionUS: Retention50us,
			EffortScale: 0.1,
			Seed:        int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkRunSRAMBaseline simulates the full-SRAM baseline (Table 5.2 left
// column).
func BenchmarkRunSRAMBaseline(b *testing.B) { benchmarkSingleRun(b, "SRAM") }

// BenchmarkRunPeriodicAll simulates the conventional eDRAM scheme the paper
// uses as its eDRAM baseline.
func BenchmarkRunPeriodicAll(b *testing.B) { benchmarkSingleRun(b, "P.all") }

// BenchmarkRunRefrintWB simulates the paper's best policy.
func BenchmarkRunRefrintWB(b *testing.B) { benchmarkSingleRun(b, "R.WB(32,32)") }

// --- Ablation benchmarks ----------------------------------------------------

// BenchmarkAblationSentryGuardBand quantifies the cost of the conservative
// sentry guard band of Section 4.1: it compares the refresh count of the
// standard guard band (one cycle per line of the largest bank, which shortens
// the effective sentry period by a third at 50 us) against an idealised
// one-cycle guard band, the bound the paper says post-silicon testing could
// approach.
func BenchmarkAblationSentryGuardBand(b *testing.B) {
	run := func(guard int64) int64 {
		cfg := config.AsEDRAM(config.Scaled(), config.RefrintValid, config.ScaledRetentionUS(Retention50us))
		cfg.Cell.SentryGuardCycles = guard
		params, err := Application("LU")
		if err != nil {
			b.Fatal(err)
		}
		params = params.Scale(config.ScaleFactor())
		params.MemOpsPerThread = 20_000
		system, err := sim.New(cfg, params, 1)
		if err != nil {
			b.Fatal(err)
		}
		res := system.Run()
		return res.Stats.TotalOnChipRefreshes()
	}
	var conservative, ideal int64
	for i := 0; i < b.N; i++ {
		conservative = run(1024)
		ideal = run(1)
	}
	b.ReportMetric(float64(conservative), "refreshes_guarded")
	b.ReportMetric(float64(ideal), "refreshes_ideal")
}

// BenchmarkAblationWBBudget sweeps the WB(n,m) budget (the knob of
// Table 5.4) on one Class 1 application and reports the refresh counts, the
// design-choice trade-off DESIGN.md calls out.
func BenchmarkAblationWBBudget(b *testing.B) {
	budgets := []int{4, 32}
	counts := map[int]int64{}
	for i := 0; i < b.N; i++ {
		for _, n := range budgets {
			res, err := Simulate(SimRequest{
				App:         "FFT",
				Policy:      config.RefrintWB(n, n).String(),
				RetentionUS: Retention50us,
				EffortScale: 0.1,
			})
			if err != nil {
				b.Fatal(err)
			}
			counts[n] = res.Stats.TotalOnChipRefreshes()
		}
	}
	b.ReportMetric(float64(counts[4]), "refreshes_WB4")
	b.ReportMetric(float64(counts[32]), "refreshes_WB32")
}
