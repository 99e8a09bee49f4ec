package refrint

import (
	"testing"

	"refrint/internal/config"
	"refrint/internal/sweep"
)

func TestApplicationsList(t *testing.T) {
	apps := Applications()
	if len(apps) != 11 {
		t.Fatalf("Applications() = %d entries, want 11 (Table 5.3)", len(apps))
	}
	for _, name := range apps {
		if _, err := Application(name); err != nil {
			t.Errorf("Application(%q): %v", name, err)
		}
	}
	if _, err := Application("nope"); err == nil {
		t.Error("unknown application should error")
	}
}

func TestPoliciesList(t *testing.T) {
	ps := Policies()
	if len(ps) != 14 {
		t.Fatalf("Policies() = %d, want 14 (Table 5.4)", len(ps))
	}
}

func TestParsePolicy(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"SRAM", "SRAM"},
		{"sram", "SRAM"},
		{"P.all", "P.all"},
		{"p.valid", "P.valid"},
		{"R.dirty", "R.dirty"},
		{"R.WB(32,32)", "R.WB(32,32)"},
		{"r.wb(4, 8)", "R.WB(4,8)"},
		{"P.WB(16,16)", "P.WB(16,16)"},
	}
	for _, tt := range tests {
		p, err := ParsePolicy(tt.in)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", tt.in, err)
			continue
		}
		if p.String() != tt.want {
			t.Errorf("ParsePolicy(%q) = %q, want %q", tt.in, p.String(), tt.want)
		}
	}
	for _, bad := range []string{"", "X.all", "R.", "R.bogus", "R.WB(1)", "R.WB(a,b)", "R.WB(-1,2)"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) should fail", bad)
		}
	}
}

func TestParsePolicyRoundTripsSweep(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", p.String(), err)
			continue
		}
		if got != p {
			t.Errorf("round trip of %q gave %q", p.String(), got.String())
		}
	}
}

func TestPreset(t *testing.T) {
	for _, name := range []string{"", "scaled", "fullsize", "FULL", "paper"} {
		if _, err := Preset(name); err != nil {
			t.Errorf("Preset(%q): %v", name, err)
		}
	}
	if _, err := Preset("tiny"); err == nil {
		t.Error("unknown preset should fail")
	}
	full, _ := Preset("fullsize")
	if full.L3.SizeBytes != 1<<20 {
		t.Error("fullsize preset should have 1MB L3 banks")
	}
}

func TestSimulateBaseline(t *testing.T) {
	res, err := Simulate(SimRequest{App: "Blackscholes", Policy: "SRAM", EffortScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Stats.MemOps <= 0 {
		t.Error("baseline run produced no work")
	}
	if res.Energy.Refresh != 0 {
		t.Error("SRAM baseline must have no refresh energy")
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(SimRequest{App: "bogus", Policy: "SRAM"}); err == nil {
		t.Error("unknown app should fail")
	}
	if _, err := Simulate(SimRequest{App: "FFT", Policy: "bogus"}); err == nil {
		t.Error("unknown policy should fail")
	}
	if _, err := Simulate(SimRequest{App: "FFT", Policy: "R.valid", Preset: "bogus"}); err == nil {
		t.Error("unknown preset should fail")
	}
}

func TestSimulateCustomWorkload(t *testing.T) {
	custom := WorkloadParams{
		Name:            "api-test",
		Suite:           "custom",
		FootprintLines:  2048,
		SharedFraction:  0.3,
		WriteFraction:   0.3,
		Locality:        0.9,
		WorkingWindow:   64,
		ComputePerMemOp: 5,
		MemOpsPerThread: 2000,
		CodeLines:       16,
	}
	res, err := Simulate(SimRequest{Workload: &custom, Policy: "R.valid", RetentionUS: Retention50us})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "api-test" {
		t.Errorf("App = %q", res.App)
	}
	if res.Stats.TotalOnChipRefreshes() == 0 {
		t.Error("eDRAM run should refresh")
	}
	if res.RetentionUS != Retention50us {
		t.Errorf("RetentionUS = %v", res.RetentionUS)
	}
}

func TestSimulateDefaultsApplied(t *testing.T) {
	// Empty app, zero retention, zero seed and zero effort fall back to
	// sensible defaults rather than failing.
	res, err := Simulate(SimRequest{Policy: "R.valid", EffortScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "FFT" {
		t.Errorf("default app = %q, want FFT", res.App)
	}
}

// TestHeadlineClaims is the integration check of the paper's headline
// results (Sections 1, 6 and 8) on a reduced but class-representative
// sweep:
//
//	paper (full size, 50us):  Periodic-All  = 50% memory energy, 72% system energy, 18% slowdown
//	                          R.WB(32,32)   = 36% memory energy, 61% system energy,  2% slowdown
//
// The absolute percentages of this reproduction differ (synthetic workloads,
// simplified core), so the assertions check the orderings and generous
// bands; EXPERIMENTS.md records the exact measured values.
func TestHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("headline sweep is slow; skipped with -short")
	}
	opts := QuickSweep()
	opts.RetentionTimesUS = []float64{Retention50us}
	opts.Policies = []Policy{
		config.PeriodicAll,
		config.PeriodicValid,
		config.RefrintValid,
		config.RefrintWB(32, 32),
	}
	opts.EffortScale = 0.5
	results, err := RunSweep(opts)
	if err != nil {
		t.Fatal(err)
	}

	mem := results.Figure61()
	total := results.Figure63("all")
	times := results.Figure64("all")

	get := func(label string) (memE, totE, timeR float64) {
		m, ok1 := sweep.Find(mem, label, Retention50us)
		s, ok2 := sweep.Find(total, label, Retention50us)
		x, ok3 := sweep.Find(times, label, Retention50us)
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("missing sweep point %q", label)
		}
		return m.Total, s.Value, x.Value
	}
	pAllMem, pAllTot, pAllTime := get("P.all")
	rWBMem, rWBTot, rWBTime := get("R.WB(32,32)")
	rValidMem, _, rValidTime := get("R.valid")
	pValidTime, ok := sweep.Find(times, "P.valid", Retention50us)
	if !ok {
		t.Fatal("missing P.valid")
	}

	// Claim 1: the basic eDRAM hierarchy (Periodic All) consumes roughly
	// half the SRAM memory energy (paper: 50%).
	if pAllMem < 0.35 || pAllMem > 0.70 {
		t.Errorf("Periodic-All memory energy = %.0f%% of SRAM, want roughly 50%%", 100*pAllMem)
	}
	// Claim 2: Refrint WB(32,32) consumes clearly less than Periodic All
	// (paper: 36% vs 50%).
	if rWBMem >= pAllMem {
		t.Errorf("R.WB(32,32) memory energy %.0f%% should be below P.all %.0f%%", 100*rWBMem, 100*pAllMem)
	}
	if rWBMem < 0.25 || rWBMem > 0.60 {
		t.Errorf("R.WB(32,32) memory energy = %.0f%% of SRAM, want roughly 36%%", 100*rWBMem)
	}
	// Claim 3: system-level energy ordering (paper: 72% vs 61%).
	if rWBTot >= pAllTot {
		t.Errorf("R.WB(32,32) system energy %.0f%% should be below P.all %.0f%%", 100*rWBTot, 100*pAllTot)
	}
	if pAllTot >= 1.0 || rWBTot >= 1.0 {
		t.Error("eDRAM system energy should be below the SRAM baseline")
	}
	// Claim 4: Periodic refresh costs significant execution time (paper:
	// 18%); Refrint costs much less (paper: 2%).
	if pAllTime <= 1.05 {
		t.Errorf("Periodic-All slowdown = %.1f%%, expected a substantial penalty", 100*(pAllTime-1))
	}
	if rWBTime >= pAllTime {
		t.Errorf("R.WB(32,32) slowdown %.1f%% should be below P.all %.1f%%", 100*(rWBTime-1), 100*(pAllTime-1))
	}
	// Claim 5: for the same data policy, Refrint beats Periodic in time.
	if rValidTime >= pValidTime.Value {
		t.Errorf("R.valid slowdown %.3f should be below P.valid %.3f", rValidTime, pValidTime.Value)
	}
	// Claim 6: in the remaining eDRAM energy, the refresh contribution of
	// R.WB(32,32) is small (paper: "negligible").
	comp := results.Figure62("all")
	rWBComp, ok := sweep.Find(comp, "R.WB(32,32)", Retention50us)
	if !ok {
		t.Fatal("missing component bar")
	}
	if rWBComp.Refresh > 0.5*rWBComp.Total {
		t.Errorf("R.WB(32,32) refresh fraction %.2f of its energy is not small", rWBComp.Refresh/rWBComp.Total)
	}
	_ = rValidMem
}

func TestRetentionTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("retention sweep is slow; skipped with -short")
	}
	// Claim: refresh energy shrinks as the retention time grows (Section
	// 6.3, "Retention Time").
	opts := QuickSweep()
	opts.Apps = []string{"LU"}
	opts.Policies = []Policy{config.RefrintValid}
	opts.EffortScale = 0.25
	results, err := RunSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	comp := results.Figure62("all")
	var prev float64 = -1
	for _, ret := range []float64{Retention50us, Retention100us, Retention200us} {
		bar, ok := sweep.Find(comp, "R.valid", ret)
		if !ok {
			t.Fatalf("missing R.valid at %v", ret)
		}
		if prev >= 0 && bar.Refresh >= prev {
			t.Errorf("refresh energy at %gus (%.4f) should be below the shorter retention (%.4f)", ret, bar.Refresh, prev)
		}
		prev = bar.Refresh
	}
}
