package sim

import (
	"testing"

	"refrint/internal/config"
	"refrint/internal/mem"
	"refrint/internal/stats"
	"refrint/internal/workload"
)

// quickParams returns a small synthetic workload so individual sim tests run
// in milliseconds.  It is shaped like a Class 2 application (cache-resident,
// heavily shared).
func quickParams() workload.Params {
	return workload.Params{
		Name:               "quicktest",
		Suite:              "synthetic",
		Input:              "unit-test",
		FootprintLines:     4096,
		SharedFraction:     0.4,
		WriteFraction:      0.3,
		Locality:           0.6,
		WorkingWindow:      256,
		ComputePerMemOp:    8,
		MemOpsPerThread:    3_000,
		InstrFetchFraction: 0.05,
		CodeLines:          64,
		PaperClass:         workload.Class2,
	}
}

// largeParams is shaped like a Class 1 application (footprint exceeding the
// scaled LLC).
func largeParams() workload.Params {
	p := quickParams()
	p.Name = "quicktest-large"
	p.FootprintLines = 40_000
	p.SharedFraction = 0.35
	p.Locality = 0.4
	p.PaperClass = workload.Class1
	return p
}

func scaledSRAM() config.Config {
	return config.AsSRAM(config.Scaled())
}

func scaledEDRAM(p config.Policy, retentionUS float64) config.Config {
	return config.AsEDRAM(config.Scaled(), p, config.ScaledRetentionUS(retentionUS))
}

func runQuick(t *testing.T, cfg config.Config, params workload.Params) Result {
	t.Helper()
	s, err := New(cfg, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := scaledSRAM()
	cfg.Cores = 0
	if _, err := New(cfg, quickParams(), 1); err == nil {
		t.Error("invalid config should be rejected")
	}
	bad := quickParams()
	bad.FootprintLines = 0
	if _, err := New(scaledSRAM(), bad, 1); err == nil {
		t.Error("invalid workload should be rejected")
	}
}

// TestNewRejectsZeroSentryGuard checks that a cell whose sentry decays with
// its data (no guard band) is a configuration error from New, not a panic
// in the bank that would run it.
func TestNewRejectsZeroSentryGuard(t *testing.T) {
	cfg := scaledEDRAM(config.RefrintValid, config.Retention50us)
	cfg.Cell.SentryGuardCycles = 0
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("New panicked: %v", r)
		}
	}()
	if _, err := New(cfg, quickParams(), 1); err == nil {
		t.Error("a zero sentry guard band should be rejected")
	}
}

func TestRunCompletesAllWork(t *testing.T) {
	cfg := scaledSRAM()
	params := quickParams()
	s, err := New(cfg, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The Scaled preset shrinks the per-thread quota; expectations follow
	// the workload the system actually runs.
	wantOps := s.Workload().MemOpsPerThread * int64(cfg.Cores)
	res := s.Run()
	if res.Stats.MemOps != wantOps {
		t.Errorf("MemOps = %d, want %d", res.Stats.MemOps, wantOps)
	}
	if res.Cycles <= 0 {
		t.Error("execution time must be positive")
	}
	if res.Stats.Instructions <= res.Stats.MemOps {
		t.Error("instruction count must include compute instructions")
	}
	if res.Policy != "SRAM" || res.RetentionUS != 0 {
		t.Errorf("result labels: %q %v", res.Policy, res.RetentionUS)
	}
	// Every memory op hits some L1.
	l1Lookups := res.Stats.Level(stats.IL1).Accesses() + res.Stats.Level(stats.DL1).Accesses()
	if l1Lookups != wantOps {
		t.Errorf("L1 lookups = %d, want %d", l1Lookups, wantOps)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := scaledEDRAM(config.RefrintWB(4, 4), config.Retention50us)
	r1 := runQuick(t, cfg, quickParams())
	r2 := runQuick(t, cfg, quickParams())
	if r1.Cycles != r2.Cycles {
		t.Errorf("cycles differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
	if r1.Stats.Level(stats.L3).Refreshes != r2.Stats.Level(stats.L3).Refreshes {
		t.Error("refresh counts differ between identical runs")
	}
	if r1.Energy.Total() != r2.Energy.Total() {
		t.Error("energy differs between identical runs")
	}
}

func TestSRAMBaselineHasNoRefresh(t *testing.T) {
	res := runQuick(t, scaledSRAM(), quickParams())
	if res.Stats.TotalOnChipRefreshes() != 0 {
		t.Errorf("SRAM run performed %d refreshes", res.Stats.TotalOnChipRefreshes())
	}
	if res.Energy.Refresh != 0 {
		t.Errorf("SRAM refresh energy = %v, want 0", res.Energy.Refresh)
	}
	if res.Stats.SentryInterrupts != 0 || res.Stats.PeriodicGroupScans != 0 {
		t.Error("SRAM run should have no refresh machinery activity")
	}
}

func TestEDRAMPerformsRefreshes(t *testing.T) {
	res := runQuick(t, scaledEDRAM(config.PeriodicAll, config.Retention50us), quickParams())
	if res.Stats.TotalOnChipRefreshes() == 0 {
		t.Error("eDRAM Periodic All run performed no refreshes")
	}
	if res.Energy.Refresh <= 0 {
		t.Error("refresh energy should be positive")
	}
	if res.Stats.PeriodicGroupScans == 0 {
		t.Error("periodic scheme should have swept groups")
	}
}

func TestRefrintUsesSentryInterrupts(t *testing.T) {
	res := runQuick(t, scaledEDRAM(config.RefrintValid, config.Retention50us), quickParams())
	if res.Stats.SentryInterrupts == 0 {
		t.Error("Refrint run raised no sentry interrupts")
	}
	if res.Stats.PeriodicGroupScans != 0 {
		t.Error("Refrint run should not use the periodic scheduler")
	}
}

func TestEDRAMLeaksLessThanSRAM(t *testing.T) {
	sram := runQuick(t, scaledSRAM(), quickParams())
	edram := runQuick(t, scaledEDRAM(config.RefrintWB(32, 32), config.Retention50us), quickParams())
	if edram.Energy.Leakage >= sram.Energy.Leakage {
		t.Errorf("eDRAM leakage %.3g should be well below SRAM leakage %.3g",
			edram.Energy.Leakage, sram.Energy.Leakage)
	}
}

func TestRefrintBeatsPeriodicOnRefreshes(t *testing.T) {
	// The interrupt-driven scheme refreshes each line only when it is about
	// to decay, so it performs no more refreshes than the periodic scheme
	// under the same data policy (Section 3.1).
	periodic := runQuick(t, scaledEDRAM(config.PeriodicValid, config.Retention50us), quickParams())
	refrint := runQuick(t, scaledEDRAM(config.RefrintValid, config.Retention50us), quickParams())
	if refrint.Stats.TotalOnChipRefreshes() > periodic.Stats.TotalOnChipRefreshes() {
		t.Errorf("Refrint refreshes (%d) exceed Periodic refreshes (%d)",
			refrint.Stats.TotalOnChipRefreshes(), periodic.Stats.TotalOnChipRefreshes())
	}
}

func TestPeriodicSlowerThanSRAM(t *testing.T) {
	// Periodic refresh blocks cache ports, so execution time grows relative
	// to the SRAM baseline (the paper reports 18% at 50us full size).
	sram := runQuick(t, scaledSRAM(), quickParams())
	periodic := runQuick(t, scaledEDRAM(config.PeriodicAll, config.Retention50us), quickParams())
	if periodic.Cycles <= sram.Cycles {
		t.Errorf("Periodic All (%d cycles) should be slower than SRAM (%d cycles)",
			periodic.Cycles, sram.Cycles)
	}
}

func TestRefrintSlowdownSmallerThanPeriodic(t *testing.T) {
	sram := runQuick(t, scaledSRAM(), quickParams())
	periodic := runQuick(t, scaledEDRAM(config.PeriodicAll, config.Retention50us), quickParams())
	refrint := runQuick(t, scaledEDRAM(config.RefrintWB(32, 32), config.Retention50us), quickParams())
	slowPeriodic := float64(periodic.Cycles) / float64(sram.Cycles)
	slowRefrint := float64(refrint.Cycles) / float64(sram.Cycles)
	if slowRefrint >= slowPeriodic {
		t.Errorf("Refrint slowdown %.3f should be below Periodic slowdown %.3f", slowRefrint, slowPeriodic)
	}
}

func TestWBPolicyCreatesDRAMTraffic(t *testing.T) {
	// Aggressive WB policies push data out of the chip, so DRAM accesses
	// should not decrease relative to the Valid policy (Section 6).
	valid := runQuick(t, scaledEDRAM(config.RefrintValid, config.Retention50us), largeParams())
	wb := runQuick(t, scaledEDRAM(config.RefrintWB(4, 4), config.Retention50us), largeParams())
	if wb.Stats.DRAMAccesses() < valid.Stats.DRAMAccesses() {
		t.Errorf("WB(4,4) DRAM accesses (%d) below Valid policy (%d)",
			wb.Stats.DRAMAccesses(), valid.Stats.DRAMAccesses())
	}
	if wb.Stats.PolicyWritebacks == 0 {
		t.Error("WB(4,4) performed no policy writebacks")
	}
}

func TestWBReducesRefreshesVersusValid(t *testing.T) {
	// The whole point of WB(n,m): evicting stale lines saves refreshes.
	valid := runQuick(t, scaledEDRAM(config.RefrintValid, config.Retention50us), largeParams())
	wb := runQuick(t, scaledEDRAM(config.RefrintWB(4, 4), config.Retention50us), largeParams())
	if wb.Stats.Level(stats.L3).Refreshes >= valid.Stats.Level(stats.L3).Refreshes {
		t.Errorf("WB(4,4) L3 refreshes (%d) should be below Valid (%d)",
			wb.Stats.Level(stats.L3).Refreshes, valid.Stats.Level(stats.L3).Refreshes)
	}
}

func TestLongerRetentionMeansFewerRefreshes(t *testing.T) {
	short := runQuick(t, scaledEDRAM(config.RefrintValid, config.Retention50us), quickParams())
	long := runQuick(t, scaledEDRAM(config.RefrintValid, config.Retention200us), quickParams())
	if long.Stats.TotalOnChipRefreshes() >= short.Stats.TotalOnChipRefreshes() {
		t.Errorf("200us refreshes (%d) should be below 50us refreshes (%d)",
			long.Stats.TotalOnChipRefreshes(), short.Stats.TotalOnChipRefreshes())
	}
}

func TestNoDirtyDataEverDecays(t *testing.T) {
	// Correctness invariant: the policies never let dirty data decay, for
	// any policy.  (Clean decays are also designed away, but dirty decay
	// would be silent data loss.)
	for _, p := range []config.Policy{
		config.PeriodicAll, config.PeriodicValid, config.RefrintValid,
		config.RefrintDirty, config.RefrintWB(4, 4), config.RefrintWB(32, 32),
	} {
		res := runQuick(t, scaledEDRAM(p, config.Retention50us), quickParams())
		var decays int64
		for l := stats.Level(0); l < stats.NumLevels; l++ {
			decays += res.Stats.Level(l).Decays
		}
		if decays != 0 {
			t.Errorf("%v: %d lines decayed while holding data", p, decays)
		}
	}
}

func TestCoherenceActivityOnSharedWorkload(t *testing.T) {
	res := runQuick(t, scaledSRAM(), quickParams())
	if res.Stats.CoherenceInvalidations == 0 {
		t.Error("a heavily shared workload should cause invalidations")
	}
	if res.Stats.CoherenceDowngrades == 0 {
		t.Error("a heavily shared workload should cause downgrades")
	}
	if res.Stats.NoCMessages == 0 || res.Stats.NoCHops == 0 {
		t.Error("network should have carried traffic")
	}
}

func TestEndOfRunFlushWritesDirtyData(t *testing.T) {
	res := runQuick(t, scaledSRAM(), quickParams())
	if res.Stats.FlushWritebacks == 0 {
		t.Error("a write-heavy run should leave dirty data for the final flush")
	}
}

func TestPerCoreCyclesPopulated(t *testing.T) {
	cfg := scaledSRAM()
	res := runQuick(t, cfg, quickParams())
	if len(res.Stats.PerCoreCycles) != cfg.Cores {
		t.Fatalf("PerCoreCycles length %d", len(res.Stats.PerCoreCycles))
	}
	var max int64
	for _, c := range res.Stats.PerCoreCycles {
		if c <= 0 {
			t.Error("every core should have advanced")
		}
		if c > max {
			max = c
		}
	}
	if max != res.Cycles {
		t.Errorf("Cycles %d != max per-core %d", res.Cycles, max)
	}
}

func TestPrivatePolicySelection(t *testing.T) {
	tests := []struct {
		l3   config.Policy
		want string
	}{
		{config.SRAMBaseline, "SRAM"},
		{config.PeriodicAll, "P.all"},
		{config.PeriodicValid, "P.valid"},
		{config.RefrintWB(32, 32), "R.valid"},
		{config.RefrintDirty, "R.valid"},
	}
	for _, tt := range tests {
		if got := privatePolicy(tt.l3).String(); got != tt.want {
			t.Errorf("privatePolicy(%v) = %q, want %q", tt.l3, got, tt.want)
		}
	}
}

func TestBankMapping(t *testing.T) {
	cfg := scaledSRAM()
	s, err := New(cfg, quickParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for line := 0; line < 64; line++ {
		b := s.bankOf(mem.LineAddr(line))
		if b < 0 || b >= cfg.L3.Banks {
			t.Fatalf("bankOf(%d) = %d out of range", line, b)
		}
		seen[b] = true
	}
	if len(seen) != cfg.L3.Banks {
		t.Errorf("only %d/%d banks used by consecutive lines", len(seen), cfg.L3.Banks)
	}
}
