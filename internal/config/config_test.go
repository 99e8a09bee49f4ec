package config

import (
	"strings"
	"testing"
)

func TestFullSizeValidates(t *testing.T) {
	c := FullSize()
	if err := c.Validate(); err != nil {
		t.Fatalf("FullSize().Validate() = %v", err)
	}
}

func TestScaledValidates(t *testing.T) {
	c := Scaled()
	if err := c.Validate(); err != nil {
		t.Fatalf("Scaled().Validate() = %v", err)
	}
}

func TestFullSizeMatchesTable51(t *testing.T) {
	c := FullSize()
	if c.Cores != 16 {
		t.Errorf("Cores = %d, want 16", c.Cores)
	}
	if c.FreqMHz != 1000 {
		t.Errorf("FreqMHz = %d, want 1000", c.FreqMHz)
	}
	if c.IL1.SizeBytes != 32<<10 || c.IL1.Ways != 2 {
		t.Errorf("IL1 = %d bytes %d ways, want 32KB 2-way", c.IL1.SizeBytes, c.IL1.Ways)
	}
	if c.DL1.SizeBytes != 32<<10 || c.DL1.Ways != 4 || c.DL1.Write != WriteThrough {
		t.Errorf("DL1 = %d bytes %d ways %v, want 32KB 4-way WT", c.DL1.SizeBytes, c.DL1.Ways, c.DL1.Write)
	}
	if c.L2.SizeBytes != 256<<10 || c.L2.Ways != 8 || c.L2.Write != WriteBack {
		t.Errorf("L2 = %d bytes %d ways %v, want 256KB 8-way WB", c.L2.SizeBytes, c.L2.Ways, c.L2.Write)
	}
	if c.L3.SizeBytes != 1<<20 || c.L3.Banks != 16 || c.L3.Ways != 8 || !c.L3.Shared {
		t.Errorf("L3 = %d bytes/bank %d banks %d ways shared=%v, want 1MB 16 banks 8-way shared",
			c.L3.SizeBytes, c.L3.Banks, c.L3.Ways, c.L3.Shared)
	}
	if c.LineSize != 64 {
		t.Errorf("LineSize = %d, want 64", c.LineSize)
	}
	if c.DRAM.AccessTime != 40 {
		t.Errorf("DRAM access = %d cycles, want 40", c.DRAM.AccessTime)
	}
	if c.NoC.Width != 4 || c.NoC.Height != 4 {
		t.Errorf("NoC = %dx%d, want 4x4", c.NoC.Width, c.NoC.Height)
	}
	if c.IL1.AccessTime != 1 || c.DL1.AccessTime != 1 || c.L2.AccessTime != 2 || c.L3.AccessTime != 4 {
		t.Errorf("access times = %d/%d/%d/%d, want 1/1/2/4",
			c.IL1.AccessTime, c.DL1.AccessTime, c.L2.AccessTime, c.L3.AccessTime)
	}
}

func TestL3BankLineCount(t *testing.T) {
	c := FullSize()
	// 1 MB bank / 64 B lines = 16K lines per bank, as Section 4.1 states.
	if got := c.L3.LinesPerBank(); got != 16*1024 {
		t.Errorf("L3 lines per bank = %d, want 16384", got)
	}
	if got := c.L3.TotalLines(); got != 16*16*1024 {
		t.Errorf("L3 total lines = %d, want %d", got, 16*16*1024)
	}
	if got := c.L3.Sets(); got != 2048 {
		t.Errorf("L3 sets per bank = %d, want 2048", got)
	}
}

func TestEDRAMSentryGuardBand(t *testing.T) {
	c := AsEDRAM(FullSize(), RefrintWB(32, 32), Retention50us)
	if c.Cell.Tech != EDRAM {
		t.Fatalf("tech = %v, want eDRAM", c.Cell.Tech)
	}
	// Retention: 50 us at 1 GHz = 50000 cycles; guard band = 16K cycles.
	if c.Cell.RetentionCycles != 50000 {
		t.Errorf("retention = %d cycles, want 50000", c.Cell.RetentionCycles)
	}
	if c.Cell.SentryGuardCycles != 16384 {
		t.Errorf("guard = %d cycles, want 16384", c.Cell.SentryGuardCycles)
	}
	if got := c.Cell.SentryRetention(); got != 50000-16384 {
		t.Errorf("sentry retention = %d, want %d", got, 50000-16384)
	}
	if c.Cell.LeakageRatio != 0.25 {
		t.Errorf("eDRAM leakage ratio = %v, want 0.25 (Table 5.2)", c.Cell.LeakageRatio)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("eDRAM config invalid: %v", err)
	}
}

func TestSRAMBaselineConfig(t *testing.T) {
	c := AsSRAM(FullSize())
	if c.Cell.Tech != SRAM || c.Cell.LeakageRatio != 1.0 {
		t.Errorf("SRAM cell = %+v", c.Cell)
	}
	if c.Policy != SRAMBaseline {
		t.Errorf("policy = %v, want SRAM baseline", c.Policy)
	}
	if c.Cell.Refreshable() {
		t.Error("SRAM should not be refreshable")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }, "core count"},
		{"zero freq", func(c *Config) { c.FreqMHz = 0 }, "frequency"},
		{"bad line size", func(c *Config) { c.LineSize = 48 }, "line size"},
		{"bad issue width", func(c *Config) { c.Core.IssueWidth = 0 }, "issue width"},
		{"bad cache size", func(c *Config) { c.L2.SizeBytes = 0 }, "non-positive size"},
		{"bad ways", func(c *Config) { c.L3.Ways = 0 }, "associativity"},
		{"bad noc", func(c *Config) { c.NoC.Width = 0 }, "NoC"},
		{"noc core mismatch", func(c *Config) { c.NoC.Width = 2 }, "nodes"},
		{"bank mismatch", func(c *Config) { c.L3.Banks = 8 }, "banks"},
		{"bad dram", func(c *Config) { c.DRAM.AccessTime = 0 }, "DRAM"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := FullSize()
			tt.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestCellConfigValidate(t *testing.T) {
	bad := CellConfig{Tech: EDRAM, LeakageRatio: 0.25, RetentionCycles: 100, SentryGuardCycles: 100}
	if err := bad.Validate(); err == nil {
		t.Error("guard band equal to retention should be invalid")
	}
	bad = CellConfig{Tech: EDRAM, LeakageRatio: 0.25, RetentionCycles: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero retention should be invalid")
	}
	good := CellConfig{Tech: SRAM, LeakageRatio: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("SRAM cell invalid: %v", err)
	}
}

func TestCellConfigValidateErrors(t *testing.T) {
	edram := func(retention, guard int64) CellConfig {
		return CellConfig{Tech: EDRAM, LeakageRatio: 0.25, RetentionCycles: retention, SentryGuardCycles: guard}
	}
	tests := []struct {
		name string
		cell CellConfig
		want string
	}{
		{"negative leakage", CellConfig{Tech: SRAM, LeakageRatio: -1}, "leakage"},
		{"zero guard", edram(3125, 0), "guard band 0 outside"},
		{"negative guard", edram(3125, -1), "guard band -1 outside"},
		{"unbounded sentry retention", edram(MaxSentryRetentionCycles+2, 1), "exceeds the bound"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cell.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
	if err := edram(MaxSentryRetentionCycles+1, 1).Validate(); err != nil {
		t.Errorf("sentry retention at the bound: %v", err)
	}
}

func TestPolicyStrings(t *testing.T) {
	tests := []struct {
		p    Policy
		want string
	}{
		{SRAMBaseline, "SRAM"},
		{PeriodicAll, "P.all"},
		{PeriodicValid, "P.valid"},
		{RefrintValid, "R.valid"},
		{RefrintDirty, "R.dirty"},
		{RefrintWB(32, 32), "R.WB(32,32)"},
		{PeriodicWB(4, 4), "P.WB(4,4)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestPolicyBudgets(t *testing.T) {
	tests := []struct {
		p            Policy
		dirty, clean int
	}{
		{PeriodicAll, -1, -1},
		{RefrintValid, -1, -1},
		{RefrintDirty, -1, 0},
		{RefrintWB(8, 16), 8, 16},
	}
	for _, tt := range tests {
		if got := tt.p.DirtyBudget(); got != tt.dirty {
			t.Errorf("%v.DirtyBudget() = %d, want %d", tt.p, got, tt.dirty)
		}
		if got := tt.p.CleanBudget(); got != tt.clean {
			t.Errorf("%v.CleanBudget() = %d, want %d", tt.p, got, tt.clean)
		}
	}
	if !PeriodicAll.RefreshesInvalid() {
		t.Error("All policy should refresh invalid lines")
	}
	if RefrintValid.RefreshesInvalid() {
		t.Error("Valid policy should not refresh invalid lines")
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := RefrintWB(-1, 4).Validate(); err == nil {
		t.Error("negative WB budget should be invalid")
	}
	if err := (Policy{Time: TimePolicy(9)}).Validate(); err == nil {
		t.Error("unknown time policy should be invalid")
	}
	if err := (Policy{Data: DataPolicy(9)}).Validate(); err == nil {
		t.Error("unknown data policy should be invalid")
	}
	for _, p := range SweepPolicies() {
		if err := p.Validate(); err != nil {
			t.Errorf("sweep policy %v invalid: %v", p, err)
		}
	}
}

// TestWBBudgetsFitInt32 checks that a WB budget past the int32 counts a
// bank keeps is rejected by the parser and by Validate, rather than wrapping
// (R.WB(4294967297,1) once ran as WB(1,1)).
func TestWBBudgetsFitInt32(t *testing.T) {
	for _, label := range []string{"R.WB(4294967297,1)", "R.WB(2147483648,1)", "P.WB(1,2147483648)"} {
		if p, err := ParsePolicyLabel(label); err == nil {
			t.Errorf("ParsePolicyLabel(%q) = %v, want an error", label, p)
		}
	}
	for _, p := range []Policy{RefrintWB(1<<32+1, 1), RefrintWB(1<<31, 1), PeriodicWB(1, 1<<31)} {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want an error", p)
		}
	}
	widest := RefrintWB(1<<31-1, 1<<31-1)
	if err := widest.Validate(); err != nil {
		t.Errorf("Validate(%+v): %v", widest, err)
	}
	if p, err := ParsePolicyLabel(widest.String()); err != nil || p != widest {
		t.Errorf("ParsePolicyLabel(%q) = %v, %v; want %v", widest.String(), p, err, widest)
	}
}

func TestSweepPolicyOrderMatchesFigures(t *testing.T) {
	want := []string{
		"P.all", "P.valid", "P.dirty", "P.WB(4,4)", "P.WB(8,8)", "P.WB(16,16)", "P.WB(32,32)",
		"R.all", "R.valid", "R.dirty", "R.WB(4,4)", "R.WB(8,8)", "R.WB(16,16)", "R.WB(32,32)",
	}
	got := SweepPolicies()
	if len(got) != len(want) {
		t.Fatalf("got %d policies, want %d", len(got), len(want))
	}
	for i, p := range got {
		if p.String() != want[i] {
			t.Errorf("policy[%d] = %q, want %q", i, p.String(), want[i])
		}
	}
}

func TestScaledPreservesShape(t *testing.T) {
	full, scaled := FullSize(), Scaled()
	f := ScaleFactor()
	if scaled.L3.SizeBytes*f != full.L3.SizeBytes {
		t.Errorf("scaled L3 bank = %d, want %d/%d", scaled.L3.SizeBytes, full.L3.SizeBytes, f)
	}
	if scaled.L2.SizeBytes*f != full.L2.SizeBytes {
		t.Errorf("scaled L2 = %d", scaled.L2.SizeBytes)
	}
	if scaled.Cores != full.Cores || scaled.L3.Banks != full.L3.Banks {
		t.Error("scaling must not change core or bank counts")
	}
	// Scaled retention keeps refresh-per-line-per-access ratios.
	if got := ScaledRetentionUS(Retention50us); got != 50.0/float64(f) {
		t.Errorf("ScaledRetentionUS(50) = %v", got)
	}
	// The scaled eDRAM config must still validate (guard band < retention).
	c := AsEDRAM(scaled, RefrintWB(32, 32), ScaledRetentionUS(Retention50us))
	if err := c.Validate(); err != nil {
		t.Errorf("scaled eDRAM config invalid: %v", err)
	}
}

func TestTechAndWritePolicyStrings(t *testing.T) {
	if SRAM.String() != "SRAM" || EDRAM.String() != "eDRAM" {
		t.Errorf("tech strings: %v %v", SRAM, EDRAM)
	}
	if CellTech(9).String() == "" {
		t.Error("unknown tech should still render")
	}
	if WriteBack.String() != "WB" || WriteThrough.String() != "WT" {
		t.Errorf("write policy strings: %v %v", WriteBack, WriteThrough)
	}
	if PeriodicTime.String() != "P" || RefrintTime.String() != "R" || NoRefresh.String() != "none" {
		t.Errorf("time policy strings: %v %v %v", PeriodicTime, RefrintTime, NoRefresh)
	}
	if TimePolicy(9).String() == "" || DataPolicy(9).String() == "" {
		t.Error("unknown policy values should still render")
	}
	if AllData.String() != "all" || ValidData.String() != "valid" || DirtyData.String() != "dirty" || WBData.String() != "WB" {
		t.Error("data policy strings wrong")
	}
}

func TestMicrosecondsToCycles(t *testing.T) {
	c := FullSize()
	if got := c.MicrosecondsToCycles(50); got != 50000 {
		t.Errorf("50us = %d cycles, want 50000", got)
	}
	if got := c.MicrosecondsToCycles(0.5); got != 500 {
		t.Errorf("0.5us = %d cycles, want 500", got)
	}
}

func TestGeometry(t *testing.T) {
	g := FullSize().Geometry()
	if g.LineSize != 64 {
		t.Errorf("geometry line size = %d", g.LineSize)
	}
}
