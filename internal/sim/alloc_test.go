//go:build !race

// The race runtime instruments allocation accounting, so the AllocsPerRun
// assertions here only run in the plain test suite (the tier-1 gate).
package sim

import (
	"testing"

	"refrint/internal/config"
	"refrint/internal/stats"
	"refrint/internal/workload"
)

// steadyStateParams is quickParams with an effectively unbounded op quota so
// a driver can warm the system up and then measure without exhausting any
// thread's reference stream.
func steadyStateParams() workload.Params {
	p := quickParams()
	p.Name = "alloc-steady"
	p.MemOpsPerThread = 1 << 40
	return p
}

// steadyDriver builds a System and returns a function that issues one
// reference per core through the full access path, mirroring the per-op
// work of Run (compute gap, access resolution, completion accounting).
func steadyDriver(t testing.TB, cfg config.Config) func() {
	t.Helper()
	s, err := New(cfg, steadyStateParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		for tileID := range s.tiles {
			gen := s.app.Thread(tileID)
			a, ok := gen.Next()
			if !ok {
				t.Fatal("steady-state generator exhausted")
			}
			tile := &s.tiles[tileID]
			tile.Core.Compute(a.Gap)
			done := s.access(tileID, s.geom.LineOf(a.Addr), a.Type, tile.Core.Now())
			tile.Core.CompleteMemOp(done)
		}
	}
}

// TestSteadyStateAccessZeroAllocs asserts that once caches, the directory
// and the refresh machinery have warmed up, resolving a memory reference
// through the hierarchy performs zero heap allocations — for the SRAM
// baseline, the conventional Periodic All scheme, and the paper's Refrint
// Valid, Dirty and WB policies (which exercise the sentry wheel on every
// touch and the sentry drain's inline and invalidating outcomes).
func TestSteadyStateAccessZeroAllocs(t *testing.T) {
	configs := []struct {
		name string
		cfg  config.Config
	}{
		{"SRAM", scaledSRAM()},
		{"PeriodicAll", scaledEDRAM(config.PeriodicAll, config.Retention50us)},
		{"RefrintValid", scaledEDRAM(config.RefrintValid, config.Retention50us)},
		{"RefrintDirty", scaledEDRAM(config.RefrintDirty, config.Retention50us)},
		{"RefrintWB", scaledEDRAM(config.RefrintWB(32, 32), config.Retention50us)},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			step := steadyDriver(t, tc.cfg)
			// Warm up: fill the caches, the directory table and the wheel's
			// ring so growth-type allocations are behind us.
			for i := 0; i < 4000; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(50, step); avg != 0 {
				t.Errorf("steady-state access allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}

// BenchmarkAccessSteadyState measures the per-memory-op cost of the hot
// path in steady state (construction and warm-up excluded), reporting
// allocations so the zero-allocation property is visible in benchmark
// output.  One iteration resolves one reference per core.
func BenchmarkAccessSteadyState(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"SRAM", scaledSRAM()},
		{"PeriodicAll", scaledEDRAM(config.PeriodicAll, config.Retention50us)},
		{"RefrintWB32", scaledEDRAM(config.RefrintWB(32, 32), config.Retention50us)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			step := steadyDriver(b, tc.cfg)
			for i := 0; i < 2000; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// statsSink makes the measured Stats copy escape as a Result's does.
var statsSink *stats.Stats

// TestWarmResetRunAllocs asserts that resetting and running a warmed System
// allocates nothing but the Result's own copy of the Stats: the chip's
// arrays, the bank hooks, the generators and the run loop's heap are all
// reused.
func TestWarmResetRunAllocs(t *testing.T) {
	st := stats.New(config.Scaled().Cores)
	want := testing.AllocsPerRun(10, func() { statsSink = st.Clone() })
	for _, c := range []resetCell{
		{app: "Blackscholes", policy: config.SRAMBaseline, seed: 1, effort: 0.05},
		{app: "FFT", policy: config.PeriodicAll, retentionUS: 50, seed: 1, effort: 0.05},
		{app: "LU", policy: config.RefrintWB(32, 32), retentionUS: 50, seed: 1, effort: 0.05},
	} {
		t.Run(c.policy.String(), func(t *testing.T) {
			cfg, params := c.config(), c.params(t)
			s := new(System)
			run := func() {
				if err := s.Reset(cfg, params, c.seed); err != nil {
					t.Fatal(err)
				}
				s.Run()
			}
			run() // warm: build the chip, grow the directory and wheel
			if got := testing.AllocsPerRun(3, run); got != want {
				t.Errorf("warm Reset+Run allocates %v objects, want %v (the Stats copy)", got, want)
			}
		})
	}
}

// TestNewAllocs bounds the allocations of building a chip.  New builds
// every tile's core, banks, cache arrays, sentry wheels and directory in
// place, inside the tiles slice; only the slices behind them, the hooks,
// the feed, the generators and the counters are allocated.
func TestNewAllocs(t *testing.T) {
	for _, tc := range []struct {
		c    resetCell
		want float64
	}{
		{resetCell{app: "FFT", policy: config.SRAMBaseline, seed: 1, effort: 1}, 385},
		{resetCell{app: "FFT", policy: config.RefrintValid, retentionUS: 50, seed: 1, effort: 1}, 576},
		{resetCell{app: "FFT", policy: config.PeriodicValid, retentionUS: 50, seed: 1, effort: 1}, 448},
	} {
		t.Run(tc.c.policy.String(), func(t *testing.T) {
			cfg, params := tc.c.config(), tc.c.params(t)
			got := testing.AllocsPerRun(5, func() {
				if _, err := New(cfg, params, tc.c.seed); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.want {
				t.Errorf("New allocates %v objects, want at most %v", got, tc.want)
			}
		})
	}
}
