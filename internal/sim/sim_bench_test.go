package sim

import (
	"testing"

	"refrint/internal/config"
)

func benchRun(b *testing.B, cfg config.Config) {
	b.Helper()
	params := quickParams()
	var cycles int64
	for i := 0; i < b.N; i++ {
		s, err := New(cfg, params, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkRunSRAM measures end-to-end simulation throughput for the SRAM
// baseline on the small synthetic test workload.
func BenchmarkRunSRAM(b *testing.B) { benchRun(b, scaledSRAM()) }

// BenchmarkRunPeriodicAll measures the same workload under the conventional
// eDRAM Periodic-All scheme (adds the group-sweep machinery).
func BenchmarkRunPeriodicAll(b *testing.B) {
	benchRun(b, scaledEDRAM(config.PeriodicAll, config.Retention50us))
}

// BenchmarkRunRefrintWB32 measures the same workload under the paper's best
// policy (adds the sentry-interrupt machinery).
func BenchmarkRunRefrintWB32(b *testing.B) {
	benchRun(b, scaledEDRAM(config.RefrintWB(32, 32), config.Retention50us))
}

// benchRunReset is benchRun on one reused System: each iteration resets
// it instead of building a chip, as the sweep's workers do.
func benchRunReset(b *testing.B, cfg config.Config) {
	b.Helper()
	params := quickParams()
	s, err := New(cfg, params, 1) // built outside the timed loop
	if err != nil {
		b.Fatal(err)
	}
	s.Run()
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Reset(cfg, params, int64(i+1)); err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkRunResetSRAM is BenchmarkRunSRAM on a reused System.
func BenchmarkRunResetSRAM(b *testing.B) { benchRunReset(b, scaledSRAM()) }

// BenchmarkRunResetRefrintWB32 is BenchmarkRunRefrintWB32 on a reused
// System.
func BenchmarkRunResetRefrintWB32(b *testing.B) {
	benchRunReset(b, scaledEDRAM(config.RefrintWB(32, 32), config.Retention50us))
}
