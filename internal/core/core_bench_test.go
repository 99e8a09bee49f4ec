package core

import (
	"testing"

	"refrint/internal/cache"
	"refrint/internal/config"
	"refrint/internal/mem"
	"refrint/internal/stats"
)

func benchBank(policy config.Policy) (*Bank, *stats.Stats) {
	cfg := config.FullSize().L3
	cfg.Banks = 1
	cfg.Shared = false
	cell := config.CellConfig{
		Tech:              config.EDRAM,
		LeakageRatio:      0.25,
		RetentionCycles:   50_000,
		SentryGuardCycles: 16_384,
	}
	st := stats.New(1)
	return NewBank(cfg, cell, policy, stats.L3, st, Hooks{}), st
}

// BenchmarkSentryInterruptProcessing measures the Refrint path: one full
// sentry period of interrupts over a half-full full-size L3 bank.
func BenchmarkSentryInterruptProcessing(b *testing.B) {
	bank, _ := benchBank(config.RefrintValid)
	for i := 0; i < bank.Cache().NumLines(); i += 2 {
		bank.Insert(mem.LineAddr(i), mem.Exclusive, 0)
	}
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		now += 50_000 - 16_384
		bank.AdvanceTo(now)
	}
}

// BenchmarkSentryDrainScaledL3 measures the sentry drain as the simulator
// runs it: one full 1024-line L3 bank of the scaled chip at the 50 us
// retention, drained every 73 cycles, with three demand touches per drain
// (round robin) so WB budgets are re-armed before they run out and lines
// stay resident.  It reports the cost per sentry interrupt.
func BenchmarkSentryDrainScaledL3(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy config.Policy
	}{
		{"Valid", config.RefrintValid},
		{"WB32", config.RefrintWB(32, 32)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := config.AsEDRAM(config.Scaled(), tc.policy, config.ScaledRetentionUS(config.Retention50us))
			st := stats.New(1)
			bank := NewBank(cfg.L3, cfg.Cell, tc.policy, stats.L3, st, Hooks{})
			lines := bank.Cache().NumLines()
			frames := make([]cache.Frame, lines)
			for i := range frames {
				frames[i], _, _ = bank.Insert(mem.LineAddr(i), mem.Modified, int64(i))
			}
			now := int64(lines)
			step := func(i int) {
				now += 73
				bank.AdvanceTo(now)
				for j := 3 * i; j < 3*i+3; j++ {
					bank.Touch(frames[j%lines], now)
				}
			}
			for i := 0; i < 4*lines; i++ { // settle the wheel and the port
				step(i)
			}
			irqs := st.SentryInterrupts
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.SentryInterrupts-irqs), "ns/irq")
		})
	}
}

// BenchmarkPeriodicSweepProcessing measures the Periodic path over the same
// bank occupancy.
func BenchmarkPeriodicSweepProcessing(b *testing.B) {
	bank, _ := benchBank(config.PeriodicValid)
	for i := 0; i < bank.Cache().NumLines(); i += 2 {
		bank.Insert(mem.LineAddr(i), mem.Exclusive, 0)
	}
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		now += 50_000
		bank.AdvanceTo(now)
	}
}

// BenchmarkWBDecision measures the WB(n,m) decision logic of Figure 4.1 on a
// line that alternates between refresh, writeback and invalidation outcomes.
func BenchmarkWBDecision(b *testing.B) {
	bank, _ := benchBank(config.RefrintWB(1, 1))
	arr := bank.Cache()
	frame, _, _ := bank.Insert(0x1, mem.Modified, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !arr.Valid(frame) {
			arr.SetState(frame, mem.Modified)
			bank.counts[frame] = 1
		}
		bank.applyDataPolicy(frame, int64(i))
	}
}

// BenchmarkDemandTouch measures the per-access bookkeeping (recharge, count
// reset, sentry rescheduling) on the hot hit path.
func BenchmarkDemandTouch(b *testing.B) {
	bank, _ := benchBank(config.RefrintWB(32, 32))
	frame, _, _ := bank.Insert(0x1, mem.Modified, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Touch(frame, int64(i))
	}
}
