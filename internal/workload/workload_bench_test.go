package workload

import (
	"testing"

	"refrint/internal/config"
)

// BenchmarkGeneratorNext measures the per-reference cost of the synthetic
// workload generator (the simulator's input side): LU, a Class 2 mix of
// window hits and shared streaming, and Blackscholes, the Class 3 code that
// resident-sram runs.
func BenchmarkGeneratorNext(b *testing.B) {
	cfg := config.Scaled()
	for _, app := range []string{"LU", "Blackscholes"} {
		b.Run(app, func(b *testing.B) {
			p, err := Get(app)
			if err != nil {
				b.Fatal(err)
			}
			p = ForConfig(p, cfg)
			p.MemOpsPerThread = int64(b.N) + 1
			g := NewGenerator(p, cfg, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := g.Next(); !ok {
					b.Fatal("generator ran dry")
				}
			}
		})
	}
}

// BenchmarkAppReset measures reseeding a 16-thread application in place,
// the workload's share of sim.System.Reset.
func BenchmarkAppReset(b *testing.B) {
	cfg := config.Scaled()
	p, err := Get("LU")
	if err != nil {
		b.Fatal(err)
	}
	p = ForConfig(p, cfg)
	app := NewApp(p, cfg, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Reset(p, cfg, int64(i))
	}
}

// BenchmarkClassify measures the Figure 3.1 classification of every
// application (used by Table 6.1).
func BenchmarkClassify(b *testing.B) {
	cfg := config.FullSize()
	apps := Apps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range apps {
			if p.Classify(cfg) == ClassUnknown {
				b.Fatal("unknown class")
			}
		}
	}
}
