package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"refrint/internal/config"
	"refrint/internal/mem"
)

func l3BankConfig() config.CacheConfig {
	cfg := config.FullSize().L3
	cfg.Banks = 1
	cfg.Shared = false
	return cfg
}

// waysConfig is a 256 KB bank at the given associativity, used to measure how
// the way-scan cost grows with set size.
func waysConfig(ways int) config.CacheConfig {
	return config.CacheConfig{
		Name:       fmt.Sprintf("ways%d", ways),
		SizeBytes:  256 << 10,
		Ways:       ways,
		LineSize:   64,
		AccessTime: 1,
		Write:      config.WriteBack,
		Banks:      1,
		SubArrays:  4,
	}
}

// BenchmarkProbeHit measures the cost of a hit lookup in a full-size L3 bank.
func BenchmarkProbeHit(b *testing.B) {
	c := New(l3BankConfig())
	addrs := make([]mem.LineAddr, 1024)
	for i := range addrs {
		addrs[i] = mem.LineAddr(i * 7)
		c.Insert(addrs[i], mem.Exclusive, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Probe(addrs[i%len(addrs)]); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkProbeWays measures hit and miss lookups across associativities:
// the hit case scans half the set on average, the miss case always scans all
// ways, so together they bound the way-scan cost the SoA tag array pays.
func BenchmarkProbeWays(b *testing.B) {
	for _, ways := range []int{4, 8, 16} {
		c := New(waysConfig(ways))
		sets := c.sets
		// Fill every set completely so hit probes scan realistic sets and
		// miss probes are tag mismatches, not empty-set scans.
		for s := 0; s < sets; s++ {
			for w := 0; w < ways; w++ {
				c.Insert(mem.LineAddr(s+(w+1)*sets), mem.Exclusive, int64(w))
			}
		}
		hitAddrs := make([]mem.LineAddr, 1024)
		missAddrs := make([]mem.LineAddr, 1024)
		rng := rand.New(rand.NewSource(7))
		for i := range hitAddrs {
			s := rng.Intn(sets)
			hitAddrs[i] = mem.LineAddr(s + (rng.Intn(ways)+1)*sets)
			missAddrs[i] = mem.LineAddr(s + (ways+1+rng.Intn(64))*sets)
		}
		b.Run(fmt.Sprintf("ways%d/hit", ways), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Probe(hitAddrs[i%len(hitAddrs)]); !ok {
					b.Fatal("unexpected miss")
				}
			}
		})
		b.Run(fmt.Sprintf("ways%d/miss", ways), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Probe(missAddrs[i%len(missAddrs)]); ok {
					b.Fatal("unexpected hit")
				}
			}
		})
	}
}

// BenchmarkInsertWithEviction measures steady-state fills that displace LRU
// victims.
func BenchmarkInsertWithEviction(b *testing.B) {
	c := New(l3BankConfig())
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(mem.LineAddr(rng.Intn(1<<20)), mem.Modified, int64(i))
	}
}

// BenchmarkForEachValid measures a full-bank sweep, the inner loop of the
// Periodic refresh scheme.
func BenchmarkForEachValid(b *testing.B) {
	c := New(l3BankConfig())
	for i := 0; i < c.NumLines(); i += 2 {
		c.Insert(mem.LineAddr(i), mem.Exclusive, int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		c.ForEachValid(func(f Frame) { n++ })
		if n == 0 {
			b.Fatal("no valid lines")
		}
	}
}
