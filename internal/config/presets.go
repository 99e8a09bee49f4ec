package config

// This file defines the two configuration presets: the paper's full-size
// configuration (Table 5.1) and a scaled preset used by tests and
// benchmarks so that the complete Table 5.4 sweep finishes quickly while
// keeping the refresh-to-access-rate ratios intact.

// Standard retention times evaluated by the paper, in microseconds.
const (
	Retention50us  = 50.0
	Retention100us = 100.0
	Retention200us = 200.0
)

// FullSize returns the paper's architecture of Table 5.1:
// 16 MIPS-like 2-issue cores at 1 GHz, 32 KB IL1, 32 KB DL1 (write-through),
// 256 KB private L2, 16 x 1 MB shared L3 banks on a 4x4 torus, 40 ns DRAM.
func FullSize() Config {
	c := Config{
		Name:     "fullsize",
		Cores:    16,
		FreqMHz:  1000,
		LineSize: 64,
		Core: CoreConfig{
			IssueWidth: 2,
			// MissOverlap approximates the latency-hiding of the paper's
			// 2-issue out-of-order core: up to this many cycles of every
			// memory-access latency are overlapped with independent work.
			MissOverlap: 24,
		},
		IL1: CacheConfig{
			Name:       "IL1",
			SizeBytes:  32 << 10,
			Ways:       2,
			LineSize:   64,
			AccessTime: 1,
			Write:      WriteBack,
			Banks:      1,
			SubArrays:  4,
			// Sentry group size 1 for L1 (512 encoder inputs in the paper).
			SentryGroup: 1,
		},
		DL1: CacheConfig{
			Name:        "DL1",
			SizeBytes:   32 << 10,
			Ways:        4,
			LineSize:    64,
			AccessTime:  1,
			Write:       WriteThrough,
			Banks:       1,
			SubArrays:   4,
			SentryGroup: 1,
		},
		L2: CacheConfig{
			Name:        "L2",
			SizeBytes:   256 << 10,
			Ways:        8,
			LineSize:    64,
			AccessTime:  2,
			Write:       WriteBack,
			Banks:       1,
			SubArrays:   4,
			SentryGroup: 4,
		},
		L3: CacheConfig{
			Name:        "L3",
			SizeBytes:   1 << 20, // per bank
			Ways:        8,
			LineSize:    64,
			AccessTime:  4,
			Write:       WriteBack,
			Shared:      true,
			Banks:       16,
			SubArrays:   4,
			SentryGroup: 16,
			// Lines are interleaved across the 16 banks, so bank-local set
			// indexing skips the 4 bank-select bits.
			IndexShift: 4,
		},
		NoC: NoCConfig{
			Width:      4,
			Height:     4,
			HopLatency: 2,
			LinkWidth:  16,
		},
		DRAM: DRAMConfig{
			AccessTime: 40, // 40 ns at 1 GHz
			BurstTime:  8,  // 64-byte burst occupancy per channel
			Channels:   4,
		},
		Cell: CellConfig{
			Tech:         SRAM,
			LeakageRatio: 1.0,
		},
		Policy:        SRAMBaseline,
		EndOfRunFlush: true,
	}
	return c
}

// scaleFactor is how much the Scaled preset shrinks capacities and retention
// times relative to FullSize.  16 keeps every cache's set count a power of
// two and brings a full sweep down to seconds.
const scaleFactor = 16

// Scaled returns a configuration in which the cache capacities and the
// retention times are divided by scaleFactor.  Workload footprints in the
// scaled experiment presets are shrunk by the same factor (see package
// workload), so hit rates, refresh rates per line and the relative position
// of each application in Figure 3.1's plane are preserved, while simulated
// run lengths drop by roughly the same factor.
func Scaled() Config {
	c := FullSize()
	c.Name = "scaled"
	c.IL1.SizeBytes /= scaleFactor
	c.DL1.SizeBytes /= scaleFactor
	c.L2.SizeBytes /= scaleFactor
	c.L3.SizeBytes /= scaleFactor
	return c
}

// ScaleFactor exposes the capacity/retention shrink factor of the Scaled
// preset so that package workload and the experiment harness can shrink
// footprints and retention times consistently.
func ScaleFactor() int { return scaleFactor }

// AsSRAM returns a copy of c configured as the full-SRAM baseline.
func AsSRAM(c Config) Config {
	out := c
	out.Cell = CellConfig{Tech: SRAM, LeakageRatio: 1.0}
	out.Policy = SRAMBaseline
	return out
}

// AsEDRAM returns a copy of c configured as a full-eDRAM hierarchy with the
// given refresh policy and cell retention time in microseconds.  The sentry
// guard band follows Section 4.1: one cycle per line of the largest bank
// (the L3 bank), i.e. 16 us for the full-size 16K-line bank at 1 GHz.
func AsEDRAM(c Config, p Policy, retentionUS float64) Config {
	out := c
	retention := out.MicrosecondsToCycles(retentionUS)
	guard := int64(out.L3.LinesPerBank())
	out.Cell = CellConfig{
		Tech:              EDRAM,
		LeakageRatio:      0.25,
		RetentionCycles:   retention,
		SentryGuardCycles: guard,
	}
	out.Policy = p
	return out
}

// ScaledRetentionUS converts one of the paper's retention times to the
// equivalent retention for the Scaled preset (divided by the scale factor so
// refreshes-per-access stay comparable).
func ScaledRetentionUS(paperUS float64) float64 {
	return paperUS / float64(scaleFactor)
}
