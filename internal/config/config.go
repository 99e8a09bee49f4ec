// Package config holds every tunable of the simulated system: the chip
// architecture of Table 5.1, the SRAM/eDRAM cell parameters of Table 5.2,
// the refresh-policy taxonomy of Table 3.1 and the parameter sweep of
// Table 5.4 of the Refrint paper.
//
// Two presets are provided.  FullSize reproduces the paper's configuration
// literally (16 MB of L3, 50-200 microsecond retention).  Scaled shrinks the
// caches, workload footprints and retention times by a common factor so that
// the complete 43-combination sweep over all eleven applications finishes in
// seconds while preserving the refresh-rate-to-access-rate ratios that shape
// the paper's figures.
package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"refrint/internal/mem"
)

// CellTech identifies the memory cell technology of a cache level.
type CellTech uint8

// Cell technologies.
const (
	SRAM CellTech = iota
	EDRAM
)

// String implements fmt.Stringer.
func (c CellTech) String() string {
	switch c {
	case SRAM:
		return "SRAM"
	case EDRAM:
		return "eDRAM"
	default:
		return fmt.Sprintf("CellTech(%d)", uint8(c))
	}
}

// WritePolicy distinguishes write-through from write-back caches.
type WritePolicy uint8

// Write policies.
const (
	WriteBack WritePolicy = iota
	WriteThrough
)

// String implements fmt.Stringer.
func (w WritePolicy) String() string {
	if w == WriteThrough {
		return "WT"
	}
	return "WB"
}

// CacheConfig describes one cache level (or one bank of a banked cache).
type CacheConfig struct {
	Name        string
	SizeBytes   int
	Ways        int
	LineSize    int
	AccessTime  int64 // cycles for one access
	Write       WritePolicy
	Shared      bool // true for the banked, shared L3
	Banks       int  // number of banks (1 for private caches)
	SubArrays   int  // CACTI sub-arrays per bank; periodic refresh group count
	SentryGroup int  // Refrint: lines per sentry interrupt group
	// IndexShift is the number of low-order line-address bits skipped when
	// computing the set index.  Banked caches that interleave lines across
	// banks set it to log2(Banks) so that every set of a bank is usable.
	IndexShift int
}

// Sets returns the number of sets in one bank.
func (c CacheConfig) Sets() int {
	lines := c.LinesPerBank()
	if c.Ways <= 0 {
		return lines
	}
	return lines / c.Ways
}

// LinesPerBank returns the number of lines held by one bank.
func (c CacheConfig) LinesPerBank() int {
	return c.SizeBytes / c.LineSize
}

// TotalLines returns the number of lines across all banks.
func (c CacheConfig) TotalLines() int {
	banks := c.Banks
	if banks <= 0 {
		banks = 1
	}
	return c.LinesPerBank() * banks
}

// Validate reports configuration errors.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 {
		return fmt.Errorf("config: cache %q has non-positive size %d", c.Name, c.SizeBytes)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("config: cache %q line size %d is not a power of two", c.Name, c.LineSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("config: cache %q has non-positive associativity %d", c.Name, c.Ways)
	}
	lines := c.SizeBytes / c.LineSize
	if lines%c.Ways != 0 {
		return fmt.Errorf("config: cache %q: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("config: cache %q: %d sets is not a power of two", c.Name, sets)
	}
	if c.AccessTime <= 0 {
		return fmt.Errorf("config: cache %q has non-positive access time", c.Name)
	}
	if c.Shared && c.Banks <= 0 {
		return fmt.Errorf("config: shared cache %q needs at least one bank", c.Name)
	}
	return nil
}

// NoCConfig describes the on-chip interconnect (a 2-D torus in the paper).
type NoCConfig struct {
	Width      int   // mesh/torus X dimension
	Height     int   // mesh/torus Y dimension
	HopLatency int64 // cycles per hop (router + link)
	LinkWidth  int   // bytes per flit
}

// Nodes returns the number of network nodes.
func (n NoCConfig) Nodes() int { return n.Width * n.Height }

// Validate reports configuration errors.
func (n NoCConfig) Validate() error {
	if n.Width <= 0 || n.Height <= 0 {
		return fmt.Errorf("config: NoC dimensions %dx%d invalid", n.Width, n.Height)
	}
	if n.HopLatency <= 0 {
		return fmt.Errorf("config: NoC hop latency must be positive")
	}
	if n.LinkWidth <= 0 {
		return fmt.Errorf("config: NoC link width must be positive")
	}
	return nil
}

// DRAMConfig describes the off-chip main memory channel.
type DRAMConfig struct {
	AccessTime int64 // cycles of latency per access (40 ns at 1 GHz = 40 cycles)
	// BurstTime is how long one access occupies its channel (the data-burst
	// transfer time), which bounds bandwidth independently of latency.
	BurstTime int64
	// Channels is the number of independent channels accesses are spread
	// over.
	Channels int
}

// Validate reports configuration errors.
func (d DRAMConfig) Validate() error {
	if d.AccessTime <= 0 {
		return fmt.Errorf("config: DRAM access time must be positive")
	}
	if d.BurstTime <= 0 || d.BurstTime > d.AccessTime {
		return fmt.Errorf("config: DRAM burst time must be in (0, access time]")
	}
	if d.Channels <= 0 {
		return fmt.Errorf("config: DRAM needs at least one channel")
	}
	return nil
}

// CoreConfig describes the processor core timing model.
type CoreConfig struct {
	IssueWidth int // instructions per cycle for non-memory work
	// MissOverlap approximates the memory-level parallelism of the paper's
	// out-of-order core: up to this many cycles of a miss are hidden under
	// independent work.
	MissOverlap int64
}

// Validate reports configuration errors.
func (c CoreConfig) Validate() error {
	if c.IssueWidth <= 0 {
		return fmt.Errorf("config: core issue width must be positive")
	}
	if c.MissOverlap < 0 {
		return fmt.Errorf("config: core miss overlap must be non-negative")
	}
	return nil
}

// CellConfig captures the SRAM-vs-eDRAM ratios of Table 5.2.
type CellConfig struct {
	Tech CellTech
	// LeakageRatio is the leakage power of this technology relative to SRAM
	// (1.0 for SRAM, 0.25 for eDRAM per the paper).
	LeakageRatio float64
	// RetentionCycles is the eDRAM cell retention period in cycles
	// (0 for SRAM, which never decays).
	RetentionCycles int64
	// SentryGuardCycles is how much earlier than the cell the sentry bit
	// decays (the guard band of Section 4.1).  Ignored for SRAM.
	SentryGuardCycles int64
}

// Refreshable reports whether this technology requires refresh.
func (c CellConfig) Refreshable() bool { return c.Tech == EDRAM }

// SentryRetention returns the retention period of the sentry bit.
func (c CellConfig) SentryRetention() int64 {
	return c.RetentionCycles - c.SentryGuardCycles
}

// MaxSentryRetentionCycles bounds the sentry retention of an eDRAM cell.
// A Refrint bank sizes its timing wheel to the sentry period, one bucket
// per 64 cycles (see the core package's sentry wheel), so the bound keeps
// the ring at 2^16 buckets (512 KB per bank) or fewer.  At 1 GHz it is 4 ms, 20x the paper's longest retention.
const MaxSentryRetentionCycles = 4_000_000

// Validate reports configuration errors.
func (c CellConfig) Validate() error {
	if c.LeakageRatio < 0 {
		return fmt.Errorf("config: negative leakage ratio")
	}
	if c.Tech == EDRAM {
		if c.RetentionCycles <= 0 {
			return fmt.Errorf("config: eDRAM retention must be positive")
		}
		if c.SentryGuardCycles <= 0 || c.SentryGuardCycles >= c.RetentionCycles {
			return fmt.Errorf("config: sentry guard band %d outside (0, retention %d)", c.SentryGuardCycles, c.RetentionCycles)
		}
		if c.SentryRetention() > MaxSentryRetentionCycles {
			return fmt.Errorf("config: sentry retention %d cycles exceeds the bound of %d", c.SentryRetention(), MaxSentryRetentionCycles)
		}
	}
	return nil
}

// Config is the complete description of one simulated system.
type Config struct {
	Name     string
	Cores    int
	FreqMHz  int
	Core     CoreConfig
	IL1      CacheConfig
	DL1      CacheConfig
	L2       CacheConfig
	L3       CacheConfig
	NoC      NoCConfig
	DRAM     DRAMConfig
	Cell     CellConfig // technology of every cache level (paper: all-SRAM or all-eDRAM)
	Policy   Policy     // refresh policy (ignored for SRAM)
	LineSize int
	// EndOfRunFlush writes back all dirty on-chip data to DRAM at the end of
	// the simulation, as the paper's energy accounting assumes.
	EndOfRunFlush bool
}

// Geometry returns the line geometry shared by the whole hierarchy.
func (c Config) Geometry() mem.LineGeometry { return mem.NewLineGeometry(c.LineSize) }

// Hash returns a stable content hash of the configuration: two Configs with
// equal hashes describe identical architectures.  The hash is hex and safe
// for use in file names; it is the base-configuration component of a sweep
// cell key (see sweep.CellKey).
func (c Config) Hash() string { return HashJSON(c) }

// HashJSON is the canonical content hash shared by every refrint key space
// (config hashes, sweep keys, cell keys): SHA-256 over the JSON rendering,
// truncated to 128 bits, hex-encoded.  A value that cannot marshal (an
// invalid policy, a non-finite float) falls back to its fmt rendering, so a
// usable — if non-canonical — hash is always produced.  Changing this
// recipe invalidates every persisted store key at once, which is exactly
// why it lives in one place.
func HashJSON(v any) string {
	payload, err := json.Marshal(v)
	if err != nil {
		payload = []byte(fmt.Sprintf("%+v", v))
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:16])
}

// Validate reports the first configuration error found, or nil.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("config: core count must be positive")
	}
	if c.FreqMHz <= 0 {
		return fmt.Errorf("config: frequency must be positive")
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("config: line size %d is not a power of two", c.LineSize)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	for _, cc := range []CacheConfig{c.IL1, c.DL1, c.L2, c.L3} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if err := c.NoC.Validate(); err != nil {
		return err
	}
	if c.NoC.Nodes() != c.Cores {
		return fmt.Errorf("config: NoC has %d nodes but chip has %d cores", c.NoC.Nodes(), c.Cores)
	}
	if c.L3.Banks != c.Cores {
		return fmt.Errorf("config: L3 has %d banks but chip has %d cores (one bank per node expected)", c.L3.Banks, c.Cores)
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.Cell.Validate(); err != nil {
		return err
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.Cell.Tech == EDRAM && c.Cell.SentryRetention() <= int64(c.L3.LinesPerBank()) {
		return fmt.Errorf("config: sentry retention %d cycles shorter than a full-bank refresh drain (%d lines)",
			c.Cell.SentryRetention(), c.L3.LinesPerBank())
	}
	return nil
}

// MicrosecondsToCycles converts a retention time in microseconds into cycles
// at the configured frequency.
func (c Config) MicrosecondsToCycles(us float64) int64 {
	return int64(us * float64(c.FreqMHz))
}
