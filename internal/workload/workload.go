// Package workload provides synthetic memory-reference generators standing
// in for the SPLASH-2 and PARSEC applications of Table 5.3.
//
// The original evaluation ran the real 16-threaded binaries inside SESC.
// The refresh policies, however, only observe the memory reference stream:
// which line is touched, by which core, read or written, and how much
// compute separates consecutive references.  Each generator here is a small
// statistical model parameterised along the two axes of Figure 3.1 —
// application footprint relative to the last-level cache, and "visibility"
// of upper-level activity at the LLC (data sharing and writeback traffic) —
// plus a read/write mix and compute intensity.  The parameters are chosen so
// every application lands in the class the paper assigns it in Table 6.1:
//
//	Class 1 (large footprint, high visibility):  FFT, FMM, Cholesky, Fluidanimate
//	Class 2 (small footprint, high visibility):  Barnes, LU, Radix, Radiosity
//	Class 3 (small footprint, low visibility):   Blackscholes, Streamcluster, Raytrace
//
// The reference streams are math/rand's Go 1 stream, drawn from an inlined
// copy of its source (see Generator): the standard library's compatibility
// promise freezes that stream, so a (params, thread, seed) triple gives the
// same references, and the simulator the same results, on every Go release.
package workload

import (
	"errors"
	"fmt"
	"math"

	"refrint/internal/config"
)

// Class is the application class of Figure 3.1 / Table 6.1.
type Class int

// Application classes.
const (
	// ClassUnknown is returned by classification helpers when the parameters
	// do not clearly fall into one of the paper's three classes.
	ClassUnknown Class = iota
	// Class1: large footprint, high LLC visibility.
	Class1
	// Class2: small footprint, high LLC visibility.
	Class2
	// Class3: small footprint, low LLC visibility.
	Class3
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Class1:
		return "Class 1"
	case Class2:
		return "Class 2"
	case Class3:
		return "Class 3"
	default:
		return "Unknown"
	}
}

// MarshalText encodes the class as its Table 6.1 name, e.g. "Class 1".
func (c Class) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a Table 6.1 name, inverting MarshalText.
func (c *Class) UnmarshalText(text []byte) error {
	for _, k := range []Class{ClassUnknown, Class1, Class2, Class3} {
		if string(text) == k.String() {
			*c = k
			return nil
		}
	}
	return fmt.Errorf("workload: unknown class %q", text)
}

// Params is the statistical description of one application.
type Params struct {
	// Name of the benchmark (Table 5.3).
	Name string
	// Suite is "SPLASH-2" or "PARSEC".
	Suite string
	// Input is the paper's problem size (documentation only).
	Input string

	// FootprintLines is the number of distinct cache lines the application
	// touches, across all threads, at full size.  Scaled configurations
	// shrink this by the preset's scale factor.
	FootprintLines int

	// SharedFraction is the probability that a reference targets the
	// globally shared region rather than the issuing thread's private
	// region.  Sharing creates writebacks and downgrades visible at the LLC.
	SharedFraction float64

	// WriteFraction is the probability that a data reference is a store.
	WriteFraction float64

	// Locality is the probability that a reference re-touches a line from
	// the thread's recent working window instead of striding to a new line.
	// High locality keeps traffic inside L1/L2 (low LLC visibility).
	Locality float64

	// StreamBias is the probability that a "new line" reference advances
	// sequentially through its region rather than jumping to a random line.
	// Streaming applications (Class 1) have a high bias: data that has been
	// displaced from the cache is rarely revisited, which is exactly why
	// early eviction by WB(n,m) is cheap for them.  Zero means "use the
	// default" of 0.7.
	StreamBias float64

	// WorkingWindow is the number of recently-touched lines that make up a
	// thread's hot working set.
	WorkingWindow int

	// ComputePerMemOp is the mean number of non-memory instructions between
	// two memory references.
	ComputePerMemOp int

	// MemOpsPerThread is the number of memory references each thread issues
	// in one run at full size (scaled presets shrink it).
	MemOpsPerThread int64

	// InstrFetchFraction is the probability a reference is an instruction
	// fetch from the (small) code footprint.
	InstrFetchFraction float64

	// CodeLines is the number of distinct lines of code footprint.
	CodeLines int

	// PaperClass is the class Table 6.1 assigns to this application.
	PaperClass Class
}

// Validate reports parameter errors.  A NaN probability is out of range.
func (p Params) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: missing name")
	}
	if p.FootprintLines <= 0 {
		return fmt.Errorf("workload %s: footprint must be positive", p.Name)
	}
	if !(p.SharedFraction >= 0 && p.SharedFraction <= 1) {
		return fmt.Errorf("workload %s: shared fraction %v out of [0,1]", p.Name, p.SharedFraction)
	}
	if !(p.WriteFraction >= 0 && p.WriteFraction <= 1) {
		return fmt.Errorf("workload %s: write fraction %v out of [0,1]", p.Name, p.WriteFraction)
	}
	if !(p.Locality >= 0 && p.Locality <= 1) {
		return fmt.Errorf("workload %s: locality %v out of [0,1]", p.Name, p.Locality)
	}
	if !(p.StreamBias >= 0 && p.StreamBias <= 1) {
		return fmt.Errorf("workload %s: stream bias %v out of [0,1]", p.Name, p.StreamBias)
	}
	if p.WorkingWindow <= 0 {
		return fmt.Errorf("workload %s: working window must be positive", p.Name)
	}
	if p.ComputePerMemOp < 0 {
		return fmt.Errorf("workload %s: compute per memop must be non-negative", p.Name)
	}
	if p.MemOpsPerThread <= 0 {
		return fmt.Errorf("workload %s: memops per thread must be positive", p.Name)
	}
	if !(p.InstrFetchFraction >= 0 && p.InstrFetchFraction < 1) {
		return fmt.Errorf("workload %s: ifetch fraction %v out of [0,1)", p.Name, p.InstrFetchFraction)
	}
	if p.CodeLines <= 0 {
		return fmt.Errorf("workload %s: code lines must be positive", p.Name)
	}
	// The generator draws a window slot, a code line and a compute gap
	// through math/rand's Int31n, whose bound must be below 2^31; this
	// also keeps every compute gap below 2^32.
	if p.WorkingWindow >= math.MaxInt32 || p.CodeLines >= math.MaxInt32 || p.ComputePerMemOp >= math.MaxInt32 {
		return fmt.Errorf("workload %s: working window, code lines and compute per memop must be below 2^31-1", p.Name)
	}
	return nil
}

// FootprintRatio returns the application footprint divided by the total LLC
// capacity in lines — the X axis of Figure 3.1.
func (p Params) FootprintRatio(cfg config.Config) float64 {
	return float64(p.FootprintLines) / float64(cfg.L3.TotalLines())
}

// Visibility returns a [0,1] score of how much of the upper-level activity
// the LLC can observe — the Y axis of Figure 3.1.  Sharing (which causes
// downgrades and writebacks through the L3) and a working set that spills
// out of the private caches both raise visibility.
func (p Params) Visibility(cfg config.Config) float64 {
	privateLines := float64(cfg.DL1.TotalLines() + cfg.L2.TotalLines())
	perThreadFootprint := float64(p.FootprintLines) / float64(cfg.Cores)
	spill := 0.0
	if perThreadFootprint > privateLines {
		spill = 1 - privateLines/perThreadFootprint
	}
	vis := p.SharedFraction*2 + spill
	if vis > 1 {
		vis = 1
	}
	return vis
}

// Classify places the application in Figure 3.1's plane for a given
// configuration.  The thresholds follow the paper's qualitative description:
// a footprint larger than the LLC is "large"; visibility above 0.25 is
// "high".
func (p Params) Classify(cfg config.Config) Class {
	large := p.FootprintRatio(cfg) >= 1.0
	visible := p.Visibility(cfg) >= 0.25
	switch {
	case large && visible:
		return Class1
	case !large && visible:
		return Class2
	case !large && !visible:
		return Class3
	default:
		// Large footprint with low visibility: the paper found no such
		// application (Section 3.3).
		return ClassUnknown
	}
}

// Scale returns a copy of the parameters with the footprint and per-thread
// work divided by factor (used with config.Scaled so that footprint-to-cache
// ratios stay as in the paper).
func (p Params) Scale(factor int) Params {
	if factor <= 1 {
		return p
	}
	out := p
	out.FootprintLines = maxInt(p.FootprintLines/factor, 64)
	out.MemOpsPerThread = maxInt64(p.MemOpsPerThread/int64(factor), 2000)
	out.WorkingWindow = maxInt(p.WorkingWindow/factor, 16)
	out.CodeLines = maxInt(p.CodeLines/factor, 8)
	return out
}

// ErrEffort is wrapped by the error WithEffort returns for an effort scale
// it cannot apply.
var ErrEffort = errors.New("invalid effort scale")

// minEffortOps is the per-thread reference floor of a scaled-down workload.
const minEffortOps = 1000

// WithEffort returns a copy of the parameters with the per-thread work
// multiplied by scale and floored at 1000 references.  A scale of 0 means
// the default of 1 and, like 1, returns the parameters unchanged.  A NaN,
// infinite or negative scale, or one whose per-thread count does not fit
// in an int64, is an error wrapping ErrEffort.
func (p Params) WithEffort(scale float64) (Params, error) {
	if !(scale >= 0) || math.IsInf(scale, 1) {
		return p, fmt.Errorf("workload %s: %w %g: must be finite and non-negative", p.Name, ErrEffort, scale)
	}
	if scale == 0 || scale == 1 {
		return p, nil
	}
	ops := float64(p.MemOpsPerThread) * scale
	if ops >= 1<<63 {
		return p, fmt.Errorf("workload %s: %w %g: %g references per thread overflow int64", p.Name, ErrEffort, scale, ops)
	}
	p.MemOpsPerThread = max(int64(ops), minEffortOps)
	return p, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
