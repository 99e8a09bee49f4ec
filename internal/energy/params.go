// Package energy converts the raw event counts collected by package stats
// into Joules, following the accounting the paper uses:
//
//   - per-access dynamic energy and leakage power per cache level come from a
//     CACTI-like table for 32 nm LOP SRAM (Parameters);
//   - eDRAM inherits the same access energy and access time, one quarter of
//     the leakage power, and a refresh energy per line equal to the access
//     energy (Table 5.2);
//   - DRAM is charged a fixed energy per access;
//   - cores and NoC routers/links contribute dynamic energy per unit of
//     activity plus leakage, and are only used for the "total energy" view of
//     Figure 6.3.
//
// Absolute Joule values are representative, not calibrated against the
// authors' CACTI/McPAT runs; every result the harness reports is normalized
// to the full-SRAM baseline exactly as the paper does, so only the ratios in
// Table 5.2 and the relative magnitude of the components matter.
package energy

import "refrint/internal/config"

// Parameters holds the per-component energy/power constants for one system
// configuration, in SI units (Joules, Watts, seconds).
type Parameters struct {
	// Per-access dynamic energy, in Joules, per cache lookup at each level.
	IL1AccessJ float64
	DL1AccessJ float64
	L2AccessJ  float64
	L3AccessJ  float64

	// Leakage power in Watts for the entire level (all banks), for the SRAM
	// implementation.  The eDRAM implementation multiplies these by
	// CellLeakageRatio.
	IL1LeakW float64
	DL1LeakW float64
	L2LeakW  float64
	L3LeakW  float64

	// CellLeakageRatio is Table 5.2's leakage ratio (1.0 SRAM, 0.25 eDRAM).
	CellLeakageRatio float64

	// RefreshJ is the energy of refreshing one line at each level; the paper
	// sets it equal to the access energy.
	IL1RefreshJ float64
	DL1RefreshJ float64
	L2RefreshJ  float64
	L3RefreshJ  float64

	// DRAMAccessJ is the energy of one off-chip DRAM access (row activation,
	// transfer of one 64-byte line and I/O).
	DRAMAccessJ float64

	// NoC energy.
	NoCHopJ   float64 // router traversal + link, per flit per hop
	NoCLeakW  float64 // all routers and links
	FlitBytes int

	// Core energy (Figure 6.3 only).
	CoreDynPerInstrJ float64 // average dynamic energy per retired instruction
	CoreLeakW        float64 // leakage of all cores combined

	// ClockPeriodS converts cycles into seconds.
	ClockPeriodS float64
}

// Representative 32 nm LOP constants.  The absolute values are in the range
// CACTI 5.1 reports for caches of these sizes at 32 nm low-operating-power
// transistors; they only need to be mutually consistent because all reported
// results are normalized to the full-SRAM configuration.
const (
	baseIL1AccessJ = 20e-12  // 20 pJ per 32 KB I-cache access
	baseDL1AccessJ = 25e-12  // 25 pJ per 32 KB D-cache access
	baseL2AccessJ  = 60e-12  // 60 pJ per 256 KB access
	baseL3AccessJ  = 180e-12 // 180 pJ per 1 MB bank access

	baseIL1LeakW = 0.012 // per core, W
	baseDL1LeakW = 0.014 // per core
	baseL2LeakW  = 0.100 // per core
	baseL3LeakW  = 0.550 // per bank

	baseDRAMAccessJ = 12e-9 // 12 nJ per 64-byte line

	baseNoCHopJ  = 8e-12 // per flit-hop
	baseNoCLeakW = 0.08  // whole 4x4 torus

	baseCoreDynPerInstrJ = 150e-12 // simple 2-issue core at low voltage
	baseCoreLeakW        = 0.25    // per core
)

// NewParameters derives the energy parameters for a configuration.
//
// The constants always describe the paper's full-size hierarchy (Table 5.1),
// regardless of the preset's cache capacities: the Scaled preset is a
// time-compressed stand-in for the full-size machine, so per-event energies
// and leakage powers must stay those of the full-size arrays for the
// normalized results to be comparable (see config.Scaled).  Only the
// cell-technology leakage ratio and the clock period depend on the
// configuration.
func NewParameters(cfg config.Config) Parameters {
	cores := float64(cfg.Cores)
	banks := float64(cfg.L3.Banks)

	p := Parameters{
		IL1AccessJ: baseIL1AccessJ,
		DL1AccessJ: baseDL1AccessJ,
		L2AccessJ:  baseL2AccessJ,
		L3AccessJ:  baseL3AccessJ,

		IL1LeakW: baseIL1LeakW * cores,
		DL1LeakW: baseDL1LeakW * cores,
		L2LeakW:  baseL2LeakW * cores,
		L3LeakW:  baseL3LeakW * banks,

		CellLeakageRatio: cfg.Cell.LeakageRatio,

		DRAMAccessJ: baseDRAMAccessJ,

		NoCHopJ:   baseNoCHopJ,
		NoCLeakW:  baseNoCLeakW,
		FlitBytes: cfg.NoC.LinkWidth,

		CoreDynPerInstrJ: baseCoreDynPerInstrJ,
		CoreLeakW:        baseCoreLeakW * cores,

		ClockPeriodS: 1.0 / (float64(cfg.FreqMHz) * 1e6),
	}
	// Refresh energy of a line equals the access energy of the line
	// (Table 5.2: "Refresh energy = access energy").
	p.IL1RefreshJ = p.IL1AccessJ
	p.DL1RefreshJ = p.DL1AccessJ
	p.L2RefreshJ = p.L2AccessJ
	p.L3RefreshJ = p.L3AccessJ
	return p
}
