package workload

import (
	"fmt"

	"refrint/internal/config"
)

// This file defines the statistical parameters of the eleven applications of
// Table 5.3.  Footprints, sharing degrees and locality are chosen so that
// every application lands in the class Table 6.1 assigns it (relative to the
// full-size 16 MB L3) and so that the qualitative behaviours the paper
// describes — streaming large-footprint codes, cache-resident codes with
// heavy sharing, and codes that live almost entirely in L1/L2 — are
// reproduced.  Inputs are recorded for documentation only; the generators do
// not execute the algorithms.

// The full-size L3 holds 256K lines (16 banks x 16K).  "Large footprint"
// applications exceed that; "small footprint" ones fit comfortably.
const llcLinesFullSize = 256 * 1024

// AppNames lists the applications of Table 5.3 in the paper's order.
func AppNames() []string {
	return []string{
		"FFT", "LU", "Radix", "Cholesky", "Barnes", "FMM", "Radiosity", "Raytrace",
		"Streamcluster", "Blackscholes", "Fluidanimate",
	}
}

// Apps returns the parameter set of every application keyed by name.
func Apps() map[string]Params {
	apps := map[string]Params{
		// ---- Class 1: large footprint, high visibility -------------------
		"FFT": {
			Name: "FFT", Suite: "SPLASH-2", Input: "2^20 points",
			FootprintLines:     2 * llcLinesFullSize,
			SharedFraction:     0.30,
			WriteFraction:      0.30,
			Locality:           0.90,
			StreamBias:         0.97,
			WorkingWindow:      512,
			ComputePerMemOp:    5,
			MemOpsPerThread:    600_000,
			InstrFetchFraction: 0.05,
			CodeLines:          256,
			PaperClass:         Class1,
		},
		"FMM": {
			Name: "FMM", Suite: "SPLASH-2", Input: "16K particles",
			FootprintLines:     int(1.5 * llcLinesFullSize),
			SharedFraction:     0.25,
			WriteFraction:      0.25,
			Locality:           0.92,
			StreamBias:         0.97,
			WorkingWindow:      512,
			ComputePerMemOp:    7,
			MemOpsPerThread:    500_000,
			InstrFetchFraction: 0.06,
			CodeLines:          512,
			PaperClass:         Class1,
		},
		"Cholesky": {
			Name: "Cholesky", Suite: "SPLASH-2", Input: "tk29.O",
			FootprintLines:     int(1.25 * llcLinesFullSize),
			SharedFraction:     0.35,
			WriteFraction:      0.35,
			Locality:           0.91,
			StreamBias:         0.97,
			WorkingWindow:      512,
			ComputePerMemOp:    6,
			MemOpsPerThread:    550_000,
			InstrFetchFraction: 0.05,
			CodeLines:          384,
			PaperClass:         Class1,
		},
		"Fluidanimate": {
			Name: "Fluidanimate", Suite: "PARSEC", Input: "simsmall",
			FootprintLines:     int(1.75 * llcLinesFullSize),
			SharedFraction:     0.28,
			WriteFraction:      0.40,
			Locality:           0.90,
			StreamBias:         0.97,
			WorkingWindow:      512,
			ComputePerMemOp:    5,
			MemOpsPerThread:    600_000,
			InstrFetchFraction: 0.05,
			CodeLines:          512,
			PaperClass:         Class1,
		},

		// ---- Class 2: small footprint, high visibility --------------------
		"Barnes": {
			Name: "Barnes", Suite: "SPLASH-2", Input: "16K particles",
			FootprintLines:     llcLinesFullSize / 4,
			SharedFraction:     0.40,
			WriteFraction:      0.30,
			Locality:           0.90,
			StreamBias:         0.75,
			WorkingWindow:      1024,
			ComputePerMemOp:    8,
			MemOpsPerThread:    450_000,
			InstrFetchFraction: 0.06,
			CodeLines:          512,
			PaperClass:         Class2,
		},
		"LU": {
			Name: "LU", Suite: "SPLASH-2", Input: "512x512 matrix",
			FootprintLines:     llcLinesFullSize / 8,
			SharedFraction:     0.35,
			WriteFraction:      0.40,
			Locality:           0.92,
			StreamBias:         0.75,
			WorkingWindow:      1024,
			ComputePerMemOp:    6,
			MemOpsPerThread:    500_000,
			InstrFetchFraction: 0.04,
			CodeLines:          128,
			PaperClass:         Class2,
		},
		"Radix": {
			Name: "Radix", Suite: "SPLASH-2", Input: "2M keys",
			FootprintLines:     llcLinesFullSize / 3,
			SharedFraction:     0.45,
			WriteFraction:      0.45,
			Locality:           0.88,
			StreamBias:         0.75,
			WorkingWindow:      1024,
			ComputePerMemOp:    4,
			MemOpsPerThread:    550_000,
			InstrFetchFraction: 0.03,
			CodeLines:          96,
			PaperClass:         Class2,
		},
		"Radiosity": {
			Name: "Radiosity", Suite: "SPLASH-2", Input: "batch",
			FootprintLines:     llcLinesFullSize / 5,
			SharedFraction:     0.38,
			WriteFraction:      0.30,
			Locality:           0.91,
			StreamBias:         0.75,
			WorkingWindow:      1024,
			ComputePerMemOp:    7,
			MemOpsPerThread:    450_000,
			InstrFetchFraction: 0.07,
			CodeLines:          768,
			PaperClass:         Class2,
		},

		// ---- Class 3: small footprint, low visibility ---------------------
		"Blackscholes": {
			Name: "Blackscholes", Suite: "PARSEC", Input: "simmedium",
			FootprintLines:     llcLinesFullSize / 16,
			SharedFraction:     0.02,
			WriteFraction:      0.20,
			Locality:           0.96,
			StreamBias:         0.70,
			WorkingWindow:      256,
			ComputePerMemOp:    12,
			MemOpsPerThread:    400_000,
			InstrFetchFraction: 0.04,
			CodeLines:          128,
			PaperClass:         Class3,
		},
		"Streamcluster": {
			Name: "Streamcluster", Suite: "PARSEC", Input: "simsmall",
			FootprintLines:     llcLinesFullSize / 12,
			SharedFraction:     0.05,
			WriteFraction:      0.15,
			Locality:           0.95,
			StreamBias:         0.70,
			WorkingWindow:      256,
			ComputePerMemOp:    9,
			MemOpsPerThread:    450_000,
			InstrFetchFraction: 0.03,
			CodeLines:          128,
			PaperClass:         Class3,
		},
		"Raytrace": {
			Name: "Raytrace", Suite: "SPLASH-2", Input: "teapot",
			FootprintLines:     llcLinesFullSize / 10,
			SharedFraction:     0.08,
			WriteFraction:      0.15,
			Locality:           0.95,
			StreamBias:         0.70,
			WorkingWindow:      256,
			ComputePerMemOp:    9,
			MemOpsPerThread:    450_000,
			InstrFetchFraction: 0.08,
			CodeLines:          1024,
			PaperClass:         Class3,
		},
	}
	return apps
}

// Get returns the parameters of a named application.
func Get(name string) (Params, error) {
	p, ok := Apps()[name]
	if !ok {
		return Params{}, fmt.Errorf("workload: unknown application %q (have %v)", name, AppNames())
	}
	return p, nil
}

// ForConfig returns the application parameters adjusted to a configuration:
// for the Scaled preset the footprint and run length are shrunk by the same
// factor as the caches so the footprint-to-LLC ratio is preserved.
func ForConfig(p Params, cfg config.Config) Params {
	if cfg.Name == "scaled" {
		return p.Scale(config.ScaleFactor())
	}
	return p
}
