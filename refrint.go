// Package refrint is the public API of the Refrint reproduction: a
// simulator for intelligently-refreshed eDRAM multiprocessor cache
// hierarchies, after "Refrint: Intelligent Refresh to Minimize Power in
// On-Chip Multiprocessor Cache Hierarchies" (HPCA 2013).
//
// The package offers three levels of entry:
//
//   - Simulate runs one (application, policy, retention) configuration and
//     returns its statistics and energy breakdown.
//   - RunSweep runs the paper's full parameter sweep (Table 5.4) — or any
//     subset — and returns the normalized data series behind Table 6.1 and
//     Figures 6.1 to 6.4.
//   - ParsePolicy / Applications / Presets expose the building blocks so
//     callers can assemble custom experiments (see examples/customworkload).
//
// All simulation is deterministic for a given seed.
package refrint

import (
	"context"
	"fmt"
	"strings"

	"refrint/internal/config"
	"refrint/internal/sim"
	"refrint/internal/stats"
	"refrint/internal/sweep"
	"refrint/internal/workload"
)

// Re-exported result and data-series types.
type (
	// Result is the outcome of one simulation run.
	Result = sim.Result
	// SweepResults holds a full sweep and generates the figure series.
	SweepResults = sweep.Results
	// SweepOptions selects what a sweep runs.
	SweepOptions = sweep.Options
	// LevelEnergyBar is one bar of Figure 6.1.
	LevelEnergyBar = sweep.LevelEnergyBar
	// ComponentEnergyBar is one bar of Figure 6.2.
	ComponentEnergyBar = sweep.ComponentEnergyBar
	// ScalarBar is one bar of Figures 6.3 and 6.4.
	ScalarBar = sweep.ScalarBar
	// Table61Row is one row of the application-binning table.
	Table61Row = sweep.Table61Row
	// Policy is a refresh policy (time-based x data-based component).
	Policy = config.Policy
	// Config is a complete architecture configuration.
	Config = config.Config
	// WorkloadParams is the statistical description of an application.
	WorkloadParams = workload.Params
	// Stats holds the raw counters of one run (see Result.Stats).
	Stats = stats.Stats
	// StatsLevel identifies a cache level (or DRAM) in per-level counters.
	StatsLevel = stats.Level
)

// Per-level counter identifiers, re-exported for use with Result.Stats.
const (
	StatsIL1  = stats.IL1
	StatsDL1  = stats.DL1
	StatsL2   = stats.L2
	StatsL3   = stats.L3
	StatsDRAM = stats.DRAM
)

// Retention times evaluated by the paper, in microseconds.
const (
	Retention50us  = config.Retention50us
	Retention100us = config.Retention100us
	Retention200us = config.Retention200us
)

// Applications returns the names of the benchmarks of Table 5.3.
func Applications() []string { return workload.AppNames() }

// Application returns the synthetic-workload parameters of a named
// benchmark.
func Application(name string) (WorkloadParams, error) { return workload.Get(name) }

// Policies returns the 14 policies of the paper's sweep in figure order.
func Policies() []Policy { return config.SweepPolicies() }

// ParsePolicy parses a policy label as used in the paper's figures:
// "SRAM", "P.all", "P.valid", "P.dirty", "R.all", "R.valid", "R.dirty",
// "P.WB(n,m)" or "R.WB(n,m)".
func ParsePolicy(label string) (Policy, error) {
	p, err := config.ParsePolicyLabel(label)
	if err != nil {
		return Policy{}, fmt.Errorf("refrint: %w", err)
	}
	return p, nil
}

// Preset returns a named architecture preset: "scaled" (default; the
// time-compressed configuration used by tests and benchmarks) or "fullsize"
// (the paper's Table 5.1 configuration).
func Preset(name string) (Config, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "scaled":
		return config.Scaled(), nil
	case "fullsize", "full", "paper":
		return config.FullSize(), nil
	default:
		return Config{}, fmt.Errorf("refrint: unknown preset %q (want scaled or fullsize)", name)
	}
}

// SimRequest describes one simulation for Simulate.
type SimRequest struct {
	// App is an application name from Applications(), or empty to use
	// Workload below.
	App string
	// Workload lets callers supply custom workload parameters instead of a
	// named application.
	Workload *WorkloadParams
	// Policy is a policy label understood by ParsePolicy ("SRAM" for the
	// baseline).
	Policy string
	// RetentionUS is the eDRAM retention time in microseconds (paper scale;
	// ignored for SRAM).
	RetentionUS float64
	// Preset is "scaled" (default) or "fullsize".
	Preset string
	// EffortScale multiplies the workload length (0 means the default,
	// 1.0).  NaN, infinite, negative or overflowing scales are rejected.
	EffortScale float64
	// Seed drives the synthetic workload (default 1).
	Seed int64
}

// Simulate runs one configuration to completion.
func Simulate(req SimRequest) (Result, error) {
	cfg, err := Preset(req.Preset)
	if err != nil {
		return Result{}, err
	}
	policy, err := ParsePolicy(req.Policy)
	if err != nil {
		return Result{}, err
	}
	retention := req.RetentionUS
	if retention == 0 {
		retention = Retention50us
	}
	cfg = sweep.Point{RetentionUS: retention, Policy: policy}.Config(cfg)

	var params WorkloadParams
	if req.Workload != nil {
		params = *req.Workload
	} else {
		app := req.App
		if app == "" {
			app = "FFT"
		}
		params, err = workload.Get(app)
		if err != nil {
			return Result{}, err
		}
	}
	if params, err = params.WithEffort(req.EffortScale); err != nil {
		return Result{}, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}

	system, err := sim.New(cfg, params, seed)
	if err != nil {
		return Result{}, err
	}
	res := system.Run()
	if policy.Time != config.NoRefresh {
		res.RetentionUS = retention
	}
	return res, nil
}

// SweepProgress reports how far a running sweep has advanced.
type SweepProgress = sweep.Progress

// CellKey is the canonical identity of one simulation cell of a sweep: the
// (application, policy, retention, seed, base configuration, effort) tuple
// that fully determines a single Result.  Cells with equal keys compute
// identical results even across different sweeps, which is what lets a
// persistent store share them between overlapping submissions.
type CellKey = sweep.CellKey

// CellResult is the wire (and stored) form of one completed simulation
// cell: its key plus the raw result.
type CellResult = sweep.CellResult

// SweepCellKey returns the canonical key of one cell of a sweep: app at a
// policy label ("SRAM" for the baseline) and retention time.  The retention
// time is ignored for the baseline, which is keyed with retention zero.
func SweepCellKey(opts SweepOptions, app, policyLabel string, retentionUS float64) (CellKey, error) {
	p, err := ParsePolicy(policyLabel)
	if err != nil {
		return CellKey{}, err
	}
	pt := sweep.Point{RetentionUS: retentionUS, Policy: p}
	if p.Time == config.NoRefresh {
		pt.RetentionUS = 0
	}
	return opts.CellKey(app, pt), nil
}

// SweepRequest is the JSON wire form of a sweep submission, as accepted by
// the refrint-serve API (POST /v1/sweeps).  Zero values mean "the paper's
// default": all applications, retention times 50/100/200 us, the 14 policies
// of Table 5.4, effort 1.0, seed 1.
//
// The type round-trips: Options() produces the sweep the request describes,
// and RequestFromOptions inverts it for any sweep expressible on the wire.
type SweepRequest struct {
	// Preset is "scaled" (default) or "fullsize".
	Preset string `json:"preset,omitempty"`
	// Apps restricts the applications (names from Applications()).
	Apps []string `json:"apps,omitempty"`
	// RetentionTimesUS restricts the eDRAM retention times, in microseconds.
	RetentionTimesUS []float64 `json:"retention_times_us,omitempty"`
	// Policies restricts the policies, as ParsePolicy labels.
	Policies []string `json:"policies,omitempty"`
	// EffortScale multiplies every application's per-thread work.
	EffortScale float64 `json:"effort_scale,omitempty"`
	// Seed drives the synthetic workloads.
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds concurrent simulations within the sweep (0 = NumCPU).
	// It never affects results, only speed, and is excluded from Key().
	// refrint-serve ignores it: the server runs every cell on its one pool.
	Workers int `json:"workers,omitempty"`
	// Priority requests a scheduling class from refrint-serve:
	// "interactive" (the default for POST /v1/sweeps), "batch" (the default
	// inside POST /v1/batches) or "background".  It affects only when the
	// sweep runs, never its results, and is excluded from Key().
	Priority string `json:"priority,omitempty"`
	// Client labels the submitting tenant: the scheduler shares each
	// priority class fairly between client labels, so one flooding tenant
	// cannot monopolize a class.  Excluded from Key().
	Client string `json:"client,omitempty"`
	// TimeoutMS, where positive, bounds the sweep's wall-clock execution in
	// milliseconds: a sweep that outlives it fails with a deadline-exceeded
	// reason.  refrint-serve caps it at (never above) the server's
	// -job-timeout.  It affects only whether the sweep finishes, never its
	// results, and is excluded from Key().
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Options resolves the request into executable sweep options, validating
// every field.
func (r SweepRequest) Options() (SweepOptions, error) {
	base, err := Preset(r.Preset)
	if err != nil {
		return SweepOptions{}, err
	}
	opts := sweep.DefaultOptions()
	opts.Base = base
	if len(r.Apps) > 0 {
		for _, app := range r.Apps {
			if _, err := workload.Get(app); err != nil {
				return SweepOptions{}, fmt.Errorf("refrint: %w", err)
			}
		}
		opts.Apps = append([]string(nil), r.Apps...)
	}
	if len(r.RetentionTimesUS) > 0 {
		for _, ret := range r.RetentionTimesUS {
			if ret <= 0 {
				return SweepOptions{}, fmt.Errorf("refrint: retention time %g us must be positive", ret)
			}
			// The retention sizes each Refrint bank's timing wheel, so check
			// it in the chip it builds before the sweep is admitted.  Every
			// refresh policy builds the same cells.
			if err := (sweep.Point{RetentionUS: ret, Policy: config.RefrintValid}).Config(base).Validate(); err != nil {
				return SweepOptions{}, fmt.Errorf("refrint: retention time %g us: %w", ret, err)
			}
		}
		opts.RetentionTimesUS = append([]float64(nil), r.RetentionTimesUS...)
	}
	if len(r.Policies) > 0 {
		opts.Policies = nil
		for _, label := range r.Policies {
			p, err := ParsePolicy(label)
			if err != nil {
				return SweepOptions{}, err
			}
			if p.Time == config.NoRefresh {
				return SweepOptions{}, fmt.Errorf("refrint: policy list must not include the SRAM baseline (it is always run)")
			}
			opts.Policies = append(opts.Policies, p)
		}
	}
	if r.EffortScale != 0 {
		opts.EffortScale = r.EffortScale
		if err := opts.CheckEffort(); err != nil {
			return SweepOptions{}, err
		}
	}
	if r.Seed != 0 {
		opts.Seed = r.Seed
	}
	if r.Workers > 0 {
		opts.Workers = r.Workers
	}
	if r.TimeoutMS < 0 {
		return SweepOptions{}, fmt.Errorf("refrint: timeout_ms %d must be non-negative", r.TimeoutMS)
	}
	return opts, nil
}

// Key returns the canonical identity of the sweep the request describes:
// requests with equal keys compute identical results.  See SweepOptions.Key.
func (r SweepRequest) Key() (string, error) {
	opts, err := r.Options()
	if err != nil {
		return "", err
	}
	return opts.Key(), nil
}

// RequestFromOptions renders sweep options back into their wire form.  The
// inverse of SweepRequest.Options for any sweep expressible on the wire:
// the round trip preserves Options.Key().
func RequestFromOptions(opts SweepOptions) SweepRequest {
	req := SweepRequest{
		Preset:           opts.Base.Name,
		Apps:             append([]string(nil), opts.Apps...),
		RetentionTimesUS: append([]float64(nil), opts.RetentionTimesUS...),
		EffortScale:      opts.EffortScale,
		Seed:             opts.Seed,
		Workers:          opts.Workers,
	}
	for _, p := range opts.Policies {
		req.Policies = append(req.Policies, p.String())
	}
	return req
}

// DefaultSweep returns the options for the paper's full Table 5.4 sweep on
// the scaled preset.
func DefaultSweep() SweepOptions { return sweep.DefaultOptions() }

// QuickSweep returns a reduced sweep (one application per class, shorter
// runs) that preserves the figure shapes; used by the benchmarks.
func QuickSweep() SweepOptions { return sweep.QuickOptions() }

// RunSweep executes a sweep and returns its results.
func RunSweep(opts SweepOptions) (*SweepResults, error) { return sweep.Execute(opts) }

// RunSweepContext is RunSweep with cancellation and progress reporting: the
// sweep stops early (returning ctx.Err()) when the context is cancelled, and
// calls progress (if non-nil) after every completed simulation.
func RunSweepContext(ctx context.Context, opts SweepOptions, progress func(SweepProgress)) (*SweepResults, error) {
	return sweep.ExecuteContext(ctx, opts, progress)
}
