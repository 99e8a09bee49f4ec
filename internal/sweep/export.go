package sweep

import "refrint/internal/stats"

// This file provides a machine-readable export of a sweep, so results can be
// archived, diffed between runs, or plotted outside the tool.

// ExportRun is the JSON form of one simulation within a sweep.
type ExportRun struct {
	App         string  `json:"app"`
	Policy      string  `json:"policy"`
	RetentionUS float64 `json:"retention_us"`

	Cycles       int64 `json:"cycles"`
	Instructions int64 `json:"instructions"`
	MemOps       int64 `json:"mem_ops"`

	// Energy in Joules.
	MemoryEnergyJ  float64 `json:"memory_energy_j"`
	DynamicJ       float64 `json:"dynamic_j"`
	LeakageJ       float64 `json:"leakage_j"`
	RefreshJ       float64 `json:"refresh_j"`
	DRAMJ          float64 `json:"dram_j"`
	TotalEnergyJ   float64 `json:"total_energy_j"`
	CoreEnergyJ    float64 `json:"core_energy_j"`
	NetworkEnergyJ float64 `json:"network_energy_j"`

	// Normalized to the same application's SRAM baseline (zero for the
	// baseline itself).
	NormMemoryEnergy float64 `json:"norm_memory_energy"`
	NormTotalEnergy  float64 `json:"norm_total_energy"`
	NormTime         float64 `json:"norm_time"`

	// Headline activity counters.
	OnChipRefreshes   int64   `json:"on_chip_refreshes"`
	SentryInterrupts  int64   `json:"sentry_interrupts"`
	PolicyWritebacks  int64   `json:"policy_writebacks"`
	PolicyInvalidates int64   `json:"policy_invalidates"`
	DRAMAccesses      int64   `json:"dram_accesses"`
	L3MissRate        float64 `json:"l3_miss_rate"`
}

// Export is the JSON form of a full sweep.
type Export struct {
	Preset      string      `json:"preset"`
	EffortScale float64     `json:"effort_scale"`
	Seed        int64       `json:"seed"`
	Apps        []string    `json:"apps"`
	Runs        []ExportRun `json:"runs"`
}

// Export converts the results into their machine-readable form.  Runs are
// ordered baseline-first, then by sweep point and application, so the output
// is deterministic.
func (r *Results) Export() Export {
	out := Export{
		Preset:      r.Options.Base.Name,
		EffortScale: r.Options.EffortScale,
		Seed:        r.Options.Seed,
		Apps:        append([]string(nil), r.Options.Apps...),
	}
	for _, app := range r.Options.Apps {
		if base, ok := r.Baselines[app]; ok {
			out.Runs = append(out.Runs, r.exportRun(base, false))
		}
	}
	for _, pt := range r.Points {
		for _, app := range r.Options.Apps {
			if run, ok := r.Lookup(app, pt); ok {
				out.Runs = append(out.Runs, r.exportRun(run, true))
			}
		}
	}
	return out
}

// exportRun flattens one run, normalizing against its application baseline.
func (r *Results) exportRun(run Run, normalize bool) ExportRun {
	res := run.Result
	e := ExportRun{
		App:               run.App,
		Policy:            run.Point.Label(),
		RetentionUS:       run.Point.RetentionUS,
		Cycles:            res.Cycles,
		Instructions:      res.Stats.Instructions,
		MemOps:            res.Stats.MemOps,
		MemoryEnergyJ:     res.Energy.MemoryHierarchy(),
		DynamicJ:          res.Energy.Dynamic,
		LeakageJ:          res.Energy.Leakage,
		RefreshJ:          res.Energy.Refresh,
		DRAMJ:             res.Energy.DRAM,
		TotalEnergyJ:      res.Energy.Total(),
		CoreEnergyJ:       res.Energy.Core,
		NetworkEnergyJ:    res.Energy.NoC,
		OnChipRefreshes:   res.Stats.TotalOnChipRefreshes(),
		SentryInterrupts:  res.Stats.SentryInterrupts,
		PolicyWritebacks:  res.Stats.PolicyWritebacks,
		PolicyInvalidates: res.Stats.PolicyInvalidates,
		DRAMAccesses:      res.Stats.DRAMAccesses(),
		L3MissRate:        res.Stats.Level(stats.L3).MissRate(),
	}
	if normalize {
		if base, ok := r.Baselines[run.App]; ok {
			if v := base.Result.Energy.MemoryHierarchy(); v > 0 {
				e.NormMemoryEnergy = res.Energy.MemoryHierarchy() / v
			}
			if v := base.Result.Energy.Total(); v > 0 {
				e.NormTotalEnergy = res.Energy.Total() / v
			}
			if base.Result.Cycles > 0 {
				e.NormTime = float64(res.Cycles) / float64(base.Result.Cycles)
			}
		}
	}
	return e
}
