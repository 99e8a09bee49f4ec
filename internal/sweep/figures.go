package sweep

import (
	"refrint/internal/sim"
	"refrint/internal/stats"
	"refrint/internal/workload"
)

// This file turns raw sweep results into the data series behind the paper's
// evaluation figures.  All values are normalized per-application to that
// application's full-SRAM baseline and then averaged over the selected
// application set, which is how the paper reports every figure.

// LevelEnergyBar is one bar of Figure 6.1: memory-hierarchy energy split by
// level, normalized to the full-SRAM memory-hierarchy energy.  Like every
// figure datum, it is its own JSON wire form.
type LevelEnergyBar struct {
	Point
	L1    float64 `json:"l1"` // IL1 + DL1
	L2    float64 `json:"l2"`
	L3    float64 `json:"l3"`
	DRAM  float64 `json:"dram"`
	Total float64 `json:"total"` // the bar height, L1+L2+L3+DRAM
}

// ComponentEnergyBar is one bar of Figure 6.2: on-chip dynamic, leakage and
// refresh energy plus DRAM energy, normalized to the full-SRAM
// memory-hierarchy energy.
type ComponentEnergyBar struct {
	Point
	Dynamic float64 `json:"dynamic"`
	Leakage float64 `json:"leakage"`
	Refresh float64 `json:"refresh"`
	DRAM    float64 `json:"dram"`
	Total   float64 `json:"total"` // the bar height, Dynamic+Leakage+Refresh+DRAM
}

// ScalarBar is one bar of Figures 6.3 (total energy) and 6.4 (execution
// time): a single normalized value.
type ScalarBar struct {
	Point
	Value float64 `json:"value"`
}

// appsFor resolves a series selector to application names.
func (r *Results) appsFor(selector string) []string {
	switch selector {
	case "all", "":
		return r.Options.Apps
	case "class1":
		return r.AppsByClass()[workload.Class1]
	case "class2":
		return r.AppsByClass()[workload.Class2]
	case "class3":
		return r.AppsByClass()[workload.Class3]
	default:
		return nil
	}
}

// averageRatioOver computes the mean of num(run)/denom(baseline of same
// app) over the given applications at one sweep point.  The two metrics
// differ where a figure stacks components of a normalized total (e.g.
// refresh energy over baseline memory energy in Figure 6.2).
func (r *Results) averageRatioOver(apps []string, pt Point, num, denom func(sim.Result) float64) float64 {
	var sum float64
	var n int
	for _, app := range apps {
		run, ok := r.Lookup(app, pt)
		if !ok {
			continue
		}
		base, ok := r.Baselines[app]
		if !ok {
			continue
		}
		d := denom(base.Result)
		if d == 0 {
			continue
		}
		sum += num(run.Result) / d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// memoryEnergy is the paper's "memory hierarchy energy" (L1+L2+L3+DRAM).
func memoryEnergy(res sim.Result) float64 { return res.Energy.MemoryHierarchy() }

// Figure61 returns the bars of Figure 6.1 (L1/L2/L3/DRAM energy, averaged
// over all applications in the sweep), one per point, ordered by retention
// time then policy.
func (r *Results) Figure61() []LevelEnergyBar {
	var bars []LevelEnergyBar
	for _, pt := range r.Points {
		share := func(part func(sim.Result) float64) float64 {
			return r.averageRatioOver(r.Options.Apps, pt, part, memoryEnergy)
		}
		bar := LevelEnergyBar{
			Point: pt,
			L1:    share(func(res sim.Result) float64 { return res.Energy.IL1 + res.Energy.DL1 }),
			L2:    share(func(res sim.Result) float64 { return res.Energy.L2 }),
			L3:    share(func(res sim.Result) float64 { return res.Energy.L3 }),
			DRAM:  share(func(res sim.Result) float64 { return res.Energy.DRAM }),
		}
		bar.Total = bar.L1 + bar.L2 + bar.L3 + bar.DRAM
		bars = append(bars, bar)
	}
	return bars
}

// Figure62 returns the bars of Figure 6.2 for one series ("class1",
// "class2", "class3" or "all"): on-chip dynamic, leakage, refresh and DRAM
// energy normalized to the full-SRAM memory energy of the same applications.
func (r *Results) Figure62(selector string) []ComponentEnergyBar {
	apps := r.appsFor(selector)
	var bars []ComponentEnergyBar
	for _, pt := range r.Points {
		share := func(part func(sim.Result) float64) float64 {
			return r.averageRatioOver(apps, pt, part, memoryEnergy)
		}
		bar := ComponentEnergyBar{
			Point:   pt,
			Dynamic: share(func(res sim.Result) float64 { return res.Energy.Dynamic }),
			Leakage: share(func(res sim.Result) float64 { return res.Energy.Leakage }),
			Refresh: share(func(res sim.Result) float64 { return res.Energy.Refresh }),
			DRAM:    share(func(res sim.Result) float64 { return res.Energy.DRAM }),
		}
		bar.Total = bar.Dynamic + bar.Leakage + bar.Refresh + bar.DRAM
		bars = append(bars, bar)
	}
	return bars
}

// Figure63 returns the bars of Figure 6.3 for one series: total system
// energy (cores + caches + network + DRAM) normalized to the full-SRAM
// system energy.
func (r *Results) Figure63(selector string) []ScalarBar {
	return r.scalarBars(selector, func(res sim.Result) float64 { return res.Energy.Total() })
}

// Figure64 returns the bars of Figure 6.4 for one series: execution time
// normalized to the full-SRAM execution time.
func (r *Results) Figure64(selector string) []ScalarBar {
	return r.scalarBars(selector, func(res sim.Result) float64 { return float64(res.Cycles) })
}

// scalarBars returns one bar per point: metric normalized to the same
// metric of each application's SRAM baseline, averaged over the series.
func (r *Results) scalarBars(selector string, metric func(sim.Result) float64) []ScalarBar {
	apps := r.appsFor(selector)
	var bars []ScalarBar
	for _, pt := range r.Points {
		bars = append(bars, ScalarBar{Point: pt, Value: r.averageRatioOver(apps, pt, metric, metric)})
	}
	return bars
}

// Table61Row is one row of Table 6.1 (application binning), augmented with
// the measured characteristics that justify the bin.
type Table61Row struct {
	App            string         `json:"app"`
	Class          workload.Class `json:"class"`
	FootprintRatio float64        `json:"footprint_ratio"` // footprint / LLC capacity
	Visibility     float64        `json:"visibility"`
	L3MissRate     float64        `json:"l3_miss_rate"`  // measured on the SRAM baseline
	L2Writebacks   int64          `json:"l2_writebacks"` // measured on the SRAM baseline (visibility proxy)
	DRAMAccesses   int64          `json:"dram_accesses"` // measured on the SRAM baseline (footprint proxy)
}

// Table61 reproduces the application binning of Table 6.1, using the
// parameters' classification plus measured baseline statistics.
func (r *Results) Table61() []Table61Row {
	var rows []Table61Row
	for _, app := range r.Options.Apps {
		p, err := workload.Get(app)
		if err != nil {
			continue
		}
		// Compare the footprint the simulations actually used against the
		// LLC they actually ran on (the Scaled preset shrinks both).
		scaled := workload.ForConfig(p, r.Options.Base)
		row := Table61Row{
			App:            app,
			Class:          p.PaperClass,
			FootprintRatio: scaled.FootprintRatio(r.Options.Base),
			Visibility:     scaled.Visibility(r.Options.Base),
		}
		if base, ok := r.Baselines[app]; ok {
			row.L3MissRate = base.Result.Stats.Level(stats.L3).MissRate()
			row.L2Writebacks = base.Result.Stats.Level(stats.L2).Writebacks
			row.DRAMAccesses = base.Result.Stats.DRAMAccesses()
		}
		rows = append(rows, row)
	}
	return rows
}

// point returns the point itself, so that Find can read the Point every
// bar embeds.
func (p Point) point() Point { return p }

// Find returns the bar of a figure series at a policy label and retention
// time (for reports, tests and the headline-claims check).
func Find[B interface{ point() Point }](bars []B, label string, retentionUS float64) (B, bool) {
	for _, b := range bars {
		if pt := b.point(); pt.Label() == label && pt.RetentionUS == retentionUS {
			return b, true
		}
	}
	var zero B
	return zero, false
}
