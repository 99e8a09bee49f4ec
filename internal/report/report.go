// Package report renders the sweep results as plain-text and CSV tables:
// the configuration tables of Chapter 5, the application binning of
// Table 6.1, and the per-figure data series of Figures 6.1-6.4.  The text
// output is what cmd/refrint-sweep and cmd/refrint-tables print, and what
// EXPERIMENTS.md embeds.
package report

import (
	"fmt"
	"sort"
	"strings"

	"refrint/internal/config"
	"refrint/internal/sweep"
	"refrint/internal/workload"
)

// Table31 renders the refresh-policy taxonomy of Table 3.1.
func Table31() string {
	var b strings.Builder
	b.WriteString("Table 3.1: Refresh policies\n")
	b.WriteString("  Time-based (when?)\n")
	b.WriteString("    Periodic  refresh periodically, a group of lines at a time\n")
	b.WriteString("    Refrint   refresh on Sentry-bit decay interrupts\n")
	b.WriteString("  Data-based (what?)\n")
	b.WriteString("    All       every line is refreshed\n")
	b.WriteString("    Valid     only valid lines are refreshed\n")
	b.WriteString("    Dirty     only dirty lines are refreshed; clean lines are invalidated\n")
	b.WriteString("    WB(n,m)   dirty lines refreshed n times then written back;\n")
	b.WriteString("              clean lines refreshed m times then invalidated\n")
	return b.String()
}

// Table51 renders the architecture parameters of the given configuration in
// the shape of Table 5.1.
func Table51(cfg config.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5.1: Architecture (%s preset)\n", cfg.Name)
	fmt.Fprintf(&b, "  Chip        : %d-core CMP @ %d MHz\n", cfg.Cores, cfg.FreqMHz)
	fmt.Fprintf(&b, "  Core        : %d-issue, miss overlap %d cycles\n", cfg.Core.IssueWidth, cfg.Core.MissOverlap)
	fmt.Fprintf(&b, "  IL1         : %d KB, %d-way, %d ns\n", cfg.IL1.SizeBytes>>10, cfg.IL1.Ways, cfg.IL1.AccessTime)
	fmt.Fprintf(&b, "  DL1         : %d KB, %d-way, %s, %d ns\n", cfg.DL1.SizeBytes>>10, cfg.DL1.Ways, cfg.DL1.Write, cfg.DL1.AccessTime)
	fmt.Fprintf(&b, "  L2          : %d KB, %d-way, %s, private, %d ns\n", cfg.L2.SizeBytes>>10, cfg.L2.Ways, cfg.L2.Write, cfg.L2.AccessTime)
	fmt.Fprintf(&b, "  L3          : %d x %d KB banks, %d-way, shared, %d ns\n", cfg.L3.Banks, cfg.L3.SizeBytes>>10, cfg.L3.Ways, cfg.L3.AccessTime)
	fmt.Fprintf(&b, "  Line size   : %d B\n", cfg.LineSize)
	fmt.Fprintf(&b, "  Network     : %dx%d torus, %d cycles/hop\n", cfg.NoC.Width, cfg.NoC.Height, cfg.NoC.HopLatency)
	fmt.Fprintf(&b, "  DRAM        : %d ns access, %d channels\n", cfg.DRAM.AccessTime, cfg.DRAM.Channels)
	fmt.Fprintf(&b, "  Coherence   : directory MESI at L3\n")
	return b.String()
}

// Table52 renders the SRAM/eDRAM cell comparison of Table 5.2.
func Table52() string {
	var b strings.Builder
	b.WriteString("Table 5.2: Baseline and proposed cells\n")
	b.WriteString("                    SRAM    eDRAM\n")
	b.WriteString("  Access time       1       1\n")
	b.WriteString("  Access energy     1       1\n")
	b.WriteString("  Leakage power     1       1/4\n")
	b.WriteString("  Refresh time      -       access time\n")
	b.WriteString("  Refresh energy    -       access energy\n")
	return b.String()
}

// Table53 renders the application list of Table 5.3.
func Table53() string {
	var b strings.Builder
	b.WriteString("Table 5.3: Applications\n")
	apps := workload.Apps()
	names := workload.AppNames()
	for _, name := range names {
		p := apps[name]
		fmt.Fprintf(&b, "  %-14s %-9s %s\n", p.Name, p.Suite, p.Input)
	}
	return b.String()
}

// Table54 renders the parameter sweep of Table 5.4.
func Table54() string {
	var b strings.Builder
	b.WriteString("Table 5.4: Parameter sweep\n")
	var rts []string
	for _, r := range config.RetentionTimesUS() {
		rts = append(rts, fmt.Sprintf("%g us", r))
	}
	fmt.Fprintf(&b, "  Retention times : %s\n", strings.Join(rts, ", "))
	fmt.Fprintf(&b, "  Timing policies : Periodic, Refrint\n")
	var labels []string
	for _, p := range config.DataPolicies(config.RefrintTime) {
		labels = append(labels, strings.TrimPrefix(p.String(), "R."))
	}
	fmt.Fprintf(&b, "  Data policies   : %s\n", strings.Join(labels, ", "))
	fmt.Fprintf(&b, "  Combinations    : %d (plus the full-SRAM baseline)\n", len(config.RetentionTimesUS())*len(config.SweepPolicies()))
	return b.String()
}

// Table61 renders the application binning with the measured evidence.
func Table61(rows []sweep.Table61Row) string {
	var b strings.Builder
	b.WriteString("Table 6.1: Application binning\n")
	b.WriteString("  App             Class     Footprint/LLC  Visibility  L3 miss rate  DRAM accesses\n")
	sorted := append([]sweep.Table61Row(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Class != sorted[j].Class {
			return sorted[i].Class < sorted[j].Class
		}
		return sorted[i].App < sorted[j].App
	})
	for _, r := range sorted {
		fmt.Fprintf(&b, "  %-15s %-9s %12.2f  %9.2f  %11.1f%%  %12d\n",
			r.App, r.Class, r.FootprintRatio, r.Visibility, 100*r.L3MissRate, r.DRAMAccesses)
	}
	return b.String()
}

// Figure61 renders the per-level energy series (one row per bar).
func Figure61(bars []sweep.LevelEnergyBar) string {
	var b strings.Builder
	b.WriteString("Figure 6.1: L1, L2, L3 & DRAM energy (normalized to full-SRAM memory energy)\n")
	b.WriteString("  retention  policy        L1      L2      L3      DRAM    total\n")
	for _, bar := range bars {
		fmt.Fprintf(&b, "  %6gus   %-12s %6.3f  %6.3f  %6.3f  %6.3f  %6.3f\n",
			bar.Point.RetentionUS, bar.Point.Label(), bar.L1, bar.L2, bar.L3, bar.DRAM, bar.Total)
	}
	return b.String()
}

// Figure62 renders the per-component energy series for one application
// selection.
func Figure62(selector string, bars []sweep.ComponentEnergyBar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6.2 (%s): dynamic, leakage, refresh & DRAM energy (normalized to full-SRAM memory energy)\n", selector)
	b.WriteString("  retention  policy        dynamic leakage refresh DRAM    total\n")
	for _, bar := range bars {
		fmt.Fprintf(&b, "  %6gus   %-12s %6.3f  %6.3f  %6.3f  %6.3f  %6.3f\n",
			bar.Point.RetentionUS, bar.Point.Label(), bar.Dynamic, bar.Leakage, bar.Refresh, bar.DRAM, bar.Total)
	}
	return b.String()
}

// FigureScalar renders a Figure 6.3 or 6.4 series.
func FigureScalar(title, selector string, bars []sweep.ScalarBar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", title, selector)
	b.WriteString("  retention  policy        value\n")
	for _, bar := range bars {
		fmt.Fprintf(&b, "  %6gus   %-12s %6.3f\n", bar.Point.RetentionUS, bar.Point.Label(), bar.Value)
	}
	return b.String()
}

// CSV renders any of the figure series as comma-separated values with a
// header row, for plotting outside the tool.
func CSV(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, row := range rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure61CSV converts a Figure 6.1 series to CSV.
func Figure61CSV(bars []sweep.LevelEnergyBar) string {
	rows := make([][]string, 0, len(bars))
	for _, bar := range bars {
		rows = append(rows, []string{
			fmt.Sprintf("%g", bar.Point.RetentionUS), bar.Point.Label(),
			fmt.Sprintf("%.4f", bar.L1), fmt.Sprintf("%.4f", bar.L2),
			fmt.Sprintf("%.4f", bar.L3), fmt.Sprintf("%.4f", bar.DRAM),
			fmt.Sprintf("%.4f", bar.Total),
		})
	}
	return CSV([]string{"retention_us", "policy", "L1", "L2", "L3", "DRAM", "total"}, rows)
}

// Figure62CSV converts a Figure 6.2 series to CSV.
func Figure62CSV(bars []sweep.ComponentEnergyBar) string {
	rows := make([][]string, 0, len(bars))
	for _, bar := range bars {
		rows = append(rows, []string{
			fmt.Sprintf("%g", bar.Point.RetentionUS), bar.Point.Label(),
			fmt.Sprintf("%.4f", bar.Dynamic), fmt.Sprintf("%.4f", bar.Leakage),
			fmt.Sprintf("%.4f", bar.Refresh), fmt.Sprintf("%.4f", bar.DRAM),
			fmt.Sprintf("%.4f", bar.Total),
		})
	}
	return CSV([]string{"retention_us", "policy", "dynamic", "leakage", "refresh", "DRAM", "total"}, rows)
}

// ScalarCSV converts a Figure 6.3/6.4 series to CSV.
func ScalarCSV(metric string, bars []sweep.ScalarBar) string {
	rows := make([][]string, 0, len(bars))
	for _, bar := range bars {
		rows = append(rows, []string{
			fmt.Sprintf("%g", bar.Point.RetentionUS), bar.Point.Label(),
			fmt.Sprintf("%.4f", bar.Value),
		})
	}
	return CSV([]string{"retention_us", "policy", metric}, rows)
}
