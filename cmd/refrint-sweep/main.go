// Command refrint-sweep runs the paper's parameter sweep (Table 5.4) over
// the applications of Table 5.3 and prints the data behind Table 6.1 and
// Figures 6.1 to 6.4, normalized to the full-SRAM baseline exactly as the
// paper reports them.
//
// Examples:
//
//	refrint-sweep                       # full sweep on the scaled preset
//	refrint-sweep -quick                # 3 apps, shorter runs
//	refrint-sweep -apps FFT,LU -retentions 50 -csv figure61
//	refrint-sweep -data-dir ./results   # reuse/persist results across runs
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"refrint"
	"refrint/internal/config"
	"refrint/internal/report"
	"refrint/internal/store"
	"refrint/internal/sweep"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "run the reduced sweep (one app per class, shorter runs)")
		apps       = flag.String("apps", "", "comma-separated application names (default: all)")
		retentions = flag.String("retentions", "", "comma-separated retention times in us (default: 50,100,200)")
		effort     = flag.Float64("effort", 0, "workload length multiplier (default 1.0, or 0.25 with -quick)")
		preset     = flag.String("preset", "scaled", "architecture preset: scaled or fullsize")
		seed       = flag.Int64("seed", 1, "workload random seed")
		workers    = flag.Int("workers", 0, "concurrent simulations (default: NumCPU)")
		csvOut     = flag.String("csv", "", "emit CSV instead of text: figure61, figure62, figure63 or figure64")
		selector   = flag.String("class", "all", "application selection for figures 6.2-6.4: all, class1, class2 or class3")
		dataDir    = flag.String("data-dir", "", "reuse and persist simulation cells (and a manifest of the sweep) under this directory")
		storeMax   = flag.Int64("store-max-bytes", 1<<30, "LRU byte budget of the persistent store (with -data-dir); match the service's setting when sharing its data dir")
	)
	flag.Parse()

	opts := refrint.DefaultSweep()
	if *quick {
		opts = refrint.QuickSweep()
	}
	base, err := refrint.Preset(*preset)
	if err != nil {
		fatal(err)
	}
	opts.Base = base
	if *apps != "" {
		opts.Apps = splitList(*apps)
	}
	if *retentions != "" {
		opts.RetentionTimesUS = nil
		for _, r := range splitList(*retentions) {
			v, err := strconv.ParseFloat(r, 64)
			if err != nil {
				fatal(fmt.Errorf("bad retention %q: %w", r, err))
			}
			opts.RetentionTimesUS = append(opts.RetentionTimesUS, v)
		}
	}
	if *effort > 0 {
		opts.EffortScale = *effort
	}
	if *workers > 0 {
		opts.Workers = *workers
	}
	opts.Seed = *seed

	results, err := runWithStore(opts, *dataDir, *storeMax)
	if err != nil {
		fatal(err)
	}

	if *csvOut != "" {
		emitCSV(results, *csvOut, *selector)
		return
	}

	fmt.Println(report.Table54())
	fmt.Println(report.Table61(results.Table61()))
	fmt.Println(report.Figure61(results.Figure61()))
	for _, sel := range []string{"class1", "class2", "class3", "all"} {
		fmt.Println(report.Figure62(sel, results.Figure62(sel)))
	}
	for _, sel := range []string{"class1", "all"} {
		fmt.Println(report.FigureScalar("Figure 6.3: Total energy (normalized to full-SRAM system energy)", sel, results.Figure63(sel)))
		fmt.Println(report.FigureScalar("Figure 6.4: Execution time (normalized to full-SRAM execution time)", sel, results.Figure64(sel)))
	}
	printHeadline(results)
}

// runWithStore executes the sweep, reusing the persistent cell store when a
// data directory is given: only the cells the store does not already hold
// are simulated (fresh ones are persisted for next time), so a sweep
// computed before runs no simulation at all.  The sweep's manifest is
// recorded too, which lets refrint-serve over the same directory serve the
// sweep by key.
func runWithStore(opts refrint.SweepOptions, dataDir string, maxBytes int64) (*refrint.SweepResults, error) {
	if dataDir == "" {
		return refrint.RunSweep(opts)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "refrint-sweep: "+format+"\n", args...)
	}
	st, err := store.Open(dataDir, store.Options{MaxBytes: maxBytes, Logf: logf})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	opts.CellLookup, opts.CellPut = st.CellHooks(logf)
	results, err := refrint.RunSweep(opts)
	if err != nil {
		return nil, err
	}
	if key := opts.Key(); !st.Contains(store.KindSweep, key) {
		if err := st.Put(store.KindSweep, key, store.Manifest{Options: opts}); err != nil {
			logf("persisting sweep manifest %s: %v", key, err)
		}
	}
	ss := st.Stats()
	fmt.Fprintf(os.Stderr, "refrint-sweep: store %s: %d cell hits, %d computed\n", dataDir, ss.CellHits, ss.CellMisses)
	return results, nil
}

// printHeadline prints the paper's headline comparison at 50 us.
func printHeadline(results *sweep.Results) {
	mem := results.Figure61()
	tot := results.Figure63("all")
	times := results.Figure64("all")
	pAll, ok1 := sweep.Find(mem, "P.all", config.Retention50us)
	rWB, ok2 := sweep.Find(mem, "R.WB(32,32)", config.Retention50us)
	if !ok1 || !ok2 {
		return
	}
	pAllT, _ := sweep.Find(times, "P.all", config.Retention50us)
	rWBT, _ := sweep.Find(times, "R.WB(32,32)", config.Retention50us)
	pAllE, _ := sweep.Find(tot, "P.all", config.Retention50us)
	rWBE, _ := sweep.Find(tot, "R.WB(32,32)", config.Retention50us)

	fmt.Println("Headline comparison at 50us (paper: P.all 50% memory / 72% system energy, 18% slowdown;")
	fmt.Println("                             R.WB(32,32) 36% memory / 61% system energy, 2% slowdown)")
	fmt.Printf("  P.all        : %.0f%% memory energy, %.0f%% system energy, %.0f%% slowdown\n",
		100*pAll.Total, 100*pAllE.Value, 100*(pAllT.Value-1))
	fmt.Printf("  R.WB(32,32)  : %.0f%% memory energy, %.0f%% system energy, %.0f%% slowdown\n",
		100*rWB.Total, 100*rWBE.Value, 100*(rWBT.Value-1))
}

func emitCSV(results *sweep.Results, which, selector string) {
	switch which {
	case "figure61":
		fmt.Print(report.Figure61CSV(results.Figure61()))
	case "figure62":
		fmt.Print(report.Figure62CSV(results.Figure62(selector)))
	case "figure63":
		fmt.Print(report.ScalarCSV("total_energy", results.Figure63(selector)))
	case "figure64":
		fmt.Print(report.ScalarCSV("execution_time", results.Figure64(selector)))
	default:
		fatal(fmt.Errorf("unknown -csv target %q", which))
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "refrint-sweep:", err)
	os.Exit(1)
}
