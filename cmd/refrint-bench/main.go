// Command refrint-bench is the repository's benchmark: one command that runs
// five workloads, prints every end-to-end and per-layer metric by name with
// its unit, and checks the simulator's outputs while it measures.
//
//	stream-refrint   FFT (Class 1) under R.valid and R.WB(32,32) at 50 us
//	resident-sram    Blackscholes and Streamcluster (Class 3) on the SRAM baseline
//	shared-periodic  Radix and LU (Class 2) under P.valid and P.WB(32,32) at 50 us
//	sweep-quick      the quick paper sweep and its figure export
//	service-mixed    refrint-serve under a background flood and interactive requests
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash cmd/refrint-bench/run.sh                   # every workload, each in its own process
//	bash cmd/refrint-bench/run.sh -trace 1          # ... plus a separate traced run of each
//	bash cmd/refrint-bench/run.sh -workload stream-refrint -seed 3 -seconds 10 -trace 0
//	bash cmd/refrint-bench/run.sh compare A.json... -- B.json...
//
// With -workload, the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.  The same result,
// with a provenance block, is written to a file under -out; a traced run
// writes its spans beside it.  README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and its unit.  The names and units must match
// BENCHMARK.json; bench_test.go checks that they do.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the service sees.
// Every workload measures every one of them.
var endToEnd = []metricDef{
	{"refs_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A workload that does not cross a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{"workload.refs_per_cell", "count"},
	{"cache.lookups_per_ref", "1/ref"},
	{"cache.l1_hit_rate", "ratio"},
	{"cache.l3_lookups_per_ref", "1/ref"},
	{"cache.l3_miss_rate", "ratio"},
	{"core.refreshes_per_ref", "1/ref"},
	{"core.sentry_irqs_per_ref", "1/ref"},
	{"core.group_scans_per_ref", "1/ref"},
	{"core.refresh_stall_cycles_per_ref", "cycles/ref"},
	{"coherence.invalidations_per_ref", "1/ref"},
	{"coherence.downgrades_per_ref", "1/ref"},
	{"noc.flit_hops_per_ref", "1/ref"},
	{"dram.accesses_per_ref", "1/ref"},
	{"sim.cycles_per_ref", "cycles/ref"},
	{"energy.refresh_frac", "ratio"},
	{"workload.next_ns_per_ref", "ns/ref"},
	{"sim.new_ms_per_cell", "ms"},
	{"sim.run_ns_per_ref", "ns/ref"},
	{"sim.hierarchy_ns_per_ref", "ns/ref"},
	{"core.refresh_ns_per_ref", "ns/ref"},
	{"sweep.cell_ms_p50", "ms"},
	{"sweep.cell_ms_p90", "ms"},
	{"sweep.pool_idle_frac", "ratio"},
	{"report.figures_ms", "ms"},
	{"server.admit_ms_p50", "ms"},
	{"sched.queue_wait_ms_p50", "ms"},
	{"sched.queue_wait_ms_p90", "ms"},
	{"sweep.exec_ms_p50", "ms"},
	{"sched.bg_exec_s_p50", "s"},
	{"store.persist_ms_p50", "ms"},
	{"store.cell_hit_rate", "ratio"},
	{"server.delivery_ms_p50", "ms"},
	{"sweep.dup_cell_sims", "count"},
	{"loadgen.max_late_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// workloads lists the benchmark's workloads in the order a full run takes
// them.
var workloads = []struct {
	name string
	run  func(context.Context, options, *tracer) (*report, error)
}{
	{"stream-refrint", streamRefrint.run},
	{"resident-sram", residentSRAM.run},
	{"shared-periodic", sharedPeriodic.run},
	{"sweep-quick", runSweepQuick},
	{"service-mixed", runServiceMixed},
}

// options are the settings of one benchmark invocation.
type options struct {
	root     string // repository root
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // multiplies simulated work; below 1 only in tests
	expected string  // pinned output digests
	outDir   string  // result and span files
	server   string  // refrint-serve binary; built on demand when empty
	storeDir string  // refrint-serve -data-dir parent
}

func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("refrint-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opt    options
		trace  int
		update bool
	)
	fs.StringVar(&opt.workload, "workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed: the only input the workloads are generated from")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 = the traced run, which records spans and reports the per-layer metrics")
	fs.Float64Var(&opt.scale, "scale", 1, "multiplies the simulated work of every cell (tests use it for smoke runs; pinned digests apply at 1)")
	fs.BoolVar(&update, "update", false, "recompute the pinned digests and rewrite the -expected file")
	fs.StringVar(&opt.expected, "expected", "", "pinned digests (default cmd/refrint-bench/testdata/expected.json)")
	fs.StringVar(&opt.outDir, "out", "", "directory for result and span files (default .bench_build/results)")
	fs.StringVar(&opt.server, "server", "", "refrint-serve binary for service-mixed (default: built into .bench_build/bin)")
	fs.StringVar(&opt.storeDir, "store-dir", "", "parent of the service's -data-dir (default .bench_build/store); put it on tmpfs to leave out disk cost")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "refrint-bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "refrint-bench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	opt.trace = trace == 1
	if opt.seconds < 0 || opt.scale <= 0 {
		fmt.Fprintln(stderr, "refrint-bench: -seconds must be non-negative and -scale positive")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "refrint-bench:", err)
		return 1
	}
	opt.root = root
	build := filepath.Join(root, ".bench_build")
	if opt.expected == "" {
		opt.expected = filepath.Join(root, "cmd", "refrint-bench", "testdata", "expected.json")
	}
	if opt.outDir == "" {
		opt.outDir = filepath.Join(build, "results")
	}
	if opt.storeDir == "" {
		opt.storeDir = filepath.Join(build, "store")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case update:
		if err := updateExpected(ctx, opt, stdout); err != nil {
			fmt.Fprintln(stderr, "refrint-bench:", err)
			return 1
		}
		return 0
	case opt.workload == "":
		return runAll(ctx, opt, stdout, stderr)
	default:
		return runWorkload(ctx, opt, stdout, stderr)
	}
}

// findRoot returns the repository root: the nearest directory at or above
// the working directory that holds this command's sources.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "refrint-bench", "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("run from inside the repository: no cmd/refrint-bench above the working directory")
		}
		dir = parent
	}
}

// runAll runs every workload in a child process of its own, so memory
// high-water marks, GC state and set-up cost do not carry from one workload
// to the next.  With -trace 1 each workload gets a second, traced child.
func runAll(ctx context.Context, opt options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "refrint-bench:", err)
		return 1
	}
	traces := []int{0}
	if opt.trace {
		traces = append(traces, 1)
	}
	code := 0
	for _, w := range workloads {
		for _, t := range traces {
			fmt.Fprintf(stdout, "== %s (trace %d)\n", w.name, t)
			args := []string{
				"-workload", w.name,
				"-seed", strconv.FormatInt(opt.seed, 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(t),
				"-scale", strconv.FormatFloat(opt.scale, 'g', -1, 64),
				"-expected", opt.expected,
				"-out", opt.outDir,
				"-server", opt.server,
				"-store-dir", opt.storeDir,
			}
			var out bytes.Buffer
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stdout = io.MultiWriter(stdout, &out)
			cmd.Stderr = stderr
			err := cmd.Run()
			res, perr := parseResultLine(out.Bytes())
			switch {
			case err != nil:
				fmt.Fprintf(stderr, "refrint-bench: %s: %v\n", w.name, err)
				code = 1
			case perr != nil:
				fmt.Fprintf(stderr, "refrint-bench: %s: %v\n", w.name, perr)
				code = 1
			case !res.Correct:
				code = 1
			}
		}
	}
	if code != 0 {
		fmt.Fprintln(stdout, "FAILED")
	}
	return code
}

// parseResultLine decodes the result object on the last line of a run's
// standard output.
func parseResultLine(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// runWorkload runs one workload in this process and reports its result.
func runWorkload(ctx context.Context, opt options, stdout, stderr io.Writer) int {
	var runFn func(context.Context, options, *tracer) (*report, error)
	for _, w := range workloads {
		if w.name == opt.workload {
			runFn = w.run
		}
	}
	if runFn == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "refrint-bench: unknown workload %q (want one of %s)\n", opt.workload, strings.Join(names, ", "))
		return 2
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	rep, err := runFn(ctx, opt, tr)
	if err != nil {
		fmt.Fprintf(stderr, "refrint-bench: %s: %v\n", opt.workload, err)
		return 1
	}
	if tr != nil {
		rep.attempted++
		if err := checkSpans(tr.spans); err != nil {
			rep.fail("span tree: %v", err)
		}
	}
	res := rep.result(opt.trace)
	if err := writeFiles(opt, rep, res, tr); err != nil {
		fmt.Fprintf(stderr, "refrint-bench: %v\n", err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "check failed:", f)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "host slowdown %.4g; values at the reference host speed, then as measured\n", rep.slowdown)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-36s %14.6g %-10s %14.6g\n", d.name, res.Metrics[d.name].Value, d.unit, rep.raw[d.name].Value)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "refrint-bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints on its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload measured and checked.
type report struct {
	e2e   map[string]float64
	layer map[string]float64
	// attempted counts operations (cells, sweeps, requests and jobs) and
	// stand-alone checks; failed counts those that failed, an operation
	// failing at most once.
	attempted, failed int
	failures          []string
	storeDir          string
	// cal calibrates the run against the host's speed; result fills in
	// slowdown and the metrics as measured, before calibration, in raw.
	cal      *calibrator
	slowdown float64
	raw      map[string]metric
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64), cal: newCalibrator()}
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// failAll records one failed operation for a list of problems found in it.
func (r *report) failAll(op string, problems []string) {
	if len(problems) > 0 {
		r.fail("%s: %s", op, strings.Join(problems, "; "))
	}
}

// result assembles the reported metrics: every end-to-end metric, which
// must have been measured and be positive, or every per-layer metric.
// Host times and rates are calibrated to the reference host speed.
func (r *report) result(trace bool) result {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
	}
	r.slowdown = r.cal.slowdown()
	metrics := make(map[string]metric, len(defs))
	r.raw = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.fail("metric %s is %v", d.name, v)
			v = 0
		case !trace && (!ok || v <= 0):
			r.fail("metric %s was not measured", d.name)
		}
		r.raw[d.name] = metric{Value: v, Unit: d.unit}
		metrics[d.name] = metric{Value: v * hostScale(d.unit, r.slowdown), Unit: d.unit}
	}
	if r.failed > r.attempted {
		r.attempted = r.failed
	}
	return result{
		Correct:   r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   metrics,
	}
}

// hostScale is the factor that calibrates a metric in the given unit to the
// reference host speed: a slow host reads times high and rates low.
func hostScale(unit string, slowdown float64) float64 {
	switch unit {
	case "1/s":
		return slowdown
	case "s", "ms", "ns/ref":
		return 1 / slowdown
	}
	return 1
}

// provenance records what produced a result file.
type provenance struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GitCommit  string  `json:"git_commit"`
	GitDirty   bool    `json:"git_dirty"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	StoreDir   string  `json:"store_dir,omitempty"`
	// HostSlowdown is the calibration loop's median time over its
	// reference time; the reported metrics are divided or multiplied by it.
	HostSlowdown float64 `json:"host_slowdown"`
}

// resultFile is the document written for every run.
type resultFile struct {
	Workload   string     `json:"workload"`
	Provenance provenance `json:"provenance"`
	Failures   []string   `json:"failures,omitempty"`
	Result     result     `json:"result"`
	// RawMetrics are the metrics as measured, before host calibration.
	RawMetrics map[string]metric `json:"raw_metrics"`
}

func newProvenance(opt options, rep *report) provenance {
	p := provenance{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GitCommit:    "unknown",
		Seed:         opt.seed,
		Scale:        opt.scale,
		Seconds:      opt.seconds,
		Trace:        btoi(opt.trace),
		StoreDir:     rep.storeDir,
		HostSlowdown: rep.slowdown,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				p.GitCommit = kv.Value
			case "vcs.modified":
				p.GitDirty = kv.Value == "true"
			}
		}
	}
	return p
}

// cpuModel returns the host CPU's model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeFiles writes the result file and, for a traced run, the span file.
func writeFiles(opt options, rep *report, res result, tr *tracer) error {
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(opt.outDir, fmt.Sprintf("%s-seed%d-trace%d-%d", opt.workload, opt.seed, btoi(opt.trace), time.Now().UnixNano()))
	doc := resultFile{
		Workload:   opt.workload,
		Provenance: newProvenance(opt, rep),
		Failures:   rep.failures,
		Result:     res,
		RawMetrics: rep.raw,
	}
	if err := writeJSON(stem+".json", doc); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return writeJSON(stem+".spans.json", spanFile{Workload: opt.workload, Seed: opt.seed, Spans: tr.withSelfTimes()})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// maxRSSMB returns this process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
