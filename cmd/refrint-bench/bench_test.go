package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkMetrics is the metric lists of BENCHMARK.json.
type benchmarkMetrics struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkMetrics {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkMetrics
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smoke runs one workload at smoke size and checks its result: every metric
// BENCHMARK.json names for the run is emitted with its unit, nothing failed,
// and a traced run's span tree is well formed.
func smoke(t *testing.T, workload string, trace bool, extra ...string) {
	t.Helper()
	out := t.TempDir()
	args := append([]string{
		"-workload", workload, "-seed", "1", "-seconds", "0.2", "-scale", "0.02",
		"-trace", map[bool]string{false: "0", true: "1"}[trace], "-out", out,
	}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%v: exit %d\n%s", workload, trace, code, stderr.String())
	}
	res, err := parseResultLine(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	bench := readBenchmark(t)
	want := bench.EndToEnd
	if trace {
		want = bench.PerLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", workload, trace, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", workload, trace, m.Name, got, ok, m.Unit)
		}
	}
	if !trace {
		return
	}
	files, err := filepath.Glob(filepath.Join(out, "*.spans.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("%s: span files %v (%v)", workload, files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var sf spanFile
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatal(err)
	}
	if len(sf.Spans) == 0 {
		t.Fatalf("%s: no spans recorded", workload)
	}
	if err := checkSpans(sf.Spans); err != nil {
		t.Errorf("%s: %v", workload, err)
	}
	for _, s := range sf.Spans {
		if s.Self < 0 {
			t.Errorf("%s: span %d (%s) has self time %d", workload, s.ID, s.Name, s.Self)
		}
	}
}

func TestSimulatorWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		if w.name == "service-mixed" {
			continue // TestServiceMixedSmoke
		}
		for _, trace := range []bool{false, true} {
			smoke(t, w.name, trace)
		}
	}
}

func TestServiceMixedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts refrint-serve")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(context.Background(), root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		smoke(t, "service-mixed", trace, "-server", bin, "-store-dir", t.TempDir())
	}
}

// TestCorruptedDigestFails checks that a pinned digest is really compared:
// the same run that passes against the committed digests fails, and exits
// non-zero, once the digest of its first cell is corrupted.
func TestCorruptedDigestFails(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(root, "cmd", "refrint-bench", "testdata", "expected.json")
	exp, err := loadExpected(good)
	if err != nil {
		t.Fatal(err)
	}
	key := streamRefrint.cells(1, 1)[0].String()
	if _, ok := exp[key]; !ok {
		t.Fatalf("no digest pinned for %s", key)
	}
	exp[key] = strings.Repeat("0", 24)
	bad := filepath.Join(t.TempDir(), "expected.json")
	if err := writeJSON(bad, exp); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		expected string
		wantOK   bool
	}{{good, true}, {bad, false}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "stream-refrint", "-seed", "1", "-seconds", "0",
			"-expected", tc.expected, "-out", t.TempDir()}, &stdout, &stderr)
		res, err := parseResultLine(stdout.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if (code == 0) != tc.wantOK || res.Correct != tc.wantOK || (res.Failed == 0) != tc.wantOK {
			t.Errorf("expected=%s: exit %d, correct=%v, failed=%d; want ok=%v\n%s",
				tc.expected, code, res.Correct, res.Failed, tc.wantOK, stderr.String())
		}
		if !tc.wantOK && !strings.Contains(stderr.String(), key) {
			t.Errorf("the failure does not name the corrupted cell %s:\n%s", key, stderr.String())
		}
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bench := readBenchmark(t)
	for _, tc := range []struct {
		defs []metricDef
		want []struct{ Name, Unit string }
	}{{endToEnd, bench.EndToEnd}, {perLayer, bench.PerLayer}} {
		if len(tc.defs) != len(tc.want) {
			t.Fatalf("the program defines %d metrics, BENCHMARK.json %d", len(tc.defs), len(tc.want))
		}
		for i, d := range tc.defs {
			if d.name != tc.want[i].Name || d.unit != tc.want[i].Unit {
				t.Errorf("metric %d: program %s %s, BENCHMARK.json %s %s", i, d.name, d.unit, tc.want[i].Name, tc.want[i].Unit)
			}
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4),
// which the spread of a metric across runs is defined with.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(tc.in)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
