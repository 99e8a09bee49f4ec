package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that compare applies.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain implements `refrint-bench compare A... -- B...`: it reads two
// sets of result files, A (the parent) and B (the change), and applies the
// BENCHMARK.json bounds to every (workload, end-to-end metric) row.
func compareMain(args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split <= 0 || split == len(args)-1 {
		fmt.Fprintln(stderr, "usage: refrint-bench compare A.json... -- B.json...")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "refrint-bench:", err)
		return 1
	}
	var bench benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		fmt.Fprintln(stderr, "refrint-bench: reading BENCHMARK.json:", err)
		return 1
	}
	a, err := loadResults(args[:split])
	if err != nil {
		fmt.Fprintln(stderr, "refrint-bench:", err)
		return 1
	}
	b, err := loadResults(args[split+1:])
	if err != nil {
		fmt.Fprintln(stderr, "refrint-bench:", err)
		return 1
	}

	names := make([]string, 0, len(a))
	for w := range a {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-16s %-14s %30s %30s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	worse := false
	for _, w := range names {
		for _, m := range bench.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			higher := m.Better == "higher"
			v := verdict(va, vb, m.Bound, higher)
			worse = worse || v == "worse"
			q1a, meda, q3a := quartiles(va)
			q1b, medb, q3b := quartiles(vb)
			fmt.Fprintf(stdout, "%-16s %-14s %30s %30s %+7.2f%% %6.3f  %s\n", w, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", meda, q1a, q3a),
				fmt.Sprintf("%.5g [%.5g, %.5g]", medb, q1b, q3b),
				100*(ratio(medb, meda)-1), m.Bound, v)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// loadResults reads untraced result files into workload -> metric -> values.
func loadResults(paths []string) (map[string]map[string][]float64, error) {
	out := make(map[string]map[string][]float64)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if f.Workload == "" || f.Provenance.Trace != 0 {
			continue
		}
		if out[f.Workload] == nil {
			out[f.Workload] = make(map[string][]float64)
		}
		for name, m := range f.Result.Metrics {
			out[f.Workload][name] = append(out[f.Workload][name], m.Value)
		}
	}
	return out, nil
}

// verdict compares the change's values b with the parent's values a.  The
// change is worse when its median is worse by more than the bound, better
// when it is better by more than the bound or every run of it beats every
// run of the parent, and unresolved when either side's spread (the distance
// between its quartiles, as a share of its median) is wider than the bound.
func verdict(a, b []float64, bound float64, higherIsBetter bool) string {
	gain := func(x, base float64) float64 { // positive when x is better than base
		if higherIsBetter {
			return ratio(x, base) - 1
		}
		return 1 - ratio(x, base)
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if gain(x, y) <= 0 {
				allBetter = false
			}
		}
	}
	_, medA, _ := quartiles(a)
	_, medB, _ := quartiles(b)
	g := gain(medB, medA)
	switch {
	case allBetter && g > 0:
		return "better"
	case spread(a) > bound || spread(b) > bound:
		return "unresolved"
	case g < -bound:
		return "worse"
	case g > bound:
		return "better"
	default:
		return "same"
	}
}

// quartiles returns the first quartile, median and third quartile with the
// method of Python's statistics.quantiles(values, n=4) (exclusive).
func quartiles(values []float64) (q1, median, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	return math.Abs(ratio(q3-q1, med))
}

// percentile returns the p-th percentile of values, interpolating linearly
// between the nearest ranks; 0 for no values.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	pos := p / 100 * float64(len(d)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(d)-1)
	return d[lo] + (d[hi]-d[lo])*(pos-float64(lo))
}

func sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
