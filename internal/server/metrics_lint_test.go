package server

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"refrint"
)

// Exposition-format lint for the hand-rolled /metrics renderer.  The server
// emits Prometheus text format without a client library, so nothing else
// guards the format as metrics are added; this test parses a fully-populated
// exposition line by line and enforces the structural rules scrapers rely
// on.  It is the one check of the /metrics contract (scripts/metrics-smoke.sh
// repeats parts of it against a real binary): every family is named
// refrint_[a-z0-9_]* and has both a HELP and a TYPE line.  So that a family
// the populated server never renders cannot escape, it also reads the
// package's source and requires every refrint_ name in a string literal to
// be a family of the scrape.

var (
	metricNameRe = regexp.MustCompile(`^refrint_[a-z0-9_]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// sampleRe splits a sample line into name, optional {labels}, value.
	// Label values may contain braces (route="GET /v1/sweeps/{id}"), so the
	// label block is matched greedily up to the final "} value".
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$`)
	// labelPairRe matches one key="value" pair (values are quote-escaped and
	// may contain anything but an unescaped quote — including braces and
	// commas).
	labelPairRe = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// baseFamily strips the histogram sample suffixes so _bucket/_sum/_count
// lines resolve to the TYPE declaration that covers them.
func baseFamily(name string, histograms map[string]bool) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && histograms[base] {
			return base
		}
	}
	return name
}

// populatedMetrics boots a server with every subsystem active — store,
// quotas, SSE, executed + cache-hit + cancelled jobs, batches — and returns
// its /metrics exposition, so the lint sees every family the server can emit.
func populatedMetrics(t *testing.T) string {
	t.Helper()
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	h := newHarness(t, Config{Store: st, ClientRate: 1000, ClientBurst: 1000})

	done, _ := h.submit(tinyRequest(1))
	h.waitState(done.ID, StateDone)
	h.submit(tinyRequest(1)) // cache hit
	pending, _ := h.submit(tinyRequest(2))
	h.do("DELETE", "/v1/sweeps/"+pending.ID, nil, nil)
	var bv BatchView
	h.do("POST", "/v1/batches", BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(3), tinyRequest(4)},
	}, &bv)
	h.waitBatchState(bv.ID, StateDone)
	h.getText("/nope")    // populate the unrouted HTTP series
	h.getText("/v1/sims") // and a routed one beyond the sweep endpoints
	return h.metricsText()
}

func TestMetricsExpositionLint(t *testing.T) {
	text := populatedMetrics(t)

	help := map[string]bool{}
	typed := map[string]string{}
	histograms := map[string]bool{}
	var samples []string

	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, helpText, ok := strings.Cut(rest, " ")
			if !ok || helpText == "" {
				t.Errorf("line %d: HELP without text: %q", i+1, line)
				continue
			}
			if !metricNameRe.MatchString(name) {
				t.Errorf("line %d: HELP for invalid metric name %q", i+1, name)
			}
			if help[name] {
				t.Errorf("line %d: duplicate HELP for %q", i+1, name)
			}
			help[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Errorf("line %d: malformed TYPE: %q", i+1, line)
				continue
			}
			name, kind := fields[0], fields[1]
			if !metricNameRe.MatchString(name) {
				t.Errorf("line %d: TYPE for invalid metric name %q", i+1, name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("line %d: unknown TYPE %q for %q", i+1, kind, name)
			}
			if _, dup := typed[name]; dup {
				t.Errorf("line %d: duplicate TYPE declaration for %q", i+1, name)
			}
			typed[name] = kind
			if kind == "histogram" {
				histograms[name] = true
			}
		case strings.HasPrefix(line, "#"):
			// Comments other than HELP/TYPE are legal; nothing to check.
		default:
			samples = append(samples, line)
		}
	}

	seen := map[string]bool{}
	for _, line := range samples {
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		if _, err := strconv.ParseFloat(value, 64); err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
			t.Errorf("sample %q: unparseable value %q", name, value)
		}
		if labels != "" {
			interior := labels[1 : len(labels)-1]
			pairs := labelPairRe.FindAllStringSubmatch(interior, -1)
			// Reconstruct the interior from the matched pairs: anything left
			// over is an unquoted value or stray syntax the matcher skipped.
			rebuilt := make([]string, 0, len(pairs))
			for _, lm := range pairs {
				if !labelNameRe.MatchString(lm[1]) {
					t.Errorf("sample %q: invalid label name %q", name, lm[1])
				}
				rebuilt = append(rebuilt, lm[0])
			}
			if strings.Join(rebuilt, ",") != interior {
				t.Errorf("sample %q: malformed label block %q (values must be quoted, pairs comma-separated)", name, labels)
			}
		}
		seen[baseFamily(name, histograms)] = true
	}

	// Every sample belongs to a declared family, HELP and TYPE both.
	families := make([]string, 0, len(seen))
	for f := range seen {
		families = append(families, f)
	}
	sort.Strings(families)
	for _, f := range families {
		if !help[f] {
			t.Errorf("family %q has samples but no HELP", f)
		}
		if _, ok := typed[f]; !ok {
			t.Errorf("family %q has samples but no TYPE", f)
		}
	}
	// And the other direction: no orphan declarations.
	for f := range typed {
		if !seen[f] {
			t.Errorf("family %q declared but emits no samples", f)
		}
	}

	// The documented families must all be present...
	for _, f := range []string{
		"refrint_http_request_seconds",
		"refrint_sched_wait_seconds",
		"refrint_exec_seconds",
		"refrint_build_info",
		"refrint_goroutines",
		"refrint_gomaxprocs",
		"refrint_heap_alloc_bytes",
		"refrint_gc_pause_seconds_total",
		"refrint_store_entries",
		"refrint_client_throttled_total",
		"refrint_cell_cache_misses_total",
		"refrint_cell_inflight_joins_total",
		"refrint_sweeps_queued",
		"refrint_sweep_inflight",
		"refrint_sweep_cache_hits_total",
		"refrint_store_sweep_hits_total",
		"refrint_cell_preemptions_total",
		"refrint_cells_parked",
	} {
		if !seen[f] {
			t.Errorf("fully-populated exposition missing family %q", f)
		}
	}
	// ...and cells are the only cached unit: the sweep-cache families count
	// submissions answered from stored cells and nothing else, so none of
	// the retired whole-sweep cache series (its size, its evictions) is back.
	for f := range typed {
		if strings.HasPrefix(f, "refrint_sweep_cache_") &&
			f != "refrint_sweep_cache_hits_total" && f != "refrint_sweep_cache_misses_total" {
			t.Errorf("exposition carries retired sweep-cache family %q", f)
		}
	}
	for _, f := range []string{"refrint_http_request_seconds", "refrint_sched_wait_seconds", "refrint_exec_seconds"} {
		if typed[f] != "histogram" {
			t.Errorf("family %q TYPE = %q, want histogram", f, typed[f])
		}
	}

	// Every name the renderer's source spells is a family of this scrape,
	// so a family rendered only under a condition this server never met
	// fails here instead of reaching a scraper undeclared.
	source, tests := literalMetricNames(t)
	if len(source) == 0 {
		t.Fatal("no refrint_ name in the package's non-test string literals")
	}
	for _, n := range slices.Sorted(maps.Keys(source)) {
		if _, ok := typed[n]; !ok || !help[n] {
			t.Errorf("%s: %q is not a family of the populated scrape with HELP and TYPE", source[n], n)
		}
	}
	// Names the tests spell must be well-formed too, or an assertion can
	// pass against a name the renderer could never legally emit.
	for _, n := range slices.Sorted(maps.Keys(tests)) {
		if !metricNameRe.MatchString(n) {
			t.Errorf("%s: metric name %q does not match %s", tests[n], n, metricNameRe)
		}
	}
}

// literalMetricNames parses the package's Go files and returns every
// refrint_ name token in a string literal, with the position of its first
// literal: those of the non-test files and those of the test files apart.
func literalMetricNames(t *testing.T) (source, tests map[string]string) {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Go files in the package directory: %v", err)
	}
	source, tests = map[string]string{}, map[string]string{}
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names := source
		if strings.HasSuffix(path, "_test.go") {
			names = tests
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			text, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatalf("%s: %v", fset.Position(lit.Pos()), err)
			}
			for {
				i := strings.Index(text, "refrint_")
				if i < 0 {
					break
				}
				name := nameToken(text[i:])
				if _, ok := names[name]; !ok {
					names[name] = fset.Position(lit.Pos()).String()
				}
				text = text[i+len(name):]
			}
			return true
		})
	}
	return source, tests
}

// nameToken returns the metric-name token at the start of s.  Hyphens and
// upper case are taken in on purpose: neither is legal in a name, so
// "refrint_sims-per-second" must be read whole to be rejected, not cut at
// the dash into a name that looks valid.
func nameToken(s string) string {
	i := 0
	for i < len(s) {
		c := s[i]
		if c != '_' && c != '-' && (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') && (c < '0' || c > '9') {
			break
		}
		i++
	}
	return s[:i]
}

// TestMetricsHistogramCumulative re-parses the exposition's histogram
// bucket lines and checks, per series, that counts never decrease as le
// grows, the +Inf bucket exists, and it equals the series' _count.
func TestMetricsHistogramCumulative(t *testing.T) {
	text := populatedMetrics(t)
	bucketRe := regexp.MustCompile(`(?m)^([a-zA-Z_:][a-zA-Z0-9_:]*)_bucket\{(.*?),?le="([^"]+)"\} (\d+)$`)
	countRe := regexp.MustCompile(`(?m)^([a-zA-Z_:][a-zA-Z0-9_:]*)_count(\{.*\})? (\d+)$`)

	type series struct {
		counts []uint64
		hasInf bool
		inf    uint64
	}
	buckets := map[string]*series{}
	for _, m := range bucketRe.FindAllStringSubmatch(text, -1) {
		key := m[1] + "|" + m[2]
		s := buckets[key]
		if s == nil {
			s = &series{}
			buckets[key] = s
		}
		n, err := strconv.ParseUint(m[4], 10, 64)
		if err != nil {
			t.Fatalf("bucket %q: bad count %q", key, m[4])
		}
		if m[3] == "+Inf" {
			s.hasInf, s.inf = true, n
		}
		s.counts = append(s.counts, n)
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram bucket series found")
	}
	for key, s := range buckets {
		for i := 1; i < len(s.counts); i++ {
			if s.counts[i] < s.counts[i-1] {
				t.Errorf("series %q: bucket counts not cumulative: %v", key, s.counts)
				break
			}
		}
		if !s.hasInf {
			t.Errorf("series %q: no +Inf bucket", key)
		}
	}

	counts := map[string]uint64{}
	for _, m := range countRe.FindAllStringSubmatch(text, -1) {
		labels := strings.Trim(m[2], "{}")
		n, _ := strconv.ParseUint(m[3], 10, 64)
		counts[m[1]+"|"+labels] = n
	}
	for key, s := range buckets {
		want, ok := counts[key]
		if !ok {
			t.Errorf("series %q: bucket lines without a _count line", key)
			continue
		}
		if s.inf != want {
			t.Errorf("series %q: +Inf bucket %d != _count %d", key, s.inf, want)
		}
	}

	// At least one HTTP request observed something: the scrape fetching this
	// text followed earlier requests through the middleware.
	if !strings.Contains(text, `refrint_http_request_seconds_bucket{route="GET /metrics"`) &&
		!strings.Contains(text, `refrint_http_request_seconds_bucket{route="POST /v1/sweeps"`) {
		t.Error("HTTP histogram has no routed series")
	}
	if !strings.Contains(text, fmt.Sprintf(`route=%q`, "unrouted")) {
		t.Error("HTTP histogram missing the unrouted fallback series")
	}
}
