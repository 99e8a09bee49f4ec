package refrint

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"refrint/internal/workload"
)

// TestSweepRequestJSONRoundTrip verifies the wire form: a request survives
// JSON encode/decode and still resolves to the same canonical sweep key.
func TestSweepRequestJSONRoundTrip(t *testing.T) {
	req := SweepRequest{
		Preset:           "scaled",
		Apps:             []string{"FFT", "LU"},
		RetentionTimesUS: []float64{50, 100},
		Policies:         []string{"P.all", "R.WB(32,32)"},
		EffortScale:      0.5,
		Seed:             9,
		Workers:          3,
	}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded SweepRequest
	if err := json.Unmarshal(payload, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	k1, err := req.Key()
	if err != nil {
		t.Fatalf("key: %v", err)
	}
	k2, err := decoded.Key()
	if err != nil {
		t.Fatalf("decoded key: %v", err)
	}
	if k1 != k2 {
		t.Fatalf("JSON round trip changed key: %q vs %q", k1, k2)
	}
}

// TestRequestFromOptionsInverts verifies Options -> Request -> Options
// preserves the canonical key, for defaults and for a customized sweep.
func TestRequestFromOptionsInverts(t *testing.T) {
	for _, opts := range []SweepOptions{DefaultSweep(), QuickSweep()} {
		req := RequestFromOptions(opts)
		back, err := req.Options()
		if err != nil {
			t.Fatalf("RequestFromOptions(%+v).Options(): %v", opts, err)
		}
		if back.Key() != opts.Key() {
			t.Fatalf("round trip changed key: %q vs %q", back.Key(), opts.Key())
		}
	}
}

// TestSweepKeySemantics pins what the cache key must and must not depend on.
func TestSweepKeySemantics(t *testing.T) {
	base := DefaultSweep()

	zero := SweepOptions{}
	if zero.Key() != base.Key() {
		t.Errorf("zero-value options key %q differs from explicit defaults %q", zero.Key(), base.Key())
	}

	workers := base
	workers.Workers = 1
	if workers.Key() != base.Key() {
		t.Errorf("worker count changed the key: results are worker-independent")
	}

	seeded := base
	seeded.Seed = 2
	if seeded.Key() == base.Key() {
		t.Errorf("seed change did not change the key")
	}

	effort := base
	effort.EffortScale = 0.5
	if effort.Key() == base.Key() {
		t.Errorf("effort change did not change the key")
	}

	apps := base
	apps.Apps = []string{"FFT"}
	if apps.Key() == base.Key() {
		t.Errorf("app selection change did not change the key")
	}

	// Permuting the request must not change the key: overlapping sweeps
	// share cache and store slots regardless of field order.
	permuted := base
	permuted.Apps = append([]string(nil), base.Apps...)
	for i, j := 0, len(permuted.Apps)-1; i < j; i, j = i+1, j-1 {
		permuted.Apps[i], permuted.Apps[j] = permuted.Apps[j], permuted.Apps[i]
	}
	permuted.RetentionTimesUS = []float64{200, 50, 100}
	if permuted.Key() != base.Key() {
		t.Errorf("permuted options key %q differs from %q", permuted.Key(), base.Key())
	}
}

// TestSweepCellKey covers the public cell-key helper: baselines are keyed
// retention-free, every axis moves the hash, and worker count never does.
func TestSweepCellKey(t *testing.T) {
	opts := QuickSweep()

	k, err := SweepCellKey(opts, "FFT", "R.WB(32,32)", Retention50us)
	if err != nil {
		t.Fatalf("SweepCellKey: %v", err)
	}
	if k.App != "FFT" || k.RetentionUS != Retention50us || k.ConfigHash == "" {
		t.Fatalf("cell key fields wrong: %+v", k)
	}

	if _, err := SweepCellKey(opts, "FFT", "Q.bogus", Retention50us); err == nil {
		t.Error("bogus policy label accepted")
	}

	sram, err := SweepCellKey(opts, "FFT", "SRAM", Retention100us)
	if err != nil {
		t.Fatalf("SRAM cell key: %v", err)
	}
	if sram.RetentionUS != 0 {
		t.Errorf("baseline cell keyed with retention %g, want 0 (retention-free)", sram.RetentionUS)
	}

	other, _ := SweepCellKey(opts, "LU", "R.WB(32,32)", Retention50us)
	if other.Hash() == k.Hash() {
		t.Error("different app produced the same cell hash")
	}
	fast := opts
	fast.Workers = 64
	same, _ := SweepCellKey(fast, "FFT", "R.WB(32,32)", Retention50us)
	if same.Hash() != k.Hash() {
		t.Error("worker count changed a cell hash")
	}
}

// TestSweepRequestValidation rejects requests the service must never run.
func TestSweepRequestValidation(t *testing.T) {
	bad := []SweepRequest{
		{Preset: "galactic"},
		{Apps: []string{"NotAnApp"}},
		{RetentionTimesUS: []float64{0}},
		{RetentionTimesUS: []float64{-50}},
		{Policies: []string{"X.all"}},
		{Policies: []string{"SRAM"}},
		{EffortScale: -0.25},
	}
	for _, req := range bad {
		if _, err := req.Options(); err == nil {
			t.Errorf("request %+v validated, want error", req)
		}
	}
}

// TestSweepRequestRejectsUnboundedRetention checks that a retention time
// whose sentry period exceeds config.MaxSentryRetentionCycles is an error
// before a sweep is admitted: each Refrint bank would size its timing wheel
// to it.  Options never builds a chip, so the test is safe to run.
func TestSweepRequestRejectsUnboundedRetention(t *testing.T) {
	for _, req := range []SweepRequest{
		{RetentionTimesUS: []float64{1e7}},
		{RetentionTimesUS: []float64{50, 1e5}},
		{Preset: "fullsize", RetentionTimesUS: []float64{5000}},
		{RetentionTimesUS: []float64{math.Inf(1)}},
		{RetentionTimesUS: []float64{math.NaN()}},
	} {
		if _, err := req.Options(); err == nil {
			t.Errorf("retention times %v (preset %q) validated, want error", req.RetentionTimesUS, req.Preset)
		}
	}
	// The paper's retention times, and 20x its longest at full size, stay valid.
	for _, req := range []SweepRequest{
		{RetentionTimesUS: []float64{50, 100, 200}},
		{Preset: "fullsize", RetentionTimesUS: []float64{4000}},
	} {
		if _, err := req.Options(); err != nil {
			t.Errorf("retention times %v (preset %q): %v", req.RetentionTimesUS, req.Preset, err)
		}
	}
}

// TestSweepRequestRejectsOverflowingEffort checks that an effort scale
// whose per-thread reference count overflows int64, or that is not a
// finite non-negative number, is an error where a sweep starts instead of
// a sweep run at the 1000-reference floor.
func TestSweepRequestRejectsOverflowingEffort(t *testing.T) {
	var req SweepRequest
	if err := json.Unmarshal([]byte(`{"apps":["LU"],"effort_scale":1e300}`), &req); err != nil {
		t.Fatal(err)
	}
	if _, err := req.Options(); !errors.Is(err, workload.ErrEffort) {
		t.Errorf("effort_scale 1e300: Options() error %v, want ErrEffort", err)
	}
	for _, scale := range []float64{1e300, 1e15, math.Inf(1), math.NaN(), -1} {
		req := SweepRequest{Apps: []string{"LU"}, EffortScale: scale}
		if _, err := req.Options(); !errors.Is(err, workload.ErrEffort) {
			t.Errorf("effort %v: Options() error %v, want ErrEffort", scale, err)
		}
		opts := QuickSweep()
		opts.Apps = []string{"LU"}
		opts.RetentionTimesUS = []float64{50}
		opts.Policies = opts.Policies[:1]
		opts.EffortScale = scale
		if _, err := RunSweepContext(context.Background(), opts, nil); !errors.Is(err, workload.ErrEffort) {
			t.Errorf("effort %v: RunSweepContext error %v, want ErrEffort", scale, err)
		}
	}
	// A large effort whose count fits in int64 still validates.
	if _, err := (SweepRequest{Apps: []string{"LU"}, EffortScale: 1e12}).Options(); err != nil {
		t.Errorf("effort 1e12: %v", err)
	}
}

// TestSimulateRejectsNonFiniteEffort checks Simulate's effort scale: 0 is
// the default, and NaN, infinite, negative and overflowing scales are
// errors.
func TestSimulateRejectsNonFiniteEffort(t *testing.T) {
	for _, scale := range []float64{math.Inf(1), math.NaN(), -1, math.Inf(-1), 1e300} {
		_, err := Simulate(SimRequest{App: "Blackscholes", Policy: "SRAM", EffortScale: scale})
		if !errors.Is(err, workload.ErrEffort) {
			t.Errorf("effort %v: Simulate error %v, want ErrEffort", scale, err)
		}
	}
}

// TestRunSweepContextCancelled verifies the public context entry point
// surfaces cancellation.
func TestRunSweepContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSweepContext(ctx, QuickSweep(), nil)
	if err != context.Canceled {
		t.Fatalf("RunSweepContext on cancelled ctx = %v, want context.Canceled", err)
	}
}
