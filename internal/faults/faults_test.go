package faults

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseEmpty(t *testing.T) {
	inj, err := Parse("")
	if err != nil || inj != nil {
		t.Fatalf("Parse(\"\") = %v, %v; want nil, nil", inj, err)
	}
	inj, err = Parse("   ")
	if err != nil || inj != nil {
		t.Fatalf("Parse(blank) = %v, %v; want nil, nil", inj, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"store.put",                  // missing mode
		":error",                     // empty point
		"store.put:explode",          // unknown mode
		"store.put:error:2",          // rate out of range
		"store.put:error:-0.1",       // negative rate
		"store.put:error:abc",        // non-numeric rate
		"store.put:error:0.5:0.5",    // error takes one arg
		"sim.run:latency",            // latency needs a duration
		"sim.run:latency:nope",       // bad duration
		"sim.run:latency:-5ms",       // negative duration
		"sim.run:latency:5ms:7",      // rate out of range
		"sim.run:latency:5ms:0.5:oh", // too many args
		"store.put:error:NaN",        // NaN rate
		"store.put:latency:1ms:NaN",  // NaN rate
		"sim.rn:panic",               // unknown point
		"store.pt:error",             // unknown point
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

// TestParseRetiredPoint pins that exec.latency, folded into sim.run (whose
// latency mode covers it), is an unknown point rather than an alias.
func TestParseRetiredPoint(t *testing.T) {
	_, err := Parse("exec.latency:latency:1ms")
	if err == nil || !strings.Contains(err.Error(), `unknown point "exec.latency"`) {
		t.Fatalf("Parse(exec.latency) = %v, want the unknown-point error", err)
	}
}

func TestParseMultiRule(t *testing.T) {
	inj, err := Parse("store.put:error:0.5, sim.run:latency:10ms:0.1 ,store.put:panic")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := len(inj.rules[StorePut]); got != 2 {
		t.Fatalf("store.put rules = %d, want 2", got)
	}
	if got := len(inj.rules[SimRun]); got != 1 {
		t.Fatalf("sim.run rules = %d, want 1", got)
	}
}

func TestDisabledFastPath(t *testing.T) {
	Disable()
	if current.Load() != nil {
		t.Fatal("Active() with no injector")
	}
	if err := Check(StorePut); err != nil {
		t.Fatalf("Check with no injector: %v", err)
	}
	if err := CheckCtx(context.Background(), SimRun); err != nil {
		t.Fatalf("CheckCtx with no injector: %v", err)
	}
}

func TestErrorMode(t *testing.T) {
	inj, err := Parse("store.put:error")
	if err != nil {
		t.Fatal(err)
	}
	Enable(inj)
	t.Cleanup(Disable)

	if current.Load() == nil {
		t.Fatal("Active() = false with injector installed")
	}
	err = Check(StorePut)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Check(store.put) = %v, want ErrInjected", err)
	}
	// Other points are unaffected.
	if err := Check(StoreGet); err != nil {
		t.Fatalf("Check(store.get) = %v, want nil", err)
	}
}

func TestPanicMode(t *testing.T) {
	inj, err := Parse("sim.run:panic")
	if err != nil {
		t.Fatal(err)
	}
	Enable(inj)
	t.Cleanup(Disable)

	defer func() {
		if recover() == nil {
			t.Fatal("Check(sim.run) did not panic")
		}
	}()
	_ = Check(SimRun)
}

func TestZeroRateNeverFires(t *testing.T) {
	inj, err := Parse("store.put:error:0")
	if err != nil {
		t.Fatal(err)
	}
	Enable(inj)
	t.Cleanup(Disable)

	for i := 0; i < 1000; i++ {
		if err := Check(StorePut); err != nil {
			t.Fatalf("rate-0 rule fired: %v", err)
		}
	}
}

func TestPartialRateFiresSometimes(t *testing.T) {
	inj, err := Parse("store.put:error:0.5")
	if err != nil {
		t.Fatal(err)
	}
	Enable(inj)
	t.Cleanup(Disable)

	var hits int
	for i := 0; i < 2000; i++ {
		if Check(StorePut) != nil {
			hits++
		}
	}
	// P(hits outside [1,1999]) at p=0.5 is astronomically small.
	if hits == 0 || hits == 2000 {
		t.Fatalf("rate-0.5 rule fired %d/2000 times", hits)
	}
}

func TestLatencyMode(t *testing.T) {
	inj, err := Parse("sim.run:latency:30ms")
	if err != nil {
		t.Fatal(err)
	}
	Enable(inj)
	t.Cleanup(Disable)

	start := time.Now()
	if err := Check(SimRun); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("latency injection slept %v, want >= 30ms", d)
	}
}

func TestLatencyRespectsContext(t *testing.T) {
	inj, err := Parse("sim.run:latency:10s")
	if err != nil {
		t.Fatal(err)
	}
	Enable(inj)
	t.Cleanup(Disable)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = CheckCtx(ctx, SimRun)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CheckCtx = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled latency injection still slept %v", d)
	}
}

func TestEnableEmptyIsDisable(t *testing.T) {
	Enable(&Injector{rules: map[string][]rule{}})
	if current.Load() != nil {
		t.Fatal("empty injector should normalize to disabled")
	}
}
