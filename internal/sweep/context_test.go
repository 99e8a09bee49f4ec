package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"refrint/internal/config"
	"refrint/internal/sim"
)

// smallOptions is a real but fast sweep: 1 app x (1 policy + baseline).
func smallOptions(seed int64) Options {
	return Options{
		Apps:             []string{"FFT"},
		RetentionTimesUS: []float64{50},
		Policies:         []config.Policy{config.RefrintValid},
		EffortScale:      0.05,
		Seed:             seed,
		Workers:          2,
	}
}

// TestExecuteContextProgress verifies every simulation reports exactly one
// progress callback with a consistent total, and that the final count
// reaches the sweep size.
func TestExecuteContextProgress(t *testing.T) {
	opts := Options{
		Apps:             []string{"FFT", "LU"},
		RetentionTimesUS: []float64{50},
		Policies:         []config.Policy{config.RefrintValid, config.PeriodicAll},
		EffortScale:      0.05,
		Seed:             1,
		Workers:          4,
	}
	want := opts.Size()
	if want != 6 { // 2 apps x (2 policies + baseline)
		t.Fatalf("Size() = %d, want 6", want)
	}

	var mu sync.Mutex
	var calls int
	maxDone := 0
	res, err := ExecuteContext(context.Background(), opts, func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if p.Total != want {
			t.Errorf("progress total = %d, want %d", p.Total, want)
		}
		if p.Done < 1 || p.Done > want {
			t.Errorf("progress done = %d out of range [1,%d]", p.Done, want)
		}
		if p.Done > maxDone {
			maxDone = p.Done
		}
	})
	if err != nil {
		t.Fatalf("ExecuteContext: %v", err)
	}
	if res == nil {
		t.Fatal("nil results")
	}
	if calls != want || maxDone != want {
		t.Fatalf("progress calls = %d (max done %d), want %d", calls, maxDone, want)
	}
}

// TestExecuteContextCancel verifies a cancelled context stops the sweep
// early with ctx.Err() and without waiting for the remaining simulations.
func TestExecuteContextCancel(t *testing.T) {
	// A sweep big enough that it cannot finish before the cancel lands.
	opts := DefaultOptions()
	opts.EffortScale = 0.25
	opts.Workers = 2

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	start := time.Now()
	res, err := ExecuteContext(ctx, opts, func(Progress) {
		once.Do(cancel) // cancel as soon as the first simulation completes
	})
	if err != context.Canceled {
		t.Fatalf("ExecuteContext = (%v, %v), want context.Canceled", res, err)
	}
	if res != nil {
		t.Fatal("cancelled sweep returned partial results")
	}
	// Generous bound: the full sweep takes far longer than two simulations.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v, expected early exit", elapsed)
	}
}

// TestExecuteWorkersRace exercises the result-aggregation paths with many
// workers; run under -race this is the sweep-level data-race check, and it
// also pins worker-count independence of the results.
func TestExecuteWorkersRace(t *testing.T) {
	opts := smallOptions(1)
	opts.Apps = []string{"FFT", "LU", "Blackscholes"}
	opts.Workers = 8

	var progressCalls atomic.Int64
	parallel, err := ExecuteContext(context.Background(), opts, func(Progress) { progressCalls.Add(1) })
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	if got := int(progressCalls.Load()); got != opts.Size() {
		t.Fatalf("progress calls = %d, want %d", got, opts.Size())
	}

	serialOpts := opts
	serialOpts.Workers = 1
	serial, err := Execute(serialOpts)
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}

	// Every cell, not just the baselines: the workers share the pool of
	// reused simulators, so each result must match the serial run's.
	for _, app := range opts.Apps {
		for _, pt := range append([]Point{{Policy: config.SRAMBaseline}}, parallel.Points...) {
			p, ok1 := parallel.Lookup(app, pt)
			s, ok2 := serial.Lookup(app, pt)
			if !ok1 || !ok2 {
				t.Fatalf("missing %s %s (parallel %v, serial %v)", app, pt.Key(), ok1, ok2)
			}
			if !reflect.DeepEqual(p.Result, s.Result) {
				t.Errorf("%s %s differs across worker counts: cycles %d vs %d", app, pt.Key(), p.Result.Cycles, s.Result.Cycles)
			}
		}
	}
	if parallel.Options.Key() != serial.Options.Key() {
		t.Errorf("worker count leaked into the key: %q vs %q", parallel.Options.Key(), serial.Options.Key())
	}
}

// TestRunCellYieldParksAndResumes pins the Parked contract: a cell whose
// context is cancelled with ErrYield comes back as a *Parked, which resumes
// — after further yields, on other goroutines — to exactly the Run of an
// uninterrupted RunCell, offering the result to CellPut once.  A plain
// cancellation still returns the context's error.
func TestRunCellYieldParksAndResumes(t *testing.T) {
	opts := smallOptions(19)
	c := Cells(opts)[1] // R.valid at 50 us
	want, err := RunCell(context.Background(), opts, c)
	if err != nil {
		t.Fatal(err)
	}

	var puts atomic.Int32
	opts.CellPut = func(k CellKey, _ sim.Result) {
		if k != c.Key {
			t.Errorf("CellPut key %v, want %v", k, c.Key)
		}
		puts.Add(1)
	}
	// slice runs one RunCell or Resume on its own goroutine, yielding after
	// the given delay.
	slice := func(delay time.Duration, run func(context.Context) (Run, error)) (Run, error) {
		ctx, yield := context.WithCancelCause(context.Background())
		defer yield(nil)
		timer := time.AfterFunc(delay, func() { yield(ErrYield) })
		defer timer.Stop()
		type out struct {
			run Run
			err error
		}
		ch := make(chan out, 1)
		go func() {
			r, err := run(ctx)
			ch <- out{r, err}
		}()
		o := <-ch
		return o.run, o.err
	}
	run, err := slice(0, func(ctx context.Context) (Run, error) { return RunCell(ctx, opts, c) })
	parks := 0
	for {
		var p *Parked
		if !errors.As(err, &p) {
			break
		}
		parks++
		run, err = slice(time.Duration(parks)*time.Millisecond, p.Resume)
	}
	if err != nil {
		t.Fatalf("resumed cell: %v", err)
	}
	if parks == 0 {
		t.Fatal("a cell yielded at once never parked")
	}
	if !reflect.DeepEqual(run, want) {
		t.Fatalf("cell resumed after %d parks differs from an uninterrupted run:\n got %+v\nwant %+v", parks, run, want)
	}
	if n := puts.Load(); n != 1 {
		t.Errorf("CellPut called %d times, want 1", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCell(ctx, opts, c); !errors.Is(err, context.Canceled) {
		t.Errorf("RunCell(cancelled) error = %v, want context.Canceled", err)
	}
}

// yieldAtPoll is a context cancelled with ErrYield whose Err reports nil
// on every other call, starting with the first.  A simulation reads Err
// once at the start of each slice and once when it stops, so each slice
// under it runs to its first poll point and parks there.
type yieldAtPoll struct {
	context.Context
	calls int
}

func (c *yieldAtPoll) Err() error {
	if c.calls++; c.calls%2 == 1 {
		return nil
	}
	return c.Context.Err()
}

// TestParkedCellLeavesNoGoroutine checks that a cell's reference producer
// lives only while its simulation runs: a cell parked mid-run, a System
// back on the idle list and a resumed cell leave no goroutine behind.
func TestParkedCellLeavesNoGoroutine(t *testing.T) {
	opts := smallOptions(19)
	c := Cells(opts)[1] // R.valid at 50 us
	want, err := RunCell(context.Background(), opts, c)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	settle := func(after string) {
		t.Helper()
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines live, want at most %d", after, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}

	yield, cancel := context.WithCancelCause(context.Background())
	cancel(ErrYield)
	_, err = RunCell(&yieldAtPoll{Context: yield}, opts, c)
	var p *Parked
	if !errors.As(err, &p) {
		t.Fatalf("RunCell error = %v, want a *Parked", err)
	}
	settle("a park mid-run")
	type out struct {
		run Run
		err error
	}
	ch := make(chan out)
	go func() {
		run, err := p.Resume(context.Background())
		ch <- out{run, err}
	}()
	o := <-ch
	if o.err != nil {
		t.Fatalf("Resume: %v", o.err)
	}
	if !reflect.DeepEqual(o.run, want) {
		t.Fatalf("cell parked mid-run and resumed on another goroutine differs from an uninterrupted run:\n got %+v\nwant %+v", o.run, want)
	}
	settle("a resumed cell")
}
