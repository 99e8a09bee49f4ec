package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"refrint/internal/config"
	"refrint/internal/workload"
)

// slice is the outcome of one RunContext call of a sliced run.
type slice struct {
	res Result
	err error
}

// slicedRun runs s to completion in slices, each a RunContext call on a
// goroutine of its own.  The first yields slices run under a context that a
// timer cancels after the matching delay, so each stops at whichever poll
// point follows; later slices run uncancelled.  It returns the Result and
// the references issued at each stop, in order.
func slicedRun(t testing.TB, s *System, delays []time.Duration) (Result, []int64) {
	t.Helper()
	var stops []int64
	for i := 0; ; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i < len(delays) {
			timer := time.AfterFunc(delays[i], cancel)
			defer timer.Stop()
		}
		out := make(chan slice, 1)
		go func() {
			res, err := s.RunContext(ctx)
			out <- slice{res, err}
		}()
		got := <-out
		cancel()
		if got.err == nil {
			return got.res, stops
		}
		if !errors.Is(got.err, context.Canceled) {
			t.Fatalf("slice %d: RunContext error = %v, want context.Canceled", i, got.err)
		}
		if got.res.Stats != nil {
			t.Fatalf("slice %d: a stopped run returned a result", i)
		}
		stops = append(stops, issuedRefs(s))
	}
}

// resumeCase runs c uninterrupted on a fresh System, then sliced on a reused
// one with delays drawn below the uninterrupted run's duration divided by
// the number of yields, so the yields fall mid-run.  It fails unless both
// give the identical Result, and returns the references issued at each
// stop together with the cell's total.
func resumeCase(t testing.TB, s *System, c resetCell, yields int, rng *rand.Rand) ([]int64, int64) {
	t.Helper()
	fresh, err := New(c.config(), c.params(t), c.seed)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	want := fresh.Run()
	span := time.Since(start) / time.Duration(yields)
	delays := make([]time.Duration, yields)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(span) + 1))
	}
	if err := s.Reset(c.config(), c.params(t), c.seed); err != nil {
		t.Fatal(err)
	}
	got, stops := slicedRun(t, s, delays)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v: run resumed after stops at %v references differs from an uninterrupted run:\n got %+v\nwant %+v",
			c, stops, got, want)
	}
	return stops, want.Stats.MemOps
}

// TestRunContextResumeMatchesRun is the resume contract: a run stopped by
// its context at random poll points, 1 to 5 times, and resumed each time on
// another goroutine gives exactly the Result of an uninterrupted Run.  It
// covers every policy and the SRAM baseline, over random applications,
// retention times, seeds and efforts, on one reused System.
func TestRunContextResumeMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	extra := 10
	if testing.Short() {
		extra = 2
	}
	var seq []resetCell
	for _, p := range resetPolicies {
		c := randomResetCell(rng)
		c.policy, c.geometry = p, 0
		seq = append(seq, c)
	}
	for i := 0; i < extra; i++ {
		seq = append(seq, randomResetCell(rng))
	}
	s := new(System)
	var yields, midRun int
	for _, c := range seq {
		stops, total := resumeCase(t, s, c, 1+rng.Intn(5), rng)
		yields += len(stops)
		for _, n := range stops {
			if n > 0 && n < total {
				midRun++
			}
		}
	}
	t.Logf("%d cells, %d stops, %d of them mid-run", len(seq), yields, midRun)
	if midRun < len(seq)/2 {
		t.Errorf("only %d stops fell mid-run over %d cells: the contract was barely exercised", midRun, len(seq))
	}
}

// TestRunContextResumeAfterStopAtStart pins the edge of the poll schedule:
// a context already cancelled stops the run before its first reference,
// and the next call still runs the whole cell.
func TestRunContextResumeAfterStopAtStart(t *testing.T) {
	c := resetCell{app: "LU", policy: config.RefrintWB(32, 32), retentionUS: 50, seed: 3, effort: 0.05}
	s, err := New(c.config(), c.params(t), c.seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2; i++ {
		if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext(cancelled) error = %v, want context.Canceled", err)
		}
	}
	if n := issuedRefs(s); n != 0 {
		t.Fatalf("a run stopped at its start issued %d references", n)
	}
	if got, want := s.Run(), freshResult(t, c); !reflect.DeepEqual(got, want) {
		t.Fatalf("run after two stops at the start differs from a fresh run:\n got %+v\nwant %+v", got, want)
	}
}

// FuzzResumeMatchesRun stops a fuzzed cell's run up to five times, at
// delays drawn from a fuzzed seed, and compares the resumed Result with an
// uninterrupted run's.
func FuzzResumeMatchesRun(f *testing.F) {
	f.Add(uint8(0), uint8(13), uint8(0), int64(1), uint8(1), int64(1))
	f.Add(uint8(3), uint8(14), uint8(2), int64(7), uint8(5), int64(2))
	f.Add(uint8(8), uint8(4), uint8(1), int64(42), uint8(3), int64(3))
	f.Fuzz(func(t *testing.T, app, pol, ret uint8, seed int64, yields uint8, delaySeed int64) {
		apps := workload.AppNames()
		c := resetCell{
			app:         apps[int(app)%len(apps)],
			policy:      resetPolicies[int(pol)%len(resetPolicies)],
			retentionUS: config.RetentionTimesUS()[int(ret)%3],
			seed:        seed,
			effort:      0.05,
		}
		resumeCase(t, new(System), c, 1+int(yields)%5, rand.New(rand.NewSource(delaySeed)))
	})
}
