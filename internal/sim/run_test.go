package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"refrint/internal/config"
)

// issuedRefs sums the memory references the cores have issued so far.
func issuedRefs(s *System) int64 {
	var n int64
	for _, tile := range s.tiles {
		n += tile.Core.MemOps()
	}
	return n
}

func TestRunContextCancelledStopsEarly(t *testing.T) {
	cfg := scaledEDRAM(config.RefrintWB(32, 32), config.Retention50us)
	s, err := New(cfg, quickParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	total := s.Workload().MemOpsPerThread * int64(cfg.Cores)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext(cancelled) error = %v, want context.Canceled", err)
	}
	if res.Stats != nil {
		t.Errorf("cancelled run returned a result: %+v", res)
	}
	if got := issuedRefs(s); got >= total {
		t.Errorf("cancelled run issued %d references, want fewer than the cell's %d", got, total)
	}
}

// TestRunContextMatchesRun checks that polling the context does not change
// the simulation: a context that is never cancelled, with and without a Done
// channel, gives exactly Run's result.
func TestRunContextMatchesRun(t *testing.T) {
	for _, cfg := range []config.Config{
		scaledSRAM(),
		scaledEDRAM(config.PeriodicAll, config.Retention50us),
		scaledEDRAM(config.RefrintWB(32, 32), config.Retention50us),
	} {
		want := runQuick(t, cfg, quickParams())
		cancellable, cancel := context.WithCancel(context.Background())
		for _, ctx := range []context.Context{context.Background(), cancellable} {
			s, err := New(cfg, quickParams(), 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.RunContext(ctx)
			if err != nil {
				t.Fatalf("%s: RunContext: %v", want.Policy, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: RunContext result differs from Run (Done nil: %v)", want.Policy, ctx.Done() == nil)
			}
		}
		cancel()
	}
}
