package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"refrint/internal/config"
	"refrint/internal/core"
	"refrint/internal/workload"
)

// resetCell is one simulation of the Reset contract tests: an application,
// a policy (SRAMBaseline for the SRAM chip) at a retention time, a seed, an
// effort and the chip geometry.
type resetCell struct {
	app         string
	policy      config.Policy
	retentionUS float64
	seed        int64
	effort      float64 // fraction of the application's per-thread references
	geometry    int     // index into resetGeometries
}

// resetGeometries are the chips the contract switches between: the scaled
// preset, the same chip with half the L3 (new L3 arrays, same tiles), and a
// 2x2 chip with four cores (new tiles).
var resetGeometries = []func(config.Config) config.Config{
	func(c config.Config) config.Config { return c },
	func(c config.Config) config.Config {
		c.L3.SizeBytes /= 2
		return c
	},
	func(c config.Config) config.Config {
		c.Cores = 4
		c.NoC.Width, c.NoC.Height = 2, 2
		c.L3.Banks = 4
		c.L3.IndexShift = 2
		c.L3.SizeBytes /= 4
		return c
	},
}

// resetPolicies are the 14 swept policies plus the SRAM baseline.
var resetPolicies = append(config.SweepPolicies(), config.SRAMBaseline)

func (c resetCell) config() config.Config {
	base := resetGeometries[c.geometry](config.Scaled())
	if c.policy == config.SRAMBaseline {
		return config.AsSRAM(base)
	}
	return config.AsEDRAM(base, c.policy, config.ScaledRetentionUS(c.retentionUS))
}

func (c resetCell) params(t testing.TB) workload.Params {
	t.Helper()
	p, err := workload.Get(c.app)
	if err != nil {
		t.Fatal(err)
	}
	p.MemOpsPerThread = int64(float64(p.MemOpsPerThread) * c.effort)
	return p
}

// randomResetCell draws a cell over every application, policy, retention
// time, seed and effort; geometry switches are rarer than the rest.
func randomResetCell(rng *rand.Rand) resetCell {
	apps := workload.AppNames()
	c := resetCell{
		app:         apps[rng.Intn(len(apps))],
		policy:      resetPolicies[rng.Intn(len(resetPolicies))],
		retentionUS: config.RetentionTimesUS()[rng.Intn(3)],
		seed:        1 + rng.Int63n(1000),
		effort:      []float64{0.05, 0.08, 0.12}[rng.Intn(3)],
	}
	if rng.Intn(6) == 0 {
		c.geometry = 1 + rng.Intn(len(resetGeometries)-1)
	}
	return c
}

// freshResult runs c on a System built by New.
func freshResult(t testing.TB, c resetCell) Result {
	t.Helper()
	s, err := New(c.config(), c.params(t), c.seed)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

// resetResult resets s to c and runs it.
func resetResult(t testing.TB, s *System, c resetCell) Result {
	t.Helper()
	if err := s.Reset(c.config(), c.params(t), c.seed); err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

// observable is what a System's accessors show before it runs: per bank
// the pending sentry deadlines and valid and dirty lines, per tile the
// directory's entries and the core's clock, and the counters.
func observable(s *System) []any {
	out := []any{*s.st}
	for _, tile := range s.tiles {
		for _, b := range []*core.Bank{tile.IL1, tile.DL1, tile.L2, tile.L3} {
			out = append(out, b.PendingRefreshWork(), b.ValidLines(), b.Cache().DirtyCount(), b.Cache().ValidCount())
		}
		out = append(out, tile.Dir.Entries(), tile.Core.Now(), tile.Core.MemOps())
	}
	return out
}

// runPartly issues up to n references through the run loop's per-reference
// work and then cancels, leaving s mid-run the way a cancelled RunContext
// does.
func runPartly(t testing.TB, s *System, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tileID := i % len(s.tiles)
		a, ok := s.app.Thread(tileID).Next()
		if !ok {
			continue
		}
		tile := s.tiles[tileID]
		tile.Core.Compute(a.Gap)
		tile.Core.CompleteMemOp(s.access(tileID, s.geom.LineOf(a.Addr), a.Type, tile.Core.Now()))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext(cancelled) error = %v, want context.Canceled", err)
	}
}

// TestResetMatchesNew is the Reset contract: a random sequence of cells run
// through one reused System gives exactly the Results of fresh New calls,
// including after a cancelled run and across geometry switches.  Before
// each run the reset System must also look fresh through its accessors:
// state that no Result shows, such as a stale sentry deadline, counts.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cells := 40
	if testing.Short() {
		cells = 12
	}
	// Every policy appears at least once, then random cells follow.
	seq := make([]resetCell, 0, cells+len(resetPolicies))
	for _, p := range resetPolicies {
		c := randomResetCell(rng)
		c.policy = p
		seq = append(seq, c)
	}
	for i := 0; i < cells; i++ {
		seq = append(seq, randomResetCell(rng))
	}
	seq[3].geometry, seq[4].geometry, seq[9].geometry = 2, 1, 2

	s := new(System)
	for i, c := range seq {
		if i%5 == 2 {
			// Cancel-then-Reset: leave s mid-run in some other cell first.
			mid := randomResetCell(rng)
			if err := s.Reset(mid.config(), mid.params(t), mid.seed); err != nil {
				t.Fatal(err)
			}
			runPartly(t, s, 1+rng.Intn(20000))
		}
		if err := s.Reset(c.config(), c.params(t), c.seed); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(c.config(), c.params(t), c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := observable(s), observable(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d %+v: a reset System differs from a fresh one before running", i, c)
		}
		if got, want := s.Run(), fresh.Run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d %+v: reused System gives\n%+v\nfresh System gives\n%+v", i, c, got, want)
		}
	}
}

// TestResetKeepsEarlierResult pins that a Result owns its Stats: running a
// second cell on the same System leaves the first Result unchanged.
func TestResetKeepsEarlierResult(t *testing.T) {
	first := resetCell{app: "FFT", policy: config.RefrintWB(32, 32), retentionUS: 50, seed: 1, effort: 0.05}
	second := resetCell{app: "LU", policy: config.PeriodicAll, retentionUS: 100, seed: 2, effort: 0.05}
	s := new(System)
	res := resetResult(t, s, first)
	want := *res.Stats
	want.PerCoreCycles = append([]int64(nil), res.Stats.PerCoreCycles...)
	resetResult(t, s, second)
	if !reflect.DeepEqual(*res.Stats, want) {
		t.Fatalf("first Result.Stats changed after a second run:\n got %+v\nwant %+v", *res.Stats, want)
	}
	if res.Stats == s.st {
		t.Fatal("Result.Stats aliases the System's live counters")
	}
}

// TestResetRejectsInvalidConfigUnchanged checks that a failed Reset leaves
// the System as it was, so it can still be reset and reused.
func TestResetRejectsInvalidConfigUnchanged(t *testing.T) {
	c := resetCell{app: "Radix", policy: config.RefrintDirty, retentionUS: 200, seed: 4, effort: 0.05}
	s := new(System)
	if err := s.Reset(c.config(), c.params(t), c.seed); err != nil {
		t.Fatal(err)
	}
	bad := c.config()
	bad.Cores = 0
	if err := s.Reset(bad, c.params(t), c.seed); err == nil {
		t.Fatal("Reset accepted an invalid config")
	}
	if got, want := s.Run(), freshResult(t, c); !reflect.DeepEqual(got, want) {
		t.Fatalf("run after a rejected Reset differs from a fresh run:\n got %+v\nwant %+v", got, want)
	}
}

// FuzzResetMatchesNew runs two fuzzed cells back to back on one System,
// optionally after a cancelled partial run, and compares each Result with a
// fresh System's.
func FuzzResetMatchesNew(f *testing.F) {
	f.Add(uint8(0), uint8(13), uint8(0), int64(1), uint8(5), uint8(14), uint8(2), int64(2), uint16(0), uint8(0))
	f.Add(uint8(3), uint8(0), uint8(1), int64(7), uint8(8), uint8(10), uint8(1), int64(7), uint16(5000), uint8(2))
	f.Fuzz(func(t *testing.T, app1, pol1, ret1 uint8, seed1 int64, app2, pol2, ret2 uint8, seed2 int64, partial uint16, geom uint8) {
		apps := workload.AppNames()
		cell := func(app, pol, ret uint8, seed int64, geometry int) resetCell {
			return resetCell{
				app:         apps[int(app)%len(apps)],
				policy:      resetPolicies[int(pol)%len(resetPolicies)],
				retentionUS: config.RetentionTimesUS()[int(ret)%3],
				seed:        seed,
				effort:      0.05,
				geometry:    geometry,
			}
		}
		cells := []resetCell{
			cell(app1, pol1, ret1, seed1, 0),
			cell(app2, pol2, ret2, seed2, int(geom)%len(resetGeometries)),
		}
		s := new(System)
		for i, c := range cells {
			if i == 1 && partial > 0 {
				runPartly(t, s, int(partial))
			}
			if got, want := resetResult(t, s, c), freshResult(t, c); !reflect.DeepEqual(got, want) {
				t.Fatalf("cell %d %+v: reused System differs from a fresh one:\n got %+v\nwant %+v", i, c, got, want)
			}
		}
	})
}
