package sim

import (
	"testing"

	"refrint/internal/cache"
	"refrint/internal/config"
	"refrint/internal/mem"
)

// runAndCheck runs a configuration on the quick workload, checking the
// hierarchy invariants mid-run (before the destructive end-of-run flush).
func runAndCheck(t *testing.T, cfg config.Config) {
	t.Helper()
	cfg.EndOfRunFlush = false // keep the final state for inspection
	s, err := New(cfg, quickParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("%s: %v", cfg.Policy, err)
	}
}

func TestInvariantsHoldForSRAM(t *testing.T) {
	runAndCheck(t, scaledSRAM())
}

func TestInvariantsHoldForEveryPolicy(t *testing.T) {
	for _, p := range []config.Policy{
		config.PeriodicAll,
		config.PeriodicValid,
		config.RefrintValid,
		config.RefrintDirty,
		config.RefrintWB(4, 4),
		config.RefrintWB(32, 32),
	} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			runAndCheck(t, scaledEDRAM(p, config.Retention50us))
		})
	}
}

func TestInvariantsHoldForLargeFootprint(t *testing.T) {
	cfg := scaledEDRAM(config.RefrintWB(4, 4), config.Retention50us)
	cfg.EndOfRunFlush = false
	s, err := New(cfg, largeParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCheckInvariantsDetectsViolations(t *testing.T) {
	cfg := scaledSRAM()
	cfg.EndOfRunFlush = false
	s, err := New(cfg, quickParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("clean run should satisfy invariants: %v", err)
	}

	// Break inclusion on purpose: drop a line from an L2 while its L1 and
	// the directory still reference it.
	tile := &s.tiles[0]
	var victim mem.LineAddr
	found := false
	dl1 := tile.DL1.Cache()
	dl1.ForEachValid(func(f cache.Frame) {
		if !found {
			victim = dl1.Tag(f)
			found = true
		}
	})
	if !found {
		t.Skip("tile 0 DL1 ended the run empty")
	}
	l2 := tile.L2.Cache()
	f, ok := l2.Probe(victim)
	if !ok {
		t.Fatalf("line %#x is in the DL1 but not the L2", victim)
	}
	l2.Reset(f)
	if err := s.CheckInvariants(); err == nil {
		t.Error("breaking inclusion should be detected")
	}
}

func TestCheckInvariantsDetectsDirtyL1(t *testing.T) {
	cfg := scaledSRAM()
	cfg.EndOfRunFlush = false
	s, err := New(cfg, quickParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	tile := &s.tiles[3]
	frame := cache.NoFrame
	dl1 := tile.DL1.Cache()
	dl1.ForEachValid(func(f cache.Frame) {
		if frame == cache.NoFrame {
			frame = f
		}
	})
	if frame == cache.NoFrame {
		t.Skip("tile 3 DL1 ended the run empty")
	}
	dl1.SetState(frame, mem.Modified)
	if err := s.CheckInvariants(); err == nil {
		t.Error("a dirty write-through DL1 line should be detected")
	}
}
