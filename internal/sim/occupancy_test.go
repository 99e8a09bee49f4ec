package sim

import (
	"testing"

	"refrint/internal/config"
	"refrint/internal/core"
	"refrint/internal/stats"
)

// TestGroupOccupancyCountersStayExact runs full simulations under every
// periodic policy and cross-checks each bank's incremental valid-line
// occupancy counters (which advancePeriodic relies on to skip sweep work)
// against a ground-truth scan of the array.  A desync here silently changes
// refresh counts and therefore the golden energy series.
func TestGroupOccupancyCountersStayExact(t *testing.T) {
	policies := []config.Policy{
		config.PeriodicAll,
		config.PeriodicValid,
		{Time: config.PeriodicTime, Data: config.DirtyData},
		config.PeriodicWB(4, 4),
		config.PeriodicWB(1, 1),
	}
	check := func(t *testing.T, label string, tile int, b *core.Bank) {
		t.Helper()
		if got, want := b.ValidLines(), b.Cache().ValidCount(); got != want {
			t.Errorf("tile %d %s: tracked %d valid lines, ground truth %d", tile, label, got, want)
		}
	}
	for _, p := range policies {
		t.Run(p.String(), func(t *testing.T) {
			cfg := scaledEDRAM(p, config.Retention50us)
			s, err := New(cfg, quickParams(), 1)
			if err != nil {
				t.Fatal(err)
			}
			// Skip the end-of-run flush so the banks are checked in the
			// organically-reached state, not the all-empty one.
			s.cfg.EndOfRunFlush = false
			s.Run()
			for i, tile := range s.tiles {
				check(t, "IL1", i, tile.IL1)
				check(t, "DL1", i, tile.DL1)
				check(t, "L2", i, tile.L2)
				check(t, "L3", i, tile.L3)
			}
		})
	}
}

// TestSRAMBankOccupancyAccessors covers the scan fallback of ValidLines
// (SRAM banks track no group counters).
func TestSRAMBankOccupancyAccessors(t *testing.T) {
	s, err := New(scaledSRAM(), quickParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s.cfg.EndOfRunFlush = false
	s.Run()
	b := s.tiles[0].L2
	if b.ValidLines() != b.Cache().ValidCount() {
		t.Error("fallback accessor disagrees with the array scan")
	}
	if b.ValidLines() == 0 {
		t.Error("a completed run should leave resident lines")
	}
	_ = stats.L2
}
