package dram

import (
	"testing"
	"testing/quick"

	"refrint/internal/config"
)

func dramCfg() config.DRAMConfig {
	return config.DRAMConfig{AccessTime: 40, BurstTime: 8, Channels: 4}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	cases := []config.DRAMConfig{
		{AccessTime: 0, BurstTime: 8, Channels: 4},
		{AccessTime: 40, BurstTime: 0, Channels: 4},
		{AccessTime: 40, BurstTime: 50, Channels: 4},
		{AccessTime: 40, BurstTime: 8, Channels: 0},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New with invalid config should panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestSingleAccessLatency(t *testing.T) {
	d := New(dramCfg())
	if done := d.Access(100); done != 140 {
		t.Errorf("Access(100) done at %d, want 140", done)
	}
	if d.accesses != 1 {
		t.Errorf("Accesses = %d, want 1", d.accesses)
	}
	if d.StallCycles() != 0 {
		t.Errorf("StallCycles = %d, want 0", d.StallCycles())
	}
}

func TestChannelsAbsorbModerateLoad(t *testing.T) {
	d := New(dramCfg())
	// Four simultaneous accesses use separate channels: no stall.
	for i := 0; i < 4; i++ {
		if done := d.Access(0); done != 40 {
			t.Errorf("access %d done at %d, want 40", i, done)
		}
	}
	// The fifth waits only for the burst occupancy (8 cycles), not the full
	// access latency: bandwidth is decoupled from latency.
	if done := d.Access(0); done != 48 {
		t.Errorf("fifth access done at %d, want 48", done)
	}
	if d.StallCycles() != 8 {
		t.Errorf("StallCycles = %d, want 8", d.StallCycles())
	}
}

func TestSaturationSerialisesBursts(t *testing.T) {
	d := New(dramCfg())
	// 40 back-to-back accesses at cycle 0: 10 per channel, each occupying 8
	// cycles, so the last one starts at 72 and completes at 112.
	var last int64
	for i := 0; i < 40; i++ {
		last = d.Access(0)
	}
	if last != 72+40 {
		t.Errorf("last access done at %d, want 112", last)
	}
}

func TestLatencyLowerBoundProperty(t *testing.T) {
	// Property: completion never precedes issue + access latency, and the
	// access counter matches the number of calls.
	f := func(gaps []uint8) bool {
		d := New(dramCfg())
		now := int64(0)
		for _, g := range gaps {
			now += int64(g)
			if d.Access(now) < now+40 {
				return false
			}
		}
		return d.accesses == int64(len(gaps))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	d := New(dramCfg())
	for i := 0; i < 10; i++ {
		d.Access(0)
	}
	d.Reset()
	if d.accesses != 0 || d.StallCycles() != 0 {
		t.Error("Reset should clear counters")
	}
	if done := d.Access(0); done != 40 {
		t.Errorf("after Reset, access done at %d, want 40", done)
	}
}

func TestConfigAccessor(t *testing.T) {
	d := New(dramCfg())
	if d.Config().AccessTime != 40 || d.Config().Channels != 4 {
		t.Error("Config() should round-trip")
	}
}
