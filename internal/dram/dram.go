// Package dram models the off-chip main memory the shared L3 misses to.
// Following the paper, performance-wise it is a fixed-latency channel (40 ns
// per access at 1 GHz) and energy-wise a fixed cost per access; a simple
// bandwidth model (a few channels, each occupied for the burst-transfer time
// of one line) serialises accesses under heavy load so that policy-induced
// DRAM traffic can show up in execution time when it is truly excessive,
// without making the channel an artificial bottleneck.
package dram

import (
	"fmt"

	"refrint/internal/config"
)

// DRAM is the main-memory channel group.
type DRAM struct {
	cfg      config.DRAMConfig
	chanBusy []int64
	nextChan int
	accesses int64
	stallAcc int64
}

// New builds the DRAM model.
func New(cfg config.DRAMConfig) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("dram: invalid config: %v", err))
	}
	return &DRAM{cfg: cfg, chanBusy: make([]int64, cfg.Channels)}
}

// Config returns the DRAM configuration.
func (d *DRAM) Config() config.DRAMConfig { return d.cfg }

// Access performs one main-memory access starting no earlier than `now` and
// returns the cycle at which the data is available.  The access occupies its
// channel for the burst time; the full access latency is paid on top of any
// queueing delay.
func (d *DRAM) Access(now int64) (done int64) {
	ch := d.nextChan
	d.nextChan = (d.nextChan + 1) % d.cfg.Channels
	start := now
	if d.chanBusy[ch] > start {
		d.stallAcc += d.chanBusy[ch] - start
		start = d.chanBusy[ch]
	}
	d.chanBusy[ch] = start + d.cfg.BurstTime
	d.accesses++
	return start + d.cfg.AccessTime
}

// StallCycles returns the total cycles requests waited for a busy channel.
func (d *DRAM) StallCycles() int64 { return d.stallAcc }

// Reset clears the channel state and counters.
func (d *DRAM) Reset() {
	d.accesses = 0
	d.stallAcc = 0
	d.nextChan = 0
	for i := range d.chanBusy {
		d.chanBusy[i] = 0
	}
}
