// Package cpu provides the processor-core timing model.
//
// The paper simulates dual-issue out-of-order MIPS32 cores in SESC.  This
// reproduction approximates each core as a dual-issue in-order engine with a
// bounded miss-overlap window (a configurable number of miss cycles hidden
// under independent work) in place of SESC's out-of-order pipeline.
// Because every reported result is normalized to the same core model
// running on the full-SRAM hierarchy, the policy ratios the paper reports
// are preserved even though absolute IPC differs.
package cpu

import (
	"fmt"

	"refrint/internal/config"
)

// Core tracks the local time of one processor core.
type Core struct {
	cfg config.CoreConfig

	// now is the core-local clock (cycle at which the next instruction can
	// start executing).
	now int64

	instructions int64
	memOps       int64
	stallCycles  int64
}

// Reset makes c a core at cycle 0 that has retired nothing.  The zero Core
// is ready for Reset, which the simulator calls on a core it holds by value.
func (c *Core) Reset(cfg config.CoreConfig) {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("cpu: invalid config: %v", err))
	}
	*c = Core{cfg: cfg}
}

// Now returns the core-local clock.
func (c *Core) Now() int64 { return c.now }

// Instructions returns the number of instructions retired so far (memory and
// non-memory).
func (c *Core) Instructions() int64 { return c.instructions }

// MemOps returns the number of memory references issued.
func (c *Core) MemOps() int64 { return c.memOps }

// StallCycles returns the cycles spent waiting for memory beyond the
// overlap window.
func (c *Core) StallCycles() int64 { return c.stallCycles }

// Compute advances the core's clock over `instructions` non-memory
// instructions at the configured issue width and returns the new local time.
func (c *Core) Compute(instructions int64) int64 {
	if instructions <= 0 {
		return c.now
	}
	cycles := (instructions + int64(c.cfg.IssueWidth) - 1) / int64(c.cfg.IssueWidth)
	c.now += cycles
	c.instructions += instructions
	return c.now
}

// CompleteMemOp accounts for a memory reference that was issued at the
// core's current time and whose data returned at `doneAt`.  Up to
// MissOverlap cycles of the latency are hidden (modelling the OOO window);
// the rest stalls the core.  It returns the new local time.
func (c *Core) CompleteMemOp(doneAt int64) int64 {
	c.memOps++
	c.instructions++ // the memory instruction itself
	latency := doneAt - c.now
	if latency < 0 {
		latency = 0
	}
	hidden := c.cfg.MissOverlap
	if hidden > latency {
		hidden = latency
	}
	stall := latency - hidden
	// The memory instruction still occupies one issue slot.
	c.now += stall + 1
	c.stallCycles += stall
	return c.now
}
