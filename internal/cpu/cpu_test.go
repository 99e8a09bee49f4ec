package cpu

import (
	"testing"
	"testing/quick"

	"refrint/internal/config"
)

func coreCfg() config.CoreConfig {
	return config.CoreConfig{IssueWidth: 2, MissOverlap: 8}
}

// newCore returns a zero Core reset to cfg, as the simulator builds one.
func newCore(cfg config.CoreConfig) *Core {
	c := new(Core)
	c.Reset(cfg)
	return c
}

func TestResetPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Reset with invalid config should panic")
		}
	}()
	newCore(config.CoreConfig{IssueWidth: 0})
}

func TestComputeDualIssue(t *testing.T) {
	c := newCore(coreCfg())
	c.Compute(10) // 10 instructions at issue width 2 = 5 cycles
	if c.Now() != 5 {
		t.Errorf("Now = %d, want 5", c.Now())
	}
	if c.Instructions() != 10 {
		t.Errorf("Instructions = %d, want 10", c.Instructions())
	}
	c.Compute(3) // odd count rounds up: 2 cycles
	if c.Now() != 7 {
		t.Errorf("Now = %d, want 7", c.Now())
	}
	c.Compute(0)
	c.Compute(-5)
	if c.Now() != 7 {
		t.Error("non-positive instruction counts must not advance time")
	}
}

func TestCompleteMemOpHit(t *testing.T) {
	c := newCore(coreCfg())
	c.Compute(2) // now = 1
	// A 1-cycle hit returning at now+1 is fully hidden by the overlap window;
	// the instruction still takes its issue slot.
	now := c.CompleteMemOp(c.Now() + 1)
	if now != 2 {
		t.Errorf("Now after hit = %d, want 2", now)
	}
	if c.StallCycles() != 0 {
		t.Errorf("StallCycles = %d, want 0", c.StallCycles())
	}
	if c.MemOps() != 1 {
		t.Errorf("MemOps = %d, want 1", c.MemOps())
	}
}

func TestCompleteMemOpMissStalls(t *testing.T) {
	c := newCore(coreCfg())
	// A 50-cycle miss: 8 cycles hidden, 42 stall + 1 issue slot.
	now := c.CompleteMemOp(50)
	if now != 43 {
		t.Errorf("Now = %d, want 43", now)
	}
	if c.StallCycles() != 42 {
		t.Errorf("StallCycles = %d, want 42", c.StallCycles())
	}
}

func TestCompleteMemOpPastCompletion(t *testing.T) {
	c := newCore(coreCfg())
	c.Compute(200) // now = 100
	// Data that was already available (doneAt < now) costs only the slot.
	now := c.CompleteMemOp(50)
	if now != 101 {
		t.Errorf("Now = %d, want 101", now)
	}
	if c.StallCycles() != 0 {
		t.Error("no stall expected for already-available data")
	}
}

func TestTimeMonotoneProperty(t *testing.T) {
	// Property: the local clock never decreases regardless of the request
	// sequence, and instruction counts equal the sum of what was fed in.
	f := func(ops []uint16) bool {
		c := newCore(coreCfg())
		var last int64
		var wantInstr int64
		for i, op := range ops {
			if i%2 == 0 {
				n := int64(op % 100)
				c.Compute(n)
				if n > 0 {
					wantInstr += n
				}
			} else {
				c.CompleteMemOp(c.Now() + int64(op%200))
				wantInstr++
			}
			if c.Now() < last {
				return false
			}
			last = c.Now()
		}
		return c.Instructions() == wantInstr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStallNeverExceedsLatencyProperty(t *testing.T) {
	f := func(lat uint16) bool {
		c := newCore(coreCfg())
		c.CompleteMemOp(int64(lat))
		return c.StallCycles() <= int64(lat)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
