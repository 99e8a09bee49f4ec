package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"refrint/internal/cache"
	"refrint/internal/config"
	"refrint/internal/mem"
	"refrint/internal/stats"
)

// refDrain is the reference for Bank.advanceRefrint, as AdvanceTo calls it:
// a test-only copy of the two-phase drain the fused pass replaced.  Each
// pass pops every due node into a buffer and only then handles them, in
// order, re-arming a recharged line's sentry through Schedule at once.  The
// passes repeat until one pops nothing.
func refDrain(b *Bank, now int64, buf []wheelEntry) []wheelEntry {
	if now <= b.clock {
		return buf
	}
	if b.sentries && b.wheel.MaybeDue(now) {
		for {
			buf = b.wheel.PopDueInto(now, -1, buf[:0])
			if len(buf) == 0 {
				break
			}
			for _, e := range buf {
				f := cache.Frame(e.ID)
				if !b.arr.Valid(f) {
					continue
				}
				b.st.SentryInterrupts++
				at := max(b.portBusyUntil, e.Cycle)
				b.portBusyUntil = at + 1
				if b.applyDataPolicy(f, at) {
					b.wheel.Schedule(b.ret.SentryDeadline(at), int(f))
				}
			}
		}
	}
	b.clock = now
	return buf
}

// drainBankConfig is a 256-line, 8-way bank: large enough for bursts that
// back the port up by hundreds of cycles.
func drainBankConfig() config.CacheConfig {
	c := testBankConfig()
	c.Name = "L3drain"
	c.SizeBytes = 16 << 10
	c.Ways = 8
	return c
}

// drainPolicies are the data policies the differential covers, including
// WB budgets that exhaust at once, soon and rarely.
var drainPolicies = []config.Policy{
	{Time: config.RefrintTime, Data: config.AllData},
	config.RefrintValid,
	config.RefrintDirty,
	config.RefrintWB(0, 0),
	config.RefrintWB(2, 1),
	config.RefrintWB(32, 32),
}

// drainSentryPeriods are the sentry periods the differential covers, in
// cycles.  With the wheel's 64-cycle buckets, 40 is shorter than a bucket
// and 3990 is within two buckets of the 64-bucket ring's span, so relinks
// behind a port backlog leave the ring window as it stood at pass start.
var drainSentryPeriods = []int64{40, 700, 3990, 9000}

// drainPair is a production bank and a reference bank driven in lockstep.
type drainPair struct {
	banks [2]*Bank
	stats [2]*stats.Stats
	logs  [2][]hookEvent
	buf   []wheelEntry
}

// hookEvent is one refresh-hook call: a writeback, or an invalidation of a
// clean or dirty copy.
type hookEvent struct {
	writeback bool
	addr      mem.LineAddr
	cycle     int64
	dirty     bool
}

func newDrainPair(policy config.Policy, sentry int64) *drainPair {
	cell := config.CellConfig{
		Tech:              config.EDRAM,
		LeakageRatio:      0.25,
		RetentionCycles:   sentry + 100,
		SentryGuardCycles: 100,
	}
	p := &drainPair{}
	for i := range p.banks {
		p.stats[i] = stats.New(1)
		hooks := Hooks{
			Writeback: func(addr mem.LineAddr, now int64) {
				p.logs[i] = append(p.logs[i], hookEvent{writeback: true, addr: addr, cycle: now})
			},
			Invalidate: func(addr mem.LineAddr, wasDirty bool, now int64) {
				p.logs[i] = append(p.logs[i], hookEvent{addr: addr, cycle: now, dirty: wasDirty})
				// Like an inclusion invalidation, drop a neighbouring line of
				// the same bank while its drain is running.
				if addr%3 == 0 {
					p.banks[i].Invalidate(addr ^ 1)
				}
			},
		}
		p.banks[i] = newBank(drainBankConfig(), cell, policy, stats.L3, p.stats[i], hooks)
	}
	return p
}

// advance runs the refresh work due by now on both banks: the production
// drain on the first, the reference on the second.
func (p *drainPair) advance(now int64) {
	p.banks[0].AdvanceTo(now)
	p.buf = refDrain(p.banks[1], now, p.buf)
}

// wheelOrder lists the pending deadlines of w in the order a drain visits
// them: bucket by bucket, each bucket's list in order.
func wheelOrder(w *frameWheel) []wheelEntry {
	var out []wheelEntry
	for b := w.next; b < w.next+int64(len(w.head)); b++ {
		for id := w.head[b&w.mask]; id != noNode; id = w.nodes[id].next {
			out = append(out, wheelEntry{Cycle: w.nodes[id].deadline, ID: int64(id)})
		}
	}
	return out
}

// diff returns a description of the first difference between the two banks,
// or "" if they agree on every counter, the port, every frame's tag, state,
// LRU stamp and WB(n,m) budget, every valid frame's charge time, and the
// wheel.
func (p *drainPair) diff() string {
	a, r := p.banks[0], p.banks[1]
	if !reflect.DeepEqual(p.stats[0], p.stats[1]) {
		return fmt.Sprintf("stats differ:\n got  %+v\n want %+v", *p.stats[0], *p.stats[1])
	}
	if a.portBusyUntil != r.portBusyUntil || a.clock != r.clock {
		return fmt.Sprintf("portBusyUntil/clock %d/%d, want %d/%d", a.portBusyUntil, a.clock, r.portBusyUntil, r.clock)
	}
	if !reflect.DeepEqual(p.logs[0], p.logs[1]) {
		return fmt.Sprintf("hook logs differ:\n got  %v\n want %v", p.logs[0], p.logs[1])
	}
	for i := 0; i < a.arr.NumLines(); i++ {
		f := cache.Frame(i)
		if a.arr.Line(f) != r.arr.Line(f) {
			return fmt.Sprintf("frame %d: %+v, want %+v", i, a.arr.Line(f), r.arr.Line(f))
		}
		if len(a.counts) != 0 && a.counts[i] != r.counts[i] {
			return fmt.Sprintf("frame %d: budget %d, want %d", i, a.counts[i], r.counts[i])
		}
		if a.arr.Valid(f) && a.chargedAt(f) != r.chargedAt(f) {
			return fmt.Sprintf("frame %d: charged at %d, want %d", i, a.chargedAt(f), r.chargedAt(f))
		}
		gd, gok := a.wheel.Deadline(i)
		wd, wok := r.wheel.Deadline(i)
		if gok != wok || (gok && gd != wd) {
			return fmt.Sprintf("frame %d: deadline %d (%v), want %d (%v)", i, gd, gok, wd, wok)
		}
	}
	if got, want := wheelOrder(&a.wheel), wheelOrder(&r.wheel); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("wheel order differs:\n got  %v\n want %v", got, want)
	}
	return ""
}

// runDrainScript drives both banks of p through one random operation stream
// and reports the first divergence.  The stream mixes fills, probes, touches
// stamped off the bank's clock (as the simulator stamps a hit with port
// start plus latency, and a downgrade with the requester's clock), state
// changes, invalidations, idles longer than a sentry period and bursts of
// 200 fills at one cycle.
func runDrainScript(p *drainPair, seed int64, sentry int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	lines := p.banks[0].arr.NumLines()
	now := int64(0)
	addr := func() mem.LineAddr { return mem.LineAddr(rng.Intn(3 * lines)) }
	state := func() mem.State {
		if rng.Intn(2) == 0 {
			return mem.Modified
		}
		return mem.Exclusive
	}
	// fill inserts a on both banks at now unless it is present.
	fill := func(a mem.LineAddr, s mem.State) {
		p.advance(now)
		if _, ok := p.banks[0].Peek(a); ok {
			return
		}
		for _, b := range p.banks {
			b.Insert(a, s, now)
		}
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 30:
			fill(addr(), state())
		case op < 55:
			// A demand hit, touched off the bank's clock.
			a, at := addr(), max(0, now-300+rng.Int63n(1201))
			p.advance(now)
			var hit [2]bool
			for i, b := range p.banks {
				if f, ok := b.Probe(a, now); ok {
					hit[i] = true
					b.Touch(f, at)
				}
			}
			if hit[0] != hit[1] {
				return fmt.Errorf("step %d: probe of %d hit %v, want %v", step, a, hit[0], hit[1])
			}
		case op < 65:
			// A coherence downgrade or upgrade, stamped with the
			// requester's clock and without advancing this bank.
			a, s, at := addr(), state(), max(0, now-300+rng.Int63n(1201))
			for _, b := range p.banks {
				if f, ok := b.Peek(a); ok {
					b.SetState(f, s)
					b.Touch(f, at)
				}
			}
		case op < 72:
			a := addr()
			for _, b := range p.banks {
				b.Invalidate(a)
			}
		case op < 76:
			now += sentry + rng.Int63n(3*sentry+1) // idle past a sentry period
		case op < 78:
			// A burst of fills at one cycle, drained at its sentry deadline
			// behind a port backlog of 200 interrupts, then an idle.
			for i := 0; i < 200; i++ {
				fill(addr(), state())
			}
			now += sentry
			p.advance(now)
			now += sentry + rng.Int63n(3*sentry+1)
		default:
			now += rng.Int63n(sentry/4 + 64)
		}
		if step%7 == 0 {
			if d := p.diff(); d != "" {
				return fmt.Errorf("step %d (cycle %d): %s", step, now, d)
			}
		}
	}
	now += 4 * sentry
	p.advance(now)
	if d := p.diff(); d != "" {
		return fmt.Errorf("final drain (cycle %d): %s", now, d)
	}
	return nil
}

// TestSentryDrainMatchesReference pins the fused sentry drain to the
// two-phase drain it replaced: for every Refrint data policy and several
// sentry periods, a production bank and a bank drained by refDrain see the
// same operations and must agree on every counter, the port, every frame's
// state and budget, every valid frame's charge time, the wheel's deadlines
// and order, and every hook call.
func TestSentryDrainMatchesReference(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 800
	}
	for _, policy := range drainPolicies {
		for _, sentry := range drainSentryPeriods {
			t.Run(fmt.Sprintf("%v/S%d", policy, sentry), func(t *testing.T) {
				p := newDrainPair(policy, sentry)
				if err := runDrainScript(p, sentry^int64(policy.N+7*policy.M), sentry, steps); err != nil {
					t.Fatal(err)
				}
				if p.stats[1].SentryInterrupts == 0 {
					t.Fatal("the script raised no sentry interrupts")
				}
			})
		}
	}
}

// FuzzSentryDrainMatchesReference is TestSentryDrainMatchesReference over
// fuzzed seeds, policies and sentry periods.
func FuzzSentryDrainMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(3990))
	f.Add(int64(7), uint8(4), uint16(40))
	f.Fuzz(func(t *testing.T, seed int64, policy uint8, sentry uint16) {
		s := int64(sentry%12000) + 1
		p := newDrainPair(drainPolicies[int(policy)%len(drainPolicies)], s)
		if err := runDrainScript(p, seed, s, 400); err != nil {
			t.Fatal(err)
		}
	})
}
