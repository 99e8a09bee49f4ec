package core

import (
	"fmt"
	"math/rand"
	"testing"

	"refrint/internal/config"
	"refrint/internal/mem"
	"refrint/internal/stats"
)

// wbEvent is one thing that happened to the single line of a WB(n,m) bank:
// a demand charge ('C', with the line's dirtiness after it), a refresh
// ('R'), a policy writeback ('W') or a policy invalidation ('I').
type wbEvent struct {
	kind  byte
	dirty bool
	at    int64
}

// checkWBSegment checks the events that follow one demand charge, up to the
// next: a line dirty at the charge sees at most n refreshes, then at most
// one writeback, then at most m refreshes, then at most one invalidation, in
// that order; a clean one sees the last two steps only.  A writeback or an
// invalidation comes only when the budget before it is spent.  When the
// line then stays idle for complete, the whole sequence must have happened.
func checkWBSegment(seg []wbEvent, dirty bool, n, m int, complete bool) error {
	i := 0
	run := func() int {
		k := 0
		for i < len(seg) && seg[i].kind == 'R' {
			i, k = i+1, k+1
		}
		return k
	}
	if dirty {
		if r := run(); r > n {
			return fmt.Errorf("%d refreshes before the writeback, budget n=%d", r, n)
		} else if i < len(seg) && seg[i].kind == 'W' && r != n {
			return fmt.Errorf("writeback after %d refreshes, want n=%d", r, n)
		}
		if i == len(seg) {
			if complete {
				return fmt.Errorf("idle line never written back")
			}
			return nil
		}
		if seg[i].kind != 'W' {
			return fmt.Errorf("%c where the writeback belongs", seg[i].kind)
		}
		i++
	}
	r := run()
	if r > m {
		return fmt.Errorf("%d clean refreshes, budget m=%d", r, m)
	}
	if i == len(seg) {
		if complete {
			return fmt.Errorf("idle line never invalidated")
		}
		return nil
	}
	if seg[i].kind != 'I' || r != m {
		return fmt.Errorf("%c after %d clean refreshes, want an invalidation after m=%d", seg[i].kind, r, m)
	}
	if i+1 != len(seg) {
		return fmt.Errorf("%c after the invalidation", seg[i+1].kind)
	}
	return nil
}

// TestWBOrderBetweenCharges checks Figure 4.1 on one line at a time, under
// Periodic and Refrint, for WB(1,1), WB(2,3) and WB(4,4): between two
// demand charges the line sees at most n refreshes, at most one writeback,
// at most m refreshes and at most one invalidation, in that order.  Random
// scripts of idle gaps, reads, writes and refills drive the bank; the
// refreshes are read off the bank's counters and the writebacks and
// invalidations off its Hooks, which must agree with the counters.
func TestWBOrderBetweenCharges(t *testing.T) {
	const (
		period = 10_000 // testCell's retention: a sentry period or a sweep period
		step   = 250    // far below the period: at most one event per step
		addr   = mem.LineAddr(0x1)
	)
	for _, tp := range []config.TimePolicy{config.PeriodicTime, config.RefrintTime} {
		for _, nm := range [][2]int{{1, 1}, {2, 3}, {4, 4}} {
			n, m := nm[0], nm[1]
			policy := config.Policy{Time: tp, Data: config.WBData, N: n, M: m}
			t.Run(policy.String(), func(t *testing.T) {
				for seed := int64(1); seed <= 25; seed++ {
					var events []wbEvent
					st := stats.New(1)
					b := newBank(testBankConfig(), testCell(), policy, stats.L3, st, Hooks{
						Writeback: func(_ mem.LineAddr, now int64) { events = append(events, wbEvent{kind: 'W', at: now}) },
						Invalidate: func(_ mem.LineAddr, wasDirty bool, now int64) {
							if wasDirty {
								t.Fatalf("seed %d: a dirty line was invalidated at %d", seed, now)
							}
							events = append(events, wbEvent{kind: 'I', at: now})
						},
					})
					ctr := st.Level(stats.L3)
					rng := rand.New(rand.NewSource(seed))
					charge := func(now int64) {
						state := mem.Exclusive
						if rng.Intn(2) == 0 {
							state = mem.Modified
						}
						if f, ok := b.Probe(addr, now); ok {
							if state == mem.Modified {
								b.SetState(f, mem.Modified)
							}
							b.Touch(f, now)
						} else {
							b.Insert(addr, state, now)
						}
						f, _ := b.Peek(addr)
						events = append(events, wbEvent{kind: 'C', dirty: b.Dirty(f), at: now})
					}
					idle := func(from, to int64) {
						for now := from + step; now <= to; now += step {
							before := ctr.Refreshes
							b.AdvanceTo(now)
							for range ctr.Refreshes - before {
								events = append(events, wbEvent{kind: 'R', at: now})
							}
						}
					}

					now := int64(0)
					charge(now)
					var gaps []int64
					for range 12 {
						gap := step * (1 + rng.Int63n(int64(n+m+3)*period/step))
						idle(now, now+gap)
						now += gap
						gaps = append(gaps, gap)
						charge(now)
					}
					final := int64(n+m+2) * period
					idle(now, now+final)
					gaps = append(gaps, final)

					var w, inv int64
					k := -1
					for i := 0; i < len(events); {
						e := events[i]
						if e.kind != 'C' {
							t.Fatalf("seed %d: %c at %d before any charge", seed, e.kind, e.at)
						}
						k++
						j := i + 1
						for j < len(events) && events[j].kind != 'C' {
							switch events[j].kind {
							case 'W':
								w++
							case 'I':
								inv++
							}
							j++
						}
						complete := gaps[k] >= int64(n+m+2)*period
						if err := checkWBSegment(events[i+1:j], e.dirty, n, m, complete); err != nil {
							t.Fatalf("seed %d: after the charge at %d (dirty %v): %v\nevents %v", seed, e.at, e.dirty, err, events[i:j])
						}
						i = j
					}
					if ctr.Writebacks != w || ctr.Invalidations != inv || ctr.Decays != 0 {
						t.Fatalf("seed %d: counters %d writebacks, %d invalidations, %d decays; hooks saw %d and %d",
							seed, ctr.Writebacks, ctr.Invalidations, ctr.Decays, w, inv)
					}
					if st.PolicyRefreshes != ctr.Refreshes {
						t.Fatalf("seed %d: %d policy refreshes, %d level refreshes", seed, st.PolicyRefreshes, ctr.Refreshes)
					}
				}
			})
		}
	}
}
