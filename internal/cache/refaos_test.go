package cache

// This file retains the pre-refactor array-of-structs cache as a test-only
// reference model.  The differential test below drives the production SoA
// implementation and this reference through identical randomized operation
// sequences and asserts that every externally visible decision — hit/miss,
// victim choice, eviction, line metadata, flush counts — is identical.
// The reference deliberately mirrors the old implementation line for line
// (a []mem.Line array with pointer handles), because "same decisions as the
// AoS code" is exactly the property the golden series depend on.

import (
	"fmt"
	"math/rand"
	"testing"

	"refrint/internal/config"
	"refrint/internal/mem"
)

// refAoS is the old array-of-structs implementation.
type refAoS struct {
	cfg     config.CacheConfig
	sets    int
	ways    int
	shift   uint
	setMask int
	lines   []mem.Line
}

func newRefAoS(cfg config.CacheConfig) *refAoS {
	sets := cfg.Sets()
	mask := -1
	if sets > 0 && sets&(sets-1) == 0 {
		mask = sets - 1
	}
	return &refAoS{
		cfg:     cfg,
		sets:    sets,
		ways:    cfg.Ways,
		shift:   uint(cfg.IndexShift),
		setMask: mask,
		lines:   make([]mem.Line, sets*cfg.Ways),
	}
}

func (c *refAoS) setOf(addr mem.LineAddr) int {
	idx := uint64(addr) >> c.shift
	if c.setMask >= 0 {
		return int(idx) & c.setMask
	}
	return int(idx % uint64(c.sets))
}

func (c *refAoS) probe(addr mem.LineAddr) (*mem.Line, bool) {
	base := c.setOf(addr) * c.ways
	for i := base; i < base+c.ways; i++ {
		l := &c.lines[i]
		if l.Tag == addr && l.Valid() {
			return l, true
		}
	}
	return nil, false
}

func (c *refAoS) touch(l *mem.Line, now int64) {
	l.LRU = now
}

func (c *refAoS) victim(addr mem.LineAddr) *mem.Line {
	base := c.setOf(addr) * c.ways
	for i := base; i < base+c.ways; i++ {
		if !c.lines[i].Valid() {
			return &c.lines[i]
		}
	}
	v := &c.lines[base]
	for i := base + 1; i < base+c.ways; i++ {
		if c.lines[i].LRU < v.LRU {
			v = &c.lines[i]
		}
	}
	return v
}

func (c *refAoS) insert(addr mem.LineAddr, state mem.State, now int64) (frame *mem.Line, victim mem.Line, evicted bool) {
	frame = c.victim(addr)
	victim = *frame
	evicted = victim.Valid()
	*frame = mem.Line{}
	frame.Tag = addr
	frame.State = state
	c.touch(frame, now)
	return frame, victim, evicted
}

func (c *refAoS) invalidate(addr mem.LineAddr) (mem.Line, bool) {
	l, ok := c.probe(addr)
	if !ok {
		return mem.Line{}, false
	}
	old := *l
	*l = mem.Line{}
	return old, true
}

func (c *refAoS) indexOf(l *mem.Line) int {
	for i := range c.lines {
		if &c.lines[i] == l {
			return i
		}
	}
	return -1
}

func (c *refAoS) flush() []mem.Line {
	var dirty []mem.Line
	for i := range c.lines {
		if c.lines[i].Dirty() {
			dirty = append(dirty, c.lines[i])
		}
	}
	clear(c.lines)
	return dirty
}

func (c *refAoS) validCount() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid() {
			n++
		}
	}
	return n
}

func (c *refAoS) dirtyCount() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Dirty() {
			n++
		}
	}
	return n
}

// diffConfigs are the shapes the differential test covers: the associativity
// sweep the benchmarks use, plus a single-set and a non-power-of-two-ways
// geometry so both the masked and reduced set-index paths are exercised.
func diffConfigs() []config.CacheConfig {
	mk := func(name string, size, ways int) config.CacheConfig {
		return config.CacheConfig{
			Name:       name,
			SizeBytes:  size,
			Ways:       ways,
			LineSize:   64,
			AccessTime: 1,
			Write:      config.WriteBack,
			Banks:      1,
			SubArrays:  4,
		}
	}
	return []config.CacheConfig{
		mk("4way", 16<<10, 4),
		mk("8way", 16<<10, 8),
		mk("16way", 16<<10, 16),
		mk("singleset", 1<<10, 16),
		mk("3way", 12<<10, 3),
	}
}

// stateFor picks an insert state with the rough dirty/clean mix of a run.
func stateFor(rng *rand.Rand) mem.State {
	switch rng.Intn(4) {
	case 0:
		return mem.Modified
	case 1:
		return mem.Shared
	default:
		return mem.Exclusive
	}
}

// TestDifferentialSoAvsAoS drives both implementations through randomized
// access/invalidate/flush/sweep sequences and requires identical decisions.
func TestDifferentialSoAvsAoS(t *testing.T) {
	for _, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				runDifferentialSequence(t, cfg, seed)
			}
		})
	}
}

func runDifferentialSequence(t *testing.T, cfg config.CacheConfig, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	soa := New(cfg)
	aos := newRefAoS(cfg)
	// Address space ~4x capacity so sets fill and evictions are common.
	addrSpace := int64(soa.NumLines() * 4)
	now := int64(0)

	checkLine := func(op string, f Frame, l *mem.Line) {
		t.Helper()
		if got, want := soa.Line(f), *l; got != want {
			t.Fatalf("seed %d %s: frame %d = %+v, reference = %+v", seed, op, f, got, want)
		}
		if got, want := int(f), aos.indexOf(l); got != want {
			t.Fatalf("seed %d %s: frame index %d, reference index %d", seed, op, got, want)
		}
	}

	for step := 0; step < 4000; step++ {
		now++
		addr := mem.LineAddr(rng.Int63n(addrSpace))
		switch op := rng.Intn(100); {
		case op < 60: // access: probe, touch on hit, insert on miss
			f, okS := soa.Probe(addr)
			l, okA := aos.probe(addr)
			if okS != okA {
				t.Fatalf("seed %d step %d: Probe(%#x) = %v, reference = %v", seed, step, addr, okS, okA)
			}
			if okS {
				soa.Touch(f, now)
				aos.touch(l, now)
				checkLine("touch", f, l)
				continue
			}
			// Cross-check the victim choice before inserting.
			vf := soa.Victim(addr)
			vl := aos.victim(addr)
			if got, want := int(vf), aos.indexOf(vl); got != want {
				t.Fatalf("seed %d step %d: Victim(%#x) frame %d, reference %d", seed, step, addr, got, want)
			}
			st := stateFor(rng)
			fS, vicS, evS := soa.Insert(addr, st, now)
			lA, vicA, evA := aos.insert(addr, st, now)
			if evS != evA || vicS != vicA {
				t.Fatalf("seed %d step %d: Insert(%#x) victim %+v/%v, reference %+v/%v",
					seed, step, addr, vicS, evS, vicA, evA)
			}
			checkLine("insert", fS, lA)

		case op < 75: // invalidate (hit or miss), as package core does it
			var oldS mem.Line
			f, okS := soa.Probe(addr)
			if okS {
				oldS = soa.Line(f)
				soa.Reset(f)
			}
			oldA, okA := aos.invalidate(addr)
			if okS != okA || oldS != oldA {
				t.Fatalf("seed %d step %d: Invalidate(%#x) = %+v/%v, reference %+v/%v",
					seed, step, addr, oldS, okS, oldA, okA)
			}

		case op < 85: // a state change through the handle APIs
			f, okS := soa.Probe(addr)
			l, okA := aos.probe(addr)
			if okS != okA {
				t.Fatalf("seed %d step %d: Probe(%#x) = %v, reference = %v", seed, step, addr, okS, okA)
			}
			if !okS {
				continue
			}
			if step%2 == 0 {
				soa.SetState(f, mem.Exclusive)
				l.State = mem.Exclusive
			} else {
				soa.SetState(f, mem.Modified)
				l.State = mem.Modified
			}
			checkLine("mutate", f, l)

		case op < 95: // sweep: walk every valid frame, drop every third
			var visS, visA []int
			soa.ForEachValid(func(f Frame) {
				visS = append(visS, int(f))
				if int(f)%3 == 0 {
					soa.Reset(f)
				}
			})
			for i := range aos.lines {
				if aos.lines[i].Valid() {
					visA = append(visA, i)
					if i%3 == 0 {
						aos.lines[i] = mem.Line{}
					}
				}
			}
			if fmt.Sprint(visS) != fmt.Sprint(visA) {
				t.Fatalf("seed %d step %d: sweep visited %v, reference %v", seed, step, visS, visA)
			}

		default: // flush, after checking every frame it empties
			for i := range aos.lines {
				if got, want := soa.Line(Frame(i)), aos.lines[i]; got != want {
					t.Fatalf("seed %d step %d: frame %d before flush = %+v, reference %+v", seed, step, i, got, want)
				}
			}
			if n, want := soa.FlushCount(), int64(len(aos.flush())); n != want {
				t.Fatalf("seed %d step %d: flush counted %d dirty lines, reference %d",
					seed, step, n, want)
			}
		}

		if soa.ValidCount() != aos.validCount() || soa.DirtyCount() != aos.dirtyCount() {
			t.Fatalf("seed %d step %d: counts %d/%d, reference %d/%d",
				seed, step, soa.ValidCount(), soa.DirtyCount(), aos.validCount(), aos.dirtyCount())
		}
	}

	// End state: every frame identical.
	for i := range aos.lines {
		if got, want := soa.Line(Frame(i)), aos.lines[i]; got != want {
			t.Fatalf("seed %d end: frame %d = %+v, reference %+v", seed, i, got, want)
		}
	}
}
