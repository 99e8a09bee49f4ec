package sim

import (
	"context"

	"refrint/internal/config"
	"refrint/internal/edram"
	"refrint/internal/energy"
	"refrint/internal/mem"
	"refrint/internal/stats"
)

// Result is the outcome of one simulation run.
type Result struct {
	App    string
	Policy string
	// RetentionUS is the eDRAM retention time in microseconds (0 for SRAM).
	RetentionUS float64
	Stats       *stats.Stats
	Energy      energy.Breakdown
	// Cycles is the execution time (slowest core).
	Cycles int64
}

// coreEntry orders cores by their local time in the run loop.
type coreEntry struct {
	tile int
	time int64
}

// coreHeap is a typed binary min-heap over coreEntry, ordered by time.  It
// replaces container/heap on the run loop's hottest edge: the stdlib API
// boxes every pushed and popped entry through `any`, which costs one heap
// allocation per simulated memory operation.  The sift routines mirror
// container/heap's up/down exactly (same comparisons, same swap order), so
// the pop order — including how ties between equal local clocks resolve —
// is bit-identical to the previous implementation and the golden figure
// series are unchanged.
type coreHeap []coreEntry

func (h coreHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *coreHeap) push(e coreEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h coreHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[j].time >= h[i].time {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h coreHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].time < h[j1].time {
			j = j2 // = 2*i + 2  // right child
		}
		if h[j].time >= h[i].time {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// cancelPollRefs is how many references RunContext issues between two
// looks at its context: rare enough to cost nothing per reference, often
// enough that a cancelled cell frees its worker within a millisecond or so.
const cancelPollRefs = 4096

// Run executes the application to completion and returns the result.
func (s *System) Run() Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext runs the application until it completes, returning the
// result, or until ctx is cancelled, returning ctx.Err().  The context is
// checked at the start of every call (Err) and then every cancelPollRefs
// references (Done); a context that can never be cancelled (nil Done) is
// never checked.
//
// A run stopped by its context is suspended, not abandoned: the System
// keeps its core queue and every cache, core and counter, and the next
// RunContext call continues from that point, on any goroutine, towards the
// Result an uninterrupted Run would give.  Call Reset before running a
// different cell, or after a run has completed.
//
// The run loop repeatedly picks the core with the smallest local clock,
// lets it execute its compute gap and issue its next memory reference, and
// resolves that reference atomically through the hierarchy.  Processing
// cores in local-time order keeps the interleaving of references from
// different cores consistent with their timing, which is what the refresh
// policies and the coherence protocol observe.  The references come from
// the System's feed (feed.go), whose producer goroutine draws them for the
// length of the call.
//
//refrint:alloc-free
func (s *System) RunContext(ctx context.Context) (Result, error) {
	done := ctx.Done()
	if done != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	if !s.started {
		h := s.heap[:0]
		for i := range s.tiles {
			//refrint:allow allocfree -- grows only when the core count does; a warm Reset reuses the heap
			h = append(h, coreEntry{tile: i, time: 0})
		}
		h.init()
		s.heap = h
		s.started = true
	}
	h := s.heap
	f := &s.feed
	//refrint:allow allocfree -- produce is bound once, so the go statement allocates no closure
	go f.produce()
	defer f.stop()

	poll := cancelPollRefs
	for len(h) > 0 {
		if done != nil {
			if poll--; poll == 0 {
				poll = cancelPollRefs
				select {
				case <-done:
					s.heap = h // suspend: the next call resumes here
					return Result{}, ctx.Err()
				default:
				}
			}
		}
		// Pop the core with the smallest local clock: container/heap's
		// Pop, swap and down, written out.
		n := len(h) - 1
		h[0], h[n] = h[n], h[0]
		h.down(0, n)
		id := h[n].tile
		h = h[:n]

		// Its next reference, from the chunk its cursor reads; only the
		// hand-off to the next chunk is a call.
		c := &f.cursors[id]
		if c.pos == len(c.recs) && !f.advance(c, id) {
			continue // the core has issued its whole stream
		}
		r := c.recs[c.pos]
		c.pos++

		tile := &s.tiles[id]
		// Non-memory instructions preceding the reference.
		tile.Core.Compute(int64(r.gap))
		issueAt := tile.Core.Now()
		var doneAt int64
		if r.typ == mem.Write {
			doneAt = s.accessWrite(id, r.line, issueAt)
		} else {
			doneAt = s.accessRead(id, r.line, issueAt, r.typ == mem.InstrFetch)
		}
		tile.Core.CompleteMemOp(doneAt)

		h.push(coreEntry{tile: id, time: tile.Core.Now()})
	}
	s.heap = h
	s.started = false

	return s.finish(), nil
}

// finish drains refresh work to the end of the run, performs the end-of-run
// flush of dirty data, fills in the aggregate counters and computes energy.
func (s *System) finish() Result {
	// Execution time = slowest core.
	var end int64
	for i := range s.tiles {
		c := s.tiles[i].Core.Now()
		s.st.PerCoreCycles[i] = c
		if c > end {
			end = c
		}
	}
	s.st.Cycles = end

	// Refresh activity continues until the last core finishes.
	for i := range s.tiles {
		tile := &s.tiles[i]
		tile.IL1.Drain(end)
		tile.DL1.Drain(end)
		tile.L2.Drain(end)
		tile.L3.Drain(end)
	}

	// Instructions and memory operations, assigned so that finishing a
	// completed run again gives the same Result.
	var instructions, memOps int64
	for i := range s.tiles {
		instructions += s.tiles[i].Core.Instructions()
		memOps += s.tiles[i].Core.MemOps()
	}
	s.st.Instructions, s.st.MemOps = instructions, memOps

	// End-of-run flush: all dirty on-chip data is written back to DRAM
	// (Section 6: "we assume that at the end of the simulation all dirty
	// data will be written back to main memory").
	if s.cfg.EndOfRunFlush {
		for i := range s.tiles {
			tile := &s.tiles[i]
			s.st.FlushWritebacks += tile.L2.FlushCount()
			s.st.FlushWritebacks += tile.L3.FlushCount()
			tile.IL1.FlushCount()
			tile.DL1.FlushCount()
		}
	}

	retention := 0.0
	if s.cfg.Cell.Refreshable() {
		retention = float64(s.cfg.Cell.RetentionCycles) / float64(s.cfg.FreqMHz)
	}
	return Result{
		App:         s.app.Params().Name,
		Policy:      s.cfg.Policy.String(),
		RetentionUS: retention,
		Stats:       s.st.Clone(), // the next Reset zeroes s.st in place
		Energy:      price(s.cfg, s.st),
		Cycles:      end,
	}
}

// price computes the energy of a run's counters on a chip configured by
// cfg.
func price(cfg config.Config, st *stats.Stats) energy.Breakdown {
	return energy.NewModel(energy.NewParameters(cfg)).Compute(st)
}

// PeriodicAllFrom returns the Result of a P.all cell, whose configuration is
// cfg, from the Result of the P.valid run of the same application, seed and
// chip.  The two runs differ only in what a group sweep counts
// (core.(*Bank).sweepGroup): P.all refreshes every frame of the group and
// P.valid its valid lines.  Both block the bank port for the same cycles,
// neither decays or drops a line, and privatePolicy gives every level the
// L3's data policy, so every access, miss and cycle agrees.  Each level's
// refreshes are therefore its banks × the frames its schedule sweeps by
// the end of the run; PolicyRefreshes moves by the same amount, the energy
// is priced again, and every other counter is valid's.
func PeriodicAllFrom(cfg config.Config, valid Result) Result {
	st := valid.Stats.Clone()
	ret := edram.NewRetention(cfg.Cell)
	levels := [...]config.CacheConfig{stats.IL1: cfg.IL1, stats.DL1: cfg.DL1, stats.L2: cfg.L2, stats.L3: cfg.L3}
	for level, cache := range levels {
		// Every tile has one bank of each level (the L3 is one bank per
		// node, which config.Validate checks).
		sched := edram.NewPeriodicSchedule(ret, cache.SubArrays, cache.Sets()*cache.Ways)
		all := int64(cfg.Cores) * sched.FramesUpTo(st.Cycles)
		c := st.Level(stats.Level(level))
		st.PolicyRefreshes += all - c.Refreshes
		c.Refreshes = all
	}
	res := valid
	res.Policy = cfg.Policy.String()
	res.Stats = st
	res.Energy = price(cfg, st)
	return res
}
