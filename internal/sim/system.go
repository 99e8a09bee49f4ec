// Package sim assembles the complete simulated chip — cores, private IL1/DL1
// and L2 caches, the banked shared L3 with its MESI directory, the torus
// interconnect, the DRAM channel and the refresh controllers of package core
// — and runs one application through it, producing the counters package
// stats defines and the energy breakdown package energy computes from them.
//
// The memory model is transaction-atomic (DESIGN.md section 4.1): each
// memory reference is resolved through the hierarchy in one pass, with
// latencies accumulated from per-level access times, NoC hops, DRAM channel
// contention and refresh-induced port blocking, and with all coherence and
// inclusion side effects applied at resolution time.
package sim

import (
	"fmt"

	"refrint/internal/coherence"
	"refrint/internal/config"
	"refrint/internal/core"
	"refrint/internal/cpu"
	"refrint/internal/dram"
	"refrint/internal/mem"
	"refrint/internal/noc"
	"refrint/internal/stats"
	"refrint/internal/workload"
)

// Message payload sizes in bytes used for NoC traffic accounting.
const (
	ctrlMsgBytes = 8  // request, invalidation, ack
	dataMsgBytes = 72 // 64-byte line + header
)

// Tile is one node of the chip: a core, its private caches and one bank of
// the shared L3.
type Tile struct {
	Core *cpu.Core
	IL1  *core.Bank
	DL1  *core.Bank
	L2   *core.Bank
	L3   *core.Bank // the L3 bank co-located with this tile
	Dir  *coherence.Directory
}

// System is the complete simulated chip running one application.
type System struct {
	cfg   config.Config
	app   *workload.App
	tiles []*Tile
	net   *noc.Torus
	mem   *dram.DRAM
	geom  mem.LineGeometry
	st    *stats.Stats
	// heap is the run loop's core queue, kept here so a run allocates none
	// and a suspended run resumes where it stopped.  started reports a run
	// begun and not completed, whose heap a RunContext call continues;
	// Reset clears it.
	heap    coreHeap
	started bool
	// feed delivers the application's references to the run loop.
	feed feed
	// watching reports that WatchBudgets turned the L3 budget watch on
	// since the last Reset.
	watching bool

	// l1l2Policy is the refresh policy private caches run: the paper always
	// runs L1 and L2 with the Valid data policy and applies the swept data
	// policy only at L3 (Section 6.2).
	l1l2Policy config.Policy

	// Per-access constants hoisted out of the config structs so the access
	// path does not copy a CacheConfig per lookup.
	il1Time, dl1Time, l2Time, l3Time int64
	hopLatency                       int64
	flitsCtrl, flitsData             int64
	bankMask                         int // L3.Banks-1 when a power of two, else -1
}

// New builds a System for one application under one configuration.
func New(cfg config.Config, app workload.Params, seed int64) (*System, error) {
	s := new(System)
	if err := s.Reset(cfg, app, seed); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-initialises s in place as the System New(cfg, app, seed) would
// build, so that its next run gives the identical Result.  Every array
// whose geometry is unchanged is cleared and reused; a different core
// count rebuilds the tiles, and a different cache geometry rebuilds that
// cache's arrays.  Reset may follow a finished or a suspended run, and
// discards the latter.  On an error s is left unchanged.
func (s *System) Reset(cfg config.Config, app workload.Params, seed int64) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := app.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	params := workload.ForConfig(app, cfg)
	if err := params.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}

	s.cfg = cfg
	s.geom = cfg.Geometry()
	s.started = false
	s.watching = false
	if s.st == nil || len(s.st.PerCoreCycles) != cfg.Cores {
		s.st = stats.New(cfg.Cores)
	} else {
		s.st.Reset()
	}
	if s.app == nil {
		s.app = workload.NewApp(params, cfg, seed)
	} else {
		s.app.Reset(params, cfg, seed)
	}
	s.feed.reset(s.app, s.geom)
	if s.net == nil || s.net.Config() != cfg.NoC {
		s.net = noc.New(cfg.NoC)
	}
	if s.mem == nil || s.mem.Config() != cfg.DRAM {
		s.mem = dram.New(cfg.DRAM)
	} else {
		s.mem.Reset()
	}
	s.l1l2Policy = privatePolicy(cfg.Policy)
	s.il1Time = cfg.IL1.AccessTime
	s.dl1Time = cfg.DL1.AccessTime
	s.l2Time = cfg.L2.AccessTime
	s.l3Time = cfg.L3.AccessTime
	s.hopLatency = cfg.NoC.HopLatency
	s.flitsCtrl = int64(s.net.Flits(ctrlMsgBytes))
	s.flitsData = int64(s.net.Flits(dataMsgBytes))
	s.bankMask = -1
	if b := cfg.L3.Banks; b > 0 && b&(b-1) == 0 {
		s.bankMask = b - 1
	}

	if len(s.tiles) != cfg.Cores {
		s.tiles = make([]*Tile, cfg.Cores)
	}
	for i, tile := range s.tiles {
		if tile == nil {
			// The hooks are built once per tile: they capture only s and
			// the tile index, so they stay valid across resets.
			l1 := s.l1Hooks(i)
			s.tiles[i] = &Tile{
				Core: cpu.New(cfg.Core),
				Dir:  coherence.New(cfg.Cores),
				IL1:  core.NewBank(cfg.IL1, cfg.Cell, s.l1l2Policy, stats.IL1, s.st, l1),
				DL1:  core.NewBank(cfg.DL1, cfg.Cell, s.l1l2Policy, stats.DL1, s.st, l1),
				L2:   core.NewBank(cfg.L2, cfg.Cell, s.l1l2Policy, stats.L2, s.st, s.l2Hooks(i)),
				L3:   core.NewBank(cfg.L3, cfg.Cell, cfg.Policy, stats.L3, s.st, s.l3Hooks(i)),
			}
			continue
		}
		tile.Core.Reset(cfg.Core)
		tile.Dir.Reset()
		tile.IL1.Reset(cfg.IL1, cfg.Cell, s.l1l2Policy, stats.IL1, s.st)
		tile.DL1.Reset(cfg.DL1, cfg.Cell, s.l1l2Policy, stats.DL1, s.st)
		tile.L2.Reset(cfg.L2, cfg.Cell, s.l1l2Policy, stats.L2, s.st)
		tile.L3.Reset(cfg.L3, cfg.Cell, cfg.Policy, stats.L3, s.st)
	}
	return nil
}

// privatePolicy returns the refresh policy the private (L1/L2) caches run
// for a given L3 policy: same time-based component, Valid data policy
// (except the SRAM baseline and the reference All policy, which apply
// everywhere).
func privatePolicy(l3 config.Policy) config.Policy {
	switch {
	case l3.Time == config.NoRefresh:
		return l3
	case l3.Data == config.AllData:
		return config.Policy{Time: l3.Time, Data: config.AllData}
	default:
		return config.Policy{Time: l3.Time, Data: config.ValidData}
	}
}

// WatchBudgets turns on the WB(n,m) budget watch
// (core.(*Bank).WatchBudgets) in the L3 banks of a cell whose policy is
// Valid, and reports whether it did.  The private levels run Valid under
// every WB policy too, so the L3 is where a WB(n,m) run can first differ.
// Call it after Reset and before the run; Watch reads the verdict.
func (s *System) WatchBudgets() bool {
	s.watching = false
	for _, tile := range s.tiles {
		s.watching = tile.L3.WatchBudgets()
	}
	return s.watching
}

// Watch returns what the L3 banks' budget watch saw (see WatchBudgets), and
// whether they watched: after a completed run that watched,
// Spares(n, m) of the watch reports whether WB(n,m) gives this run's Result.
func (s *System) Watch() (core.Watch, bool) {
	if !s.watching {
		return core.Watch{}, false
	}
	w := core.Watch{Dirty: -1, Clean: -1}
	for _, tile := range s.tiles {
		w = w.Merge(tile.L3.Watch())
	}
	return w, true
}

// Config returns the system configuration.
func (s *System) Config() config.Config { return s.cfg }

// Workload returns the application parameters actually simulated (after any
// preset scaling).
func (s *System) Workload() workload.Params { return s.app.Params() }

// bankOf returns the L3 bank index a line maps to (line interleaving).
func (s *System) bankOf(addr mem.LineAddr) int {
	if s.bankMask >= 0 {
		return int(addr) & s.bankMask
	}
	return int(uint64(addr) % uint64(s.cfg.L3.Banks))
}

// nocSend records one message on the network and returns its delivery
// latency.  It mirrors Torus.Latency/FlitHops with the hop table and the
// precomputed flit counts so one message costs one table load.
func (s *System) nocSend(src, dst, bytes int) int64 {
	hops := int64(s.net.Hops(src, dst))
	flits := s.flitsCtrl
	if bytes != ctrlMsgBytes {
		flits = s.flitsData
		if bytes != dataMsgBytes {
			flits = int64(s.net.Flits(bytes))
		}
	}
	s.st.NoCMessages++
	s.st.NoCHops += hops
	s.st.NoCFlits += flits * hops
	if hops == 0 {
		return 0
	}
	// Head flit pays the full hop latency; body flits stream behind it.
	return hops*s.hopLatency + flits - 1
}

// dramAccess performs one DRAM access starting at `now`, charges it to the
// given access kind, and returns the completion cycle.
func (s *System) dramAccess(now int64, write bool) int64 {
	done := s.mem.Access(now)
	if write {
		s.st.Level(stats.DRAM).Writes++
	} else {
		s.st.Level(stats.DRAM).Reads++
	}
	return done
}

// --- Refresh-policy hooks --------------------------------------------------
//
// The hooks connect each bank's refresh policy to the rest of the hierarchy.
// Refresh-initiated traffic does not stall any core (it proceeds in the
// background), so hooks only account state, energy and message counters.

// l1Hooks: L1 lines are never dirty (the DL1 is write-through and the IL1 is
// read-only), so a policy invalidation needs no downstream work.
func (s *System) l1Hooks(tileID int) core.Hooks {
	return core.Hooks{
		Writeback: func(addr mem.LineAddr, now int64) {
			// Cannot happen for clean-only caches running the Valid policy;
			// kept for configurations that run WB policies at L1.
			s.writebackToL2(tileID, addr, now)
		},
		Invalidate: func(addr mem.LineAddr, wasDirty bool, now int64) {
			// Nothing to do: inclusion is top-down (L2 invalidations remove
			// L1 copies), and an L1-only invalidation has no lower-level
			// effect.
		},
	}
}

// l2Hooks: an L2 policy writeback pushes dirty data into the home L3 bank;
// an L2 policy invalidation must also remove the line from the tile's L1s
// (inclusion) and tell the directory this core no longer holds it.
func (s *System) l2Hooks(tileID int) core.Hooks {
	return core.Hooks{
		Writeback: func(addr mem.LineAddr, now int64) {
			s.writebackToL3(tileID, addr, now)
		},
		Invalidate: func(addr mem.LineAddr, wasDirty bool, now int64) {
			tile := s.tiles[tileID]
			tile.IL1.Invalidate(addr)
			tile.DL1.Invalidate(addr)
			home := s.tiles[s.bankOf(addr)]
			if wasDirty {
				// Dirty data must reach the L3 before the copy disappears.
				s.writebackToL3(tileID, addr, now)
				home.Dir.SharerWroteBack(addr, tileID)
			} else {
				home.Dir.SharerEvicted(addr, tileID)
			}
		},
	}
}

// l3Hooks: an L3 policy writeback pushes the line to DRAM; an L3 policy
// invalidation (or decay) must invalidate every upper-level copy to keep the
// hierarchy inclusive, writing back any dirty private copy to DRAM.
func (s *System) l3Hooks(bankTile int) core.Hooks {
	return core.Hooks{
		Writeback: func(addr mem.LineAddr, now int64) {
			s.dramAccess(now, true)
		},
		Invalidate: func(addr mem.LineAddr, wasDirty bool, now int64) {
			home := s.tiles[bankTile]
			act := home.Dir.InvalidateLine(addr)
			for cs := act.Invalidates; !cs.Empty(); {
				var sharer int
				sharer, cs = cs.Pop()
				t := s.tiles[sharer]
				l2Old, hadL2 := t.L2.Invalidate(addr)
				t.IL1.Invalidate(addr)
				t.DL1.Invalidate(addr)
				s.st.CoherenceInvalidations++
				s.nocSend(bankTile, sharer, ctrlMsgBytes)
				if hadL2 && l2Old.Dirty() {
					// The only up-to-date copy was above the L3: push it out
					// to DRAM so no data is lost.
					s.nocSend(sharer, bankTile, dataMsgBytes)
					s.dramAccess(now, true)
				}
			}
			if wasDirty {
				// The L3 copy itself was dirty (possible only via decay).
				s.dramAccess(now, true)
			}
		},
	}
}

// writebackToL2 pushes a (rare) L1 policy writeback into the tile's L2.
func (s *System) writebackToL2(tileID int, addr mem.LineAddr, now int64) {
	tile := s.tiles[tileID]
	if l, ok := tile.L2.Probe(addr, now); ok {
		tile.L2.SetState(l, mem.Modified)
		tile.L2.Touch(l, now)
		s.st.Level(stats.L2).Writes++
	}
}

// writebackToL3 pushes dirty data from tile tileID's L2 into the line's home
// L3 bank (used by L2 evictions, downgrades and L2 refresh-policy
// writebacks).  The L3 copy becomes dirty with respect to DRAM.
func (s *System) writebackToL3(tileID int, addr mem.LineAddr, now int64) {
	bank := s.bankOf(addr)
	home := s.tiles[bank]
	s.nocSend(tileID, bank, dataMsgBytes)
	s.st.Level(stats.L2).Writebacks++
	if l, ok := home.L3.Probe(addr, now); ok {
		home.L3.SetState(l, mem.Modified)
		home.L3.Touch(l, now)
		s.st.Level(stats.L3).Writes++
		return
	}
	// Inclusion means the line should be present; if the refresh policy
	// already dropped it, the data has to go all the way to memory.
	s.dramAccess(now, true)
}
