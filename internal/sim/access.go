package sim

import (
	"refrint/internal/cache"
	"refrint/internal/coherence"
	"refrint/internal/core"
	"refrint/internal/mem"
	"refrint/internal/stats"
)

// This file implements the transaction-atomic resolution of one memory
// reference through the hierarchy.  Latency is accumulated into the returned
// completion cycle; every state, coherence, inclusion and refresh side
// effect is applied immediately.

// access resolves one reference of type typ to line, issued by core
// `tileID` at cycle `now`, and returns the cycle at which the data is
// available to the core.
//
//refrint:alloc-free
func (s *System) access(tileID int, line mem.LineAddr, typ mem.AccessType, now int64) int64 {
	switch typ {
	case mem.InstrFetch:
		return s.accessRead(tileID, line, now, true)
	case mem.Read:
		return s.accessRead(tileID, line, now, false)
	case mem.Write:
		return s.accessWrite(tileID, line, now)
	default:
		return now
	}
}

// l1For returns the L1 bank a reference uses.
func (t *Tile) l1For(ifetch bool) (*core.Bank, stats.Level) {
	if ifetch {
		return t.IL1, stats.IL1
	}
	return t.DL1, stats.DL1
}

// accessRead handles loads and instruction fetches.
//
//refrint:alloc-free
func (s *System) accessRead(tileID int, line mem.LineAddr, now int64, ifetch bool) int64 {
	tile := s.tiles[tileID]
	l1, l1Level := tile.l1For(ifetch)

	// L1 lookup.
	l1Time := s.dl1Time
	if ifetch {
		l1Time = s.il1Time
	}
	t := l1.PortStart(now) + l1Time
	s.countRead(l1Level)
	if frame, ok := l1.Probe(line, now); ok {
		s.st.Level(l1Level).Hits++
		l1.Touch(frame, t)
		return t
	}
	s.st.Level(l1Level).Misses++

	// L2 lookup.
	t = tile.L2.PortStart(t) + s.l2Time
	s.countRead(stats.L2)
	if frame, ok := tile.L2.Probe(line, now); ok {
		s.st.Level(stats.L2).Hits++
		tile.L2.Touch(frame, t)
		s.fillL1(tile, l1, line, t)
		return t
	}
	s.st.Level(stats.L2).Misses++

	// L3 lookup at the line's home bank, via the network.
	t, l3State := s.readFromL3(tileID, line, t, false)

	// Fill the private hierarchy.
	s.fillL2(tileID, line, l3State, t)
	s.fillL1(tile, l1, line, t)
	return t
}

// accessWrite handles stores.  The DL1 is write-through (Table 5.1): the
// store updates the DL1 copy (if any) but dirtiness lives in the L2, which
// is write-back.
//
//refrint:alloc-free
func (s *System) accessWrite(tileID int, line mem.LineAddr, now int64) int64 {
	tile := s.tiles[tileID]

	// DL1 lookup.
	t := tile.DL1.PortStart(now) + s.dl1Time
	s.countWrite(stats.DL1)
	dl1Frame, dl1Hit := tile.DL1.Probe(line, now)
	if dl1Hit {
		s.st.Level(stats.DL1).Hits++
		tile.DL1.Touch(dl1Frame, t)
	} else {
		s.st.Level(stats.DL1).Misses++
	}

	// The write is propagated to the L2 (write-through).
	t2 := tile.L2.PortStart(t) + s.l2Time
	s.countWrite(stats.L2)
	l2Frame, l2Hit := tile.L2.Probe(line, now)
	switch {
	case l2Hit && tile.L2.State(l2Frame) == mem.Modified:
		// Already owned dirty: silent.
		s.st.Level(stats.L2).Hits++
		tile.L2.Touch(l2Frame, t2)
		t = t2
	case l2Hit && tile.L2.State(l2Frame) == mem.Exclusive:
		// MESI silent upgrade E -> M.
		s.st.Level(stats.L2).Hits++
		tile.L2.SetState(l2Frame, mem.Modified)
		tile.L2.Touch(l2Frame, t2)
		t = t2
	case l2Hit && tile.L2.State(l2Frame) == mem.Shared:
		// Upgrade: the directory must invalidate the other sharers.
		s.st.Level(stats.L2).Hits++
		t = s.upgradeAtL3(tileID, line, t2)
		tile.L2.SetState(l2Frame, mem.Modified)
		tile.L2.Touch(l2Frame, t)
	default:
		// L2 miss: fetch the line with write intent from the L3.
		s.st.Level(stats.L2).Misses++
		t, _ = s.readFromL3(tileID, line, t2, true)
		s.fillL2(tileID, line, mem.Modified, t)
	}

	// Write-allocate into the DL1 so subsequent loads hit.
	if !dl1Hit {
		s.fillL1(tile, tile.DL1, line, t)
	}
	return t
}

// countRead / countWrite increment the lookup counters of a level.
func (s *System) countRead(level stats.Level)  { s.st.Level(level).Reads++ }
func (s *System) countWrite(level stats.Level) { s.st.Level(level).Writes++ }

// fillL1 inserts a line into an L1 after a fill from below.  L1 victims are
// always clean (write-through DL1, read-only IL1), so they are silently
// dropped.
func (s *System) fillL1(tile *Tile, l1 *core.Bank, line mem.LineAddr, now int64) {
	l1.Insert(line, mem.Shared, now)
}

// fillL2 inserts a line into the tile's L2 with the given state, handling
// the eviction of the victim: dirty victims are written back to their home
// L3 bank, clean victims are dropped, and in both cases inclusion removes
// the victim from the tile's L1s and the directory is told this core no
// longer holds it.
func (s *System) fillL2(tileID int, line mem.LineAddr, state mem.State, now int64) {
	tile := s.tiles[tileID]
	_, victim, evicted := tile.L2.Insert(line, state, now)
	if !evicted {
		return
	}
	vaddr := victim.Tag
	// Inclusion: the victim leaves the whole private hierarchy.
	tile.IL1.Invalidate(vaddr)
	tile.DL1.Invalidate(vaddr)
	home := s.tiles[s.bankOf(vaddr)]
	if victim.Dirty() {
		s.writebackToL3(tileID, vaddr, now)
		home.Dir.SharerWroteBack(vaddr, tileID)
	} else {
		home.Dir.SharerEvicted(vaddr, tileID)
	}
}

// readFromL3 performs the L3 (and, on a miss, DRAM) part of a fill on behalf
// of core tileID.  `write` selects the directory transition (read vs write
// ownership).  It returns the completion cycle and the MESI state the
// requester's L2 should install the line with.
func (s *System) readFromL3(tileID int, line mem.LineAddr, now int64, write bool) (int64, mem.State) {
	bank := s.bankOf(line)
	home := s.tiles[bank]

	// Request message to the home bank, then the bank access itself (which
	// may have to wait for refresh activity on the bank port).
	t := now + s.nocSend(tileID, bank, ctrlMsgBytes)
	t = home.L3.PortStart(t) + s.l3Time
	s.countRead(stats.L3)

	frame, hit := home.L3.Probe(line, t)
	if !hit {
		s.st.Level(stats.L3).Misses++
		// Fetch the line from DRAM and install it in the L3 bank.
		t = s.dramAccess(t, false)
		frame = s.installInL3(home, bank, line, t)
	} else {
		s.st.Level(stats.L3).Hits++
		home.L3.Touch(frame, t)
	}

	// Directory transition and any remote coherence work.
	var state mem.State
	if write {
		act := home.Dir.Write(line, tileID)
		t = s.applyCoherence(bank, tileID, line, act, frame, t)
		state = mem.Modified
	} else {
		act := home.Dir.Read(line, tileID)
		t = s.applyCoherence(bank, tileID, line, act, frame, t)
		// The line is installed Exclusive only when the directory granted
		// this core exclusive ownership (sole sharer, recorded as owner).
		if e := home.Dir.Lookup(line); e != nil && e.NumSharers() == 1 && e.Owner == tileID {
			state = mem.Exclusive
		} else {
			state = mem.Shared
		}
	}

	// Data response back to the requester.
	t += s.nocSend(bank, tileID, dataMsgBytes)
	return t, state
}

// upgradeAtL3 handles a store that hits a Shared line in the requester's L2:
// the directory invalidates every other sharer and grants ownership.
func (s *System) upgradeAtL3(tileID int, line mem.LineAddr, now int64) int64 {
	bank := s.bankOf(line)
	home := s.tiles[bank]
	t := now + s.nocSend(tileID, bank, ctrlMsgBytes)
	t = home.L3.PortStart(t) + s.l3Time
	s.countRead(stats.L3)
	frame, hit := home.L3.Probe(line, t)
	if hit {
		s.st.Level(stats.L3).Hits++
		home.L3.Touch(frame, t)
	} else {
		// The refresh policy dropped the L3 copy while an upper copy
		// existed; re-fetch it to restore inclusion.
		s.st.Level(stats.L3).Misses++
		t = s.dramAccess(t, false)
		frame = s.installInL3(home, bank, line, t)
	}
	act := home.Dir.Write(line, tileID)
	t = s.applyCoherence(bank, tileID, line, act, frame, t)
	t += s.nocSend(bank, tileID, ctrlMsgBytes) // ownership acknowledgement
	return t
}

// installInL3 inserts a line fetched from DRAM into an L3 bank, handling the
// inclusive eviction of the victim.
func (s *System) installInL3(home *Tile, bank int, line mem.LineAddr, now int64) cache.Frame {
	frame, victim, evicted := home.L3.Insert(line, mem.Exclusive, now)
	if evicted {
		vaddr := victim.Tag
		// Inclusive eviction: every private copy of the victim must go.
		act := home.Dir.InvalidateLine(vaddr)
		dirtyAbove := false
		for cs := act.Invalidates; !cs.Empty(); {
			var sharer int
			sharer, cs = cs.Pop()
			t := s.tiles[sharer]
			l2Old, hadL2 := t.L2.Invalidate(vaddr)
			t.IL1.Invalidate(vaddr)
			t.DL1.Invalidate(vaddr)
			s.st.CoherenceInvalidations++
			s.nocSend(bank, sharer, ctrlMsgBytes)
			if hadL2 && l2Old.Dirty() {
				s.nocSend(sharer, bank, dataMsgBytes)
				dirtyAbove = true
			}
		}
		if victim.Dirty() || dirtyAbove {
			s.dramAccess(now, true)
			s.st.Level(stats.L3).Writebacks++
		}
	}
	return frame
}

// applyCoherence turns a directory action into cache operations, network
// messages and latency.  `frame` is the L3 frame of the line (its state is
// updated when dirty data is written into the L3).
func (s *System) applyCoherence(bank, requester int, line mem.LineAddr, act coherence.Action, frame cache.Frame, now int64) int64 {
	t := now
	// Invalidate remote sharers (store or upgrade).  The invalidations are
	// sent in parallel; the requester waits for the farthest acknowledgement.
	var worst int64
	for cs := act.Invalidates; !cs.Empty(); {
		var sharer int
		sharer, cs = cs.Pop()
		if sharer == requester {
			continue
		}
		rt := s.nocSend(bank, sharer, ctrlMsgBytes)
		tile := s.tiles[sharer]
		l2Old, hadL2 := tile.L2.Invalidate(line)
		tile.IL1.Invalidate(line)
		tile.DL1.Invalidate(line)
		s.st.CoherenceInvalidations++
		if hadL2 && l2Old.Dirty() {
			// Dirty remote copy: its data comes back with the ack.
			rt += s.nocSend(sharer, bank, dataMsgBytes)
			s.tiles[bank].L3.SetState(frame, mem.Modified)
			s.st.CoherenceForwards++
		} else {
			rt += s.nocSend(sharer, bank, ctrlMsgBytes)
		}
		if rt > worst {
			worst = rt
		}
	}
	t += worst

	// Downgrade a remote owner (load of a modified line): the owner writes
	// its dirty data back to the L3 and keeps a shared copy.
	if act.DowngradeCore >= 0 && act.DowngradeCore != requester {
		owner := act.DowngradeCore
		rt := s.nocSend(bank, owner, ctrlMsgBytes)
		tile := s.tiles[owner]
		wasDirty := false
		if l2, ok := tile.L2.Peek(line); ok {
			wasDirty = tile.L2.Dirty(l2)
			tile.L2.SetState(l2, mem.Shared)
			tile.L2.Touch(l2, now)
		}
		s.st.CoherenceDowngrades++
		if wasDirty {
			// The owner pushes its dirty data back to the L3, which now
			// holds data newer than DRAM.
			rt += s.nocSend(owner, bank, dataMsgBytes)
			s.st.Level(stats.L2).Writebacks++
			s.st.CoherenceForwards++
			s.tiles[bank].L3.SetState(frame, mem.Modified)
		} else {
			rt += s.nocSend(owner, bank, ctrlMsgBytes)
		}
		t += rt
	}
	return t
}
