package sim

import (
	"fmt"

	"refrint/internal/cache"
	"refrint/internal/core"
	"refrint/internal/mem"
)

// CheckInvariants validates the structural invariants the hierarchy is
// supposed to maintain at any quiescent point of a run.  It is used by the
// integration tests (and can be called from debugging sessions) to catch
// protocol or inclusion bugs that individual unit tests would miss.
//
// The invariants checked are:
//
//  1. Inclusion: every line valid in a tile's IL1/DL1 is also valid in that
//     tile's L2, and every line valid in a tile's L2 is valid in the line's
//     home L3 bank.
//  2. Directory/cache agreement: if the home directory records core C as a
//     sharer of a line, core C's L2 holds the line; conversely a line held
//     by an L2 is recorded by the directory.
//  3. Single writer: at most one private cache holds a given line in the
//     Modified state, and if one does, the directory records that core as
//     either the owner or the line's sole sharer.  (The directory folds
//     MESI's Exclusive state into SharedClean, so a silent E->M upgrade is
//     visible to it only as "single sharer"; see the package coherence
//     documentation.)
//  4. L1 cleanliness: no IL1/DL1 line is ever dirty (the DL1 is
//     write-through and the IL1 is read-only).
//
// It returns the first violation found, or nil.
func (s *System) CheckInvariants() error {
	for tileID := range s.tiles {
		tile := &s.tiles[tileID]
		// 4. L1 lines are never dirty.
		for _, l1 := range []struct {
			name string
			bank *core.Bank
		}{{"IL1", &tile.IL1}, {"DL1", &tile.DL1}} {
			for _, line := range validLines(l1.bank) {
				if line.Dirty() {
					return fmt.Errorf("tile %d: %s line %#x is dirty", tileID, l1.name, line.Tag)
				}
				// 1a. L1 subset of L2.
				if _, ok := tile.L2.Peek(line.Tag); !ok {
					return fmt.Errorf("tile %d: %s line %#x not present in L2 (inclusion)", tileID, l1.name, line.Tag)
				}
			}
		}

		// 1b. L2 subset of the home L3; 2/3: directory agreement.
		for _, line := range validLines(&tile.L2) {
			addr := line.Tag
			home := &s.tiles[s.bankOf(addr)]
			if _, ok := home.L3.Peek(addr); !ok {
				return fmt.Errorf("tile %d: L2 line %#x not present in home L3 bank %d (inclusion)",
					tileID, addr, s.bankOf(addr))
			}
			entry := home.Dir.Lookup(addr)
			if entry == nil || !entry.HasSharer(tileID) {
				return fmt.Errorf("tile %d: L2 line %#x not recorded by the home directory", tileID, addr)
			}
			// A dirty private copy is legitimate either when the directory
			// recorded the write (owner == tile) or after a silent E->M
			// upgrade, in which case this tile must be the only sharer.
			if line.Dirty() && entry.Owner != tileID && entry.NumSharers() != 1 {
				return fmt.Errorf("tile %d: holds %#x Modified but directory owner is %d with %d sharers",
					tileID, addr, entry.Owner, entry.NumSharers())
			}
		}
	}

	// 2 (converse) and 3: every directory entry's sharers really hold the
	// line, and at most one of them holds it Modified.
	for bankID := range s.tiles {
		tile := &s.tiles[bankID]
		for _, line := range validLines(&tile.L3) {
			entry := tile.Dir.Lookup(line.Tag)
			if entry == nil {
				continue // no private copies; nothing to cross-check
			}
			modifiedHolders := 0
			for _, sharer := range entry.SharerList() {
				l2, ok := s.tiles[sharer].L2.Peek(line.Tag)
				if !ok {
					return fmt.Errorf("bank %d: directory lists core %d for %#x but its L2 does not hold it",
						bankID, sharer, line.Tag)
				}
				if s.tiles[sharer].L2.Dirty(l2) {
					modifiedHolders++
					if entry.Owner != sharer && entry.NumSharers() != 1 {
						return fmt.Errorf("bank %d: core %d holds %#x Modified but directory owner is %d",
							bankID, sharer, line.Tag, entry.Owner)
					}
				}
			}
			if modifiedHolders > 1 {
				return fmt.Errorf("bank %d: %d cores hold %#x Modified", bankID, modifiedHolders, line.Tag)
			}
		}
	}
	return nil
}

// validLines returns copies of all valid lines of a bank.
func validLines(b *core.Bank) []mem.Line {
	var out []mem.Line
	arr := b.Cache()
	arr.ForEachValid(func(f cache.Frame) {
		out = append(out, arr.Line(f))
	})
	return out
}
