// Package coherence implements the directory-based MESI protocol the paper
// keeps at the shared L3 (Table 5.1, "Directory MESI protocol at L3").
//
// The directory is a full-map directory: for every line present in the L3 it
// records which cores hold a copy in their private (L1/L2) hierarchy and
// whether one of them owns it in Modified state.  The simulator consults the
// directory on every L3 access to learn which coherence actions (remote
// invalidations, downgrades, dirty-data forwards) the access implies, and
// notifies the directory when private caches evict lines or when the L3
// itself invalidates a line (inclusion victims and refresh-policy
// invalidations both flow through here).
//
// MESI's Exclusive state is represented as a SharedClean entry whose Owner
// field records the core holding the exclusive grant.  Because that core may
// upgrade its copy to Modified silently (the point of the E state), any later
// access by a different core probes/downgrades the grant holder exactly as it
// would a Modified owner; whether dirty data actually moves is decided by the
// simulator from the owner's real cache state.
package coherence

import (
	"math/bits"

	"refrint/internal/mem"
)

// DirState is the directory's view of a line.
type DirState uint8

// Directory states.
const (
	// Uncached: no private cache holds the line.
	Uncached DirState = iota
	// SharedClean: one or more private caches hold a clean copy.
	SharedClean
	// OwnedModified: exactly one private cache holds the line in M state.
	OwnedModified
)

// String implements fmt.Stringer.
func (s DirState) String() string {
	switch s {
	case Uncached:
		return "U"
	case SharedClean:
		return "S"
	case OwnedModified:
		return "M"
	default:
		return "?"
	}
}

// Entry is the directory record of one L3-resident line.
type Entry struct {
	Sharers uint32 // bitmask of cores holding the line in private caches
	Owner   int    // core holding it Modified, or -1
	State   DirState
}

// reset returns the entry to Uncached.
func (e *Entry) reset() {
	e.Sharers = 0
	e.Owner = -1
	e.State = Uncached
}

// HasSharer reports whether core holds the line.
func (e *Entry) HasSharer(core int) bool { return e.Sharers&(1<<uint(core)) != 0 }

// NumSharers returns the number of private caches holding the line.
func (e *Entry) NumSharers() int { return bits.OnesCount32(e.Sharers) }

// SharerList returns the core ids of all sharers.
func (e *Entry) SharerList() []int {
	var out []int
	for c := 0; c < 32; c++ {
		if e.HasSharer(c) {
			out = append(out, c)
		}
	}
	return out
}

// CoreSet is an allocation-free set of core ids (the full-map directory
// supports up to 32 cores).  The zero value is the empty set.
type CoreSet uint32

// Len returns the number of cores in the set.
func (s CoreSet) Len() int { return bits.OnesCount32(uint32(s)) }

// Empty reports whether the set has no cores.
func (s CoreSet) Empty() bool { return s == 0 }

// Contains reports whether core is in the set.
func (s CoreSet) Contains(core int) bool { return s&(1<<uint(core)) != 0 }

// Pop removes and returns the lowest-numbered core of a non-empty set along
// with the remaining set, so callers iterate in ascending core order without
// allocating:
//
//	for cs := act.Invalidates; !cs.Empty(); {
//		var c int
//		c, cs = cs.Pop()
//		...
//	}
func (s CoreSet) Pop() (core int, rest CoreSet) {
	core = bits.TrailingZeros32(uint32(s))
	return core, s & (s - 1)
}

// Action describes the coherence work an access or invalidation implies.
// The simulator turns each element into network messages and cache
// operations.
type Action struct {
	// Invalidates are cores whose private copies must be invalidated.
	Invalidates CoreSet
	// DowngradeCore is a core that must downgrade M->S and write its dirty
	// data back to the L3 (-1 if none).
	DowngradeCore int
	// DirtyForward reports whether dirty data had to be fetched from the
	// downgraded/invalidated owner (the requester receives the latest data).
	DirtyForward bool
	// WritebackToL3 reports whether the action causes dirty data to be
	// written into the L3 (making the L3 copy dirty relative to DRAM).
	WritebackToL3 bool
}

// Directory is the full-map MESI directory for one L3 bank.
//
// The line table is a deterministic open-addressing hash table (linear
// probing, backward-shift deletion) rather than a Go map: the directory is
// consulted on every L3 access, and the custom table removes hashing and
// bucket-group overhead from that path while allocating only on growth.
// Entry pointers returned by Lookup/entry are valid only until the next
// mutating directory operation: inserting a previously unseen line may grow
// the table, and InvalidateLine's backward-shift deletion relocates entries
// even without an insert.  Every caller must finish with an entry before
// the next directory call.
//
// The zero Directory is ready for Reset, which gives it its table.
type Directory struct {
	keys  []mem.LineAddr
	vals  []Entry
	used  []bool
	count int

	// Counters.
	invalidationsSent int64
	downgradesSent    int64
	dirtyForwards     int64
}

// dirInitialSlots is the starting table size (a power of two).
const dirInitialSlots = 256

// dirHash finalises a line address into a well-mixed slot hash
// (the splitmix64 finaliser).
func dirHash(a mem.LineAddr) uint64 {
	x := uint64(a)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// findSlot returns the slot holding addr, or -1.
func (d *Directory) findSlot(addr mem.LineAddr) int {
	mask := uint64(len(d.keys) - 1)
	for i := dirHash(addr) & mask; d.used[i]; i = (i + 1) & mask {
		if d.keys[i] == addr {
			return int(i)
		}
	}
	return -1
}

// grow doubles the table and re-inserts every entry.
func (d *Directory) grow() {
	oldKeys, oldVals, oldUsed := d.keys, d.vals, d.used
	n := len(oldKeys) * 2
	d.keys = make([]mem.LineAddr, n)
	d.vals = make([]Entry, n)
	d.used = make([]bool, n)
	mask := uint64(n - 1)
	for i, ok := range oldUsed {
		if !ok {
			continue
		}
		j := dirHash(oldKeys[i]) & mask
		for d.used[j] {
			j = (j + 1) & mask
		}
		d.keys[j] = oldKeys[i]
		d.vals[j] = oldVals[i]
		d.used[j] = true
	}
}

// entry returns the record for addr, creating it Uncached if absent.
func (d *Directory) entry(addr mem.LineAddr) *Entry {
	if i := d.findSlot(addr); i >= 0 {
		return &d.vals[i]
	}
	if (d.count+1)*4 >= len(d.keys)*3 {
		d.grow()
	}
	mask := uint64(len(d.keys) - 1)
	i := dirHash(addr) & mask
	for d.used[i] {
		i = (i + 1) & mask
	}
	d.keys[i] = addr
	d.used[i] = true
	d.count++
	e := &d.vals[i]
	e.Sharers = 0
	e.Owner = -1
	e.State = Uncached
	return e
}

// remove deletes addr's slot, restoring the linear-probing invariant by
// backward-shifting displaced entries into the hole.
func (d *Directory) remove(addr mem.LineAddr) {
	s := d.findSlot(addr)
	if s < 0 {
		return
	}
	mask := uint64(len(d.keys) - 1)
	i := uint64(s)
	for {
		d.used[i] = false
		j := i
		for {
			j = (j + 1) & mask
			if !d.used[j] {
				d.count--
				return
			}
			// Slot j's entry may fill the hole at i only if its home slot is
			// not cyclically inside (i, j] — otherwise probing would no
			// longer reach it.
			if h := dirHash(d.keys[j]) & mask; (j-h)&mask >= (j-i)&mask {
				d.keys[i] = d.keys[j]
				d.vals[i] = d.vals[j]
				d.used[i] = true
				i = j
				break
			}
		}
	}
}

// Lookup returns the entry for addr, or nil if the directory has no record.
func (d *Directory) Lookup(addr mem.LineAddr) *Entry {
	if i := d.findSlot(addr); i >= 0 {
		return &d.vals[i]
	}
	return nil
}

// Reset forgets every line and zeroes the counters.  A table grown by an
// earlier run keeps its size: nothing iterates the table, so its size
// cannot change any Action.  A zero Directory gets a table of
// dirInitialSlots.
func (d *Directory) Reset() {
	if len(d.keys) == 0 {
		d.keys = make([]mem.LineAddr, dirInitialSlots)
		d.vals = make([]Entry, dirInitialSlots)
		d.used = make([]bool, dirInitialSlots)
	}
	clear(d.used)
	d.count = 0
	d.invalidationsSent = 0
	d.downgradesSent = 0
	d.dirtyForwards = 0
}

// Entries returns the number of tracked lines.
func (d *Directory) Entries() int { return d.count }

// InvalidationsSent returns the number of invalidation messages generated.
func (d *Directory) InvalidationsSent() int64 { return d.invalidationsSent }

// DowngradesSent returns the number of downgrade messages generated.
func (d *Directory) DowngradesSent() int64 { return d.downgradesSent }

// DirtyForwards returns the number of dirty-data forwards.
func (d *Directory) DirtyForwards() int64 { return d.dirtyForwards }

// Read records core performing a read (load or instruction fetch) of addr
// and returns the coherence action it implies.
func (d *Directory) Read(addr mem.LineAddr, core int) Action {
	e := d.entry(addr)
	act := Action{DowngradeCore: -1}
	switch e.State {
	case Uncached:
		// First reader: grant the line exclusively (MESI E state).
		e.State = SharedClean
		e.Owner = core
	case SharedClean:
		if e.Owner >= 0 && e.Owner != core {
			// Another core holds the exclusive grant and may have silently
			// modified its copy: it must be downgraded before the requester
			// can read.  The simulator forwards dirty data only if the copy
			// really is dirty.
			act.DowngradeCore = e.Owner
			d.downgradesSent++
			e.Owner = -1
		}
	case OwnedModified:
		if e.Owner != core {
			// Owner must downgrade and push its dirty data to the L3, which
			// then forwards it to the requester.
			act.DowngradeCore = e.Owner
			act.DirtyForward = true
			act.WritebackToL3 = true
			d.downgradesSent++
			d.dirtyForwards++
			e.Owner = -1
			e.State = SharedClean
		}
	}
	e.Sharers |= 1 << uint(core)
	return act
}

// Write records core performing a store to addr and returns the coherence
// action: every other sharer is invalidated and, if a different core owned
// the line Modified, its dirty data is forwarded to the requester.
func (d *Directory) Write(addr mem.LineAddr, core int) Action {
	e := d.entry(addr)
	act := Action{DowngradeCore: -1}
	if e.State == OwnedModified && e.Owner == core {
		return act // silent upgrade of the current owner
	}
	act.Invalidates = CoreSet(e.Sharers) &^ (1 << uint(core))
	d.invalidationsSent += int64(act.Invalidates.Len())
	if e.State == OwnedModified && e.Owner != core {
		act.DirtyForward = true
		act.WritebackToL3 = true
		d.dirtyForwards++
	}
	e.Sharers = 1 << uint(core)
	e.Owner = core
	e.State = OwnedModified
	return act
}

// SharerEvicted records that core silently evicted its private copy of addr
// (clean eviction).  Dirty private evictions should use SharerWroteBack.
func (d *Directory) SharerEvicted(addr mem.LineAddr, core int) {
	e := d.Lookup(addr)
	if e == nil {
		return
	}
	e.Sharers &^= 1 << uint(core)
	if e.Owner == core {
		e.Owner = -1
		if e.State == OwnedModified {
			e.State = SharedClean
		}
	}
	if e.Sharers == 0 {
		e.reset()
	}
}

// SharerWroteBack records that core evicted a dirty private copy of addr and
// wrote the data back to the L3.
func (d *Directory) SharerWroteBack(addr mem.LineAddr, core int) {
	e := d.Lookup(addr)
	if e == nil {
		return
	}
	e.Sharers &^= 1 << uint(core)
	if e.Owner == core {
		e.Owner = -1
	}
	if e.Sharers == 0 {
		e.reset()
	} else {
		e.State = SharedClean
	}
}

// InvalidateLine is called when the L3 itself drops addr (inclusion victim,
// refresh-policy invalidation, or decay).  It returns the action needed to
// keep the hierarchy inclusive: every private copy must be invalidated, and
// a Modified private copy must be written back (to DRAM, since the L3 copy
// is going away).
func (d *Directory) InvalidateLine(addr mem.LineAddr) Action {
	act := Action{DowngradeCore: -1}
	e := d.Lookup(addr)
	if e == nil {
		return act
	}
	act.Invalidates = CoreSet(e.Sharers)
	d.invalidationsSent += int64(act.Invalidates.Len())
	if e.Owner >= 0 {
		// Either a recorded Modified owner or an exclusive grant holder that
		// may have silently modified its copy.
		act.DirtyForward = e.State == OwnedModified
		if act.DirtyForward {
			d.dirtyForwards++
		}
	}
	d.remove(addr)
	return act
}

// HasUpperCopies reports whether any private cache still holds addr.
func (d *Directory) HasUpperCopies(addr mem.LineAddr) bool {
	e := d.Lookup(addr)
	return e != nil && e.Sharers != 0
}

// OwnedDirtyAbove reports whether some private cache holds addr Modified,
// i.e. the L3's copy may be stale.  The refresh policies cannot see this
// (Section 3.2 "the policies are unable to disambiguate lines that, within
// the same state, behave differently"), but the simulator needs it to keep
// the data correct when such a line is invalidated.
func (d *Directory) OwnedDirtyAbove(addr mem.LineAddr) bool {
	e := d.Lookup(addr)
	return e != nil && e.State == OwnedModified
}
