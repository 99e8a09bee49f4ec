// Package cache implements the set-associative cache arrays used at every
// level of the simulated hierarchy: lookup, LRU replacement, line state
// bookkeeping, and flat per-line indexing that the refresh machinery
// (package core) uses to address lines from sentry interrupts and periodic
// group schedules.  The refresh machinery keeps its own per-line state.
//
// A Cache models one bank.  Multi-bank caches (the shared L3) are built by
// the higher layers as one Cache per bank with addresses interleaved across
// banks.
//
// # Layout
//
// The per-line metadata is kept as a struct of arrays: tags, states and LRU
// stamps live in parallel slices indexed by the line's flat frame number.
// The lookup scan — the hottest loop in the simulator — therefore walks a
// dense []mem.LineAddr tag array (8 bytes per way instead of one mem.Line
// per way), and touches the other arrays only for the single matching
// frame.  Callers address lines through
// integer Frame handles; the flat index a frame handle carries IS the value
// the refresh machinery schedules by, so the old pointer->index translation
// (IndexOf) is now the identity function.
package cache

import (
	"fmt"

	"refrint/internal/config"
	"refrint/internal/mem"
)

// Frame is a handle to one line frame of a bank: its flat index in
// [0, NumLines).  Frames are dense and stable for the life of the bank —
// the refresh machinery schedules sentry deadlines and periodic sweep
// ranges directly over frame numbers.
type Frame int32

// NoFrame is the invalid frame handle returned by failed lookups.
const NoFrame Frame = -1

// Cache is one bank of a set-associative cache.
type Cache struct {
	cfg   config.CacheConfig
	sets  int
	ways  int
	shift uint // index shift (bank-select bits), hoisted from the config
	// setMask is sets-1 when the set count is a power of two (the common
	// case), letting setOf mask instead of divide; -1 otherwise.
	setMask int

	// Parallel per-frame arrays (struct of arrays); set s occupies frames
	// [s*ways, (s+1)*ways).  tags and states carry the way scan; lru is
	// touched per-frame only.
	tags   []mem.LineAddr // full line address (tag + index combined)
	states []mem.State    // MESI state; Invalid marks a free frame
	// lru is the replacement timestamp, which is also the cycle of the
	// last normal access: only Touch writes it.
	lru []int64
}

// New returns an empty cache bank of the given configuration.  It returns
// the bank by value so that the refresh bank (package core) can hold its
// array in place.
func New(cfg config.CacheConfig) Cache {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("cache: invalid config: %v", err))
	}
	sets := cfg.Sets()
	mask := -1
	if sets > 0 && sets&(sets-1) == 0 {
		mask = sets - 1
	}
	n := sets * cfg.Ways
	return Cache{
		cfg:     cfg,
		sets:    sets,
		ways:    cfg.Ways,
		shift:   uint(cfg.IndexShift),
		setMask: mask,
		tags:    make([]mem.LineAddr, n),
		states:  make([]mem.State, n),
		lru:     make([]int64, n),
	}
}

// Config returns the bank's configuration.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// NumLines returns the number of line frames in the bank.
func (c *Cache) NumLines() int { return len(c.tags) }

// setOf maps a line address to its set index within this bank.  Banked
// caches skip the bank-select bits via the configuration's IndexShift so
// that all sets of the bank are usable.
//
//refrint:alloc-free
func (c *Cache) setOf(addr mem.LineAddr) int {
	idx := uint64(addr) >> c.shift
	if c.setMask >= 0 {
		return int(idx) & c.setMask
	}
	return int(idx % uint64(c.sets))
}

// IndexOf returns the flat index of a frame handle.  It is the identity
// function — the handle IS the index — and survives only so call sites read
// as "give me the schedulable index of this frame".
//
//refrint:alloc-free
func (c *Cache) IndexOf(f Frame) int { return int(f) }

// --- Per-frame accessors ---------------------------------------------------
//
// Each accessor is a single indexed load or store into one of the parallel
// arrays; the compiler inlines them, so consumers pay exactly what the old
// field access on *mem.Line cost, without holding interior pointers.

// Tag returns the line address held by a frame (meaningful while valid).
//
//refrint:alloc-free
func (c *Cache) Tag(f Frame) mem.LineAddr { return c.tags[f] }

// State returns the MESI state of a frame.
//
//refrint:alloc-free
func (c *Cache) State(f Frame) mem.State { return c.states[f] }

// SetState stores a frame's MESI state without any occupancy accounting;
// package core's Bank.SetState wraps it with the group-counter bookkeeping.
//
//refrint:alloc-free
func (c *Cache) SetState(f Frame, s mem.State) { c.states[f] = s }

// Valid reports whether a frame currently holds usable data.
//
//refrint:alloc-free
func (c *Cache) Valid(f Frame) bool { return c.states[f] != mem.Invalid }

// Dirty reports whether a frame holds data that must be written back.
//
//refrint:alloc-free
func (c *Cache) Dirty(f Frame) bool { return c.states[f] == mem.Modified }

// States returns the per-frame MESI state array, indexed by Frame.  The
// sentry drain in package core reads it in place rather than through the
// per-frame accessors.  The slice stays valid for the life of the Cache.
//
//refrint:alloc-free
func (c *Cache) States() []mem.State { return c.states }

// Line materializes a copy of the frame's metadata as a mem.Line value —
// the vocabulary type victim copies and the invariant checker speak.
func (c *Cache) Line(f Frame) mem.Line {
	return mem.Line{
		Tag:   c.tags[f],
		State: c.states[f],
		LRU:   c.lru[f],
	}
}

// Reset returns a frame to the invalid, zero state: every array entry is
// zeroed, including the tag, so a freed frame can never tag-match a later
// probe for address 0 differently than the array-of-structs reference
// model does.
//
//refrint:alloc-free
func (c *Cache) Reset(f Frame) {
	c.tags[f] = 0
	c.states[f] = mem.Invalid
	c.lru[f] = 0
}

// --- Lookup, replacement, state transitions --------------------------------

// Probe looks up addr and returns its frame if present with a valid state.
// It does not update replacement state; use Touch for that.  The scan is
// branch-light: one tag compare per way over the dense tag array, with the
// state check only on a tag match (a zeroed tag can match address 0, which
// the state check rejects exactly as the old Valid() test did).
//
//refrint:alloc-free
func (c *Cache) Probe(addr mem.LineAddr) (Frame, bool) {
	base := c.setOf(addr) * c.ways
	tags := c.tags[base : base+c.ways]
	for i := range tags {
		if tags[i] == addr && c.states[base+i] != mem.Invalid {
			return Frame(base + i), true
		}
	}
	return NoFrame, false
}

// Touch marks a hit on a frame at cycle `now`: it updates the LRU stamp,
// which is also the last-touch time.  (Package core records the implicit
// refresh that the access performs on eDRAM.)
//
//refrint:alloc-free
func (c *Cache) Touch(f Frame, now int64) {
	c.lru[f] = now
}

// Victim returns the frame that Insert would replace for addr: the first
// invalid frame in the set if one exists, otherwise the LRU valid frame
// (first-encountered on an LRU tie, matching the old scan order).
//
//refrint:alloc-free
func (c *Cache) Victim(addr mem.LineAddr) Frame {
	base := c.setOf(addr) * c.ways
	states := c.states[base : base+c.ways]
	for i := range states {
		if states[i] == mem.Invalid {
			return Frame(base + i)
		}
	}
	v := base
	for i := base + 1; i < base+c.ways; i++ {
		if c.lru[i] < c.lru[v] {
			v = i
		}
	}
	return Frame(v)
}

// Insert places addr into the cache with the given state at cycle now and
// returns the frame used plus a copy of the evicted line (evicted reports
// whether a valid line was displaced).  The caller is responsible for
// writing back the victim if it was dirty and for maintaining inclusion.
func (c *Cache) Insert(addr mem.LineAddr, state mem.State, now int64) (f Frame, victim mem.Line, evicted bool) {
	f = c.Victim(addr)
	victim = c.Line(f)
	evicted = victim.Valid()
	c.Reset(f)
	c.tags[f] = addr
	c.states[f] = state
	c.Touch(f, now)
	return f, victim, evicted
}

// ForEachValid calls fn for every valid frame.  fn may mutate the frame
// (including resetting it).
func (c *Cache) ForEachValid(fn func(f Frame)) {
	for i := range c.states {
		if c.states[i] != mem.Invalid {
			fn(Frame(i))
		}
	}
}

// ValidCount returns the number of valid lines.
func (c *Cache) ValidCount() int {
	n := 0
	for _, s := range c.states {
		if s != mem.Invalid {
			n++
		}
	}
	return n
}

// DirtyCount returns the number of dirty (Modified) lines.
func (c *Cache) DirtyCount() int {
	n := 0
	for _, s := range c.states {
		if s == mem.Modified {
			n++
		}
	}
	return n
}

// FlushCount invalidates every line and returns how many were dirty, for
// the end-of-run flush, which charges writeback counts.
func (c *Cache) FlushCount() int64 {
	n := int64(0)
	for _, s := range c.states {
		if s == mem.Modified {
			n++
		}
	}
	c.Clear()
	return n
}

// Clear invalidates every frame, returning the bank to the state New
// leaves it in; it zeroes every parallel array in one memclr each.
func (c *Cache) Clear() {
	clear(c.tags)
	clear(c.states)
	clear(c.lru)
}
