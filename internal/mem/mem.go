// Package mem defines the basic memory-system vocabulary shared by every
// other package in the simulator: physical addresses, cache-line geometry,
// MESI line states and memory access descriptors.
//
// The types here are deliberately small value types; they are copied freely
// between the core model, the cache hierarchy, the coherence directory and
// the refresh machinery.
package mem

import (
	"fmt"
	"math/bits"
)

// Addr is a physical byte address.
type Addr uint64

// LineAddr is a cache-line-aligned address (a physical address with the
// line-offset bits stripped, i.e. Addr >> log2(lineSize)).
type LineAddr uint64

// DefaultLineSize is the line size used throughout the paper (64 bytes).
const DefaultLineSize = 64

// LineGeometry describes how physical addresses map onto cache lines.
type LineGeometry struct {
	LineSize int // bytes per line; must be a power of two
}

// NewLineGeometry returns a LineGeometry for the given line size.
// It panics if lineSize is not a positive power of two.
func NewLineGeometry(lineSize int) LineGeometry {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("mem: line size %d is not a positive power of two", lineSize))
	}
	return LineGeometry{LineSize: lineSize}
}

// offsetBits returns log2(LineSize).  LineSize is a power of two (enforced
// by NewLineGeometry), so this is a single instruction, cheap enough for the
// per-access address mapping of the simulator.
func (g LineGeometry) offsetBits() uint {
	return uint(bits.TrailingZeros(uint(g.LineSize)))
}

// LineOf returns the line address containing a.
func (g LineGeometry) LineOf(a Addr) LineAddr {
	return LineAddr(uint64(a) >> g.offsetBits())
}

// BaseOf returns the first byte address of line l.
func (g LineGeometry) BaseOf(l LineAddr) Addr {
	return Addr(uint64(l) << g.offsetBits())
}

// State is the MESI coherence state of a cache line, as seen by the cache
// that holds it.  The directory at L3 additionally tracks sharer sets (see
// package coherence).
type State uint8

// MESI states.  Invalid must be the zero value so that a zeroed line is
// invalid by construction.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether the state holds data usable by the local cache.
func (s State) Valid() bool { return s != Invalid }

// Dirty reports whether the state implies the line differs from the copy in
// the next lower level (only Modified lines are dirty under MESI).
func (s State) Dirty() bool { return s == Modified }

// AccessType distinguishes the kinds of references a core can issue.
type AccessType uint8

// Access types.
const (
	Read AccessType = iota
	Write
	InstrFetch
)

// String implements fmt.Stringer.
func (t AccessType) String() string {
	switch t {
	case Read:
		return "read"
	case Write:
		return "write"
	case InstrFetch:
		return "ifetch"
	default:
		return fmt.Sprintf("AccessType(%d)", uint8(t))
	}
}

// Access is one memory reference issued by a core.
type Access struct {
	Addr   Addr       // physical byte address
	Type   AccessType // read, write or instruction fetch
	Core   int        // issuing core id
	Gap    int64      // non-memory instructions executed since the previous reference
	Shared bool       // hint from the workload generator: address is in a shared region
}

// Line is the per-line metadata kept by every cache in the hierarchy, as a
// value: a copy of one frame of a cache bank (cache.Cache.Line), which
// stores each field in its own per-frame array.  It is the vocabulary type
// of victim copies and the invariant checker.  The refresh machinery
// (package core) keeps its own per-frame state, indexed by frame.  The zero
// Line is invalid.
type Line struct {
	Tag   LineAddr // full line address (tag + index combined, for simplicity)
	State State
	LRU   int64 // replacement timestamp, also the cycle of the last normal access
}

// Valid reports whether the line currently holds usable data.
func (l *Line) Valid() bool { return l.State.Valid() }

// Dirty reports whether the line must be written back before eviction.
func (l *Line) Dirty() bool { return l.State.Dirty() }
