package mem

import (
	"testing"
	"testing/quick"
)

func TestNewLineGeometryPanicsOnBadSize(t *testing.T) {
	for _, size := range []int{0, -1, 3, 48, 65, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLineGeometry(%d) did not panic", size)
				}
			}()
			NewLineGeometry(size)
		}()
	}
}

func TestLineGeometryPowersOfTwo(t *testing.T) {
	for _, size := range []int{1, 2, 16, 32, 64, 128, 256} {
		g := NewLineGeometry(size)
		if got := g.LineSize; got != size {
			t.Errorf("LineSize = %d, want %d", got, size)
		}
	}
}

func TestLineOfAndBaseOf(t *testing.T) {
	g := NewLineGeometry(64)
	tests := []struct {
		addr Addr
		line LineAddr
		base Addr
	}{
		{0, 0, 0},
		{1, 0, 0},
		{63, 0, 0},
		{64, 1, 64},
		{65, 1, 64},
		{128, 2, 128},
		{0xFFFF, 0x3FF, 0xFFC0},
	}
	for _, tt := range tests {
		if got := g.LineOf(tt.addr); got != tt.line {
			t.Errorf("LineOf(%#x) = %#x, want %#x", tt.addr, got, tt.line)
		}
		if got := g.BaseOf(tt.line); got != tt.base {
			t.Errorf("BaseOf(%#x) = %#x, want %#x", tt.line, got, tt.base)
		}
	}
}

func TestLineGeometryRoundTripProperty(t *testing.T) {
	g := NewLineGeometry(64)
	// For any address a, BaseOf(LineOf(a)) is the start of the 64-byte line
	// holding a.
	f := func(a uint64) bool {
		base := uint64(g.BaseOf(g.LineOf(Addr(a))))
		return base <= a && a-base < 64 && base%64 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLineGeometrySameLineProperty(t *testing.T) {
	g := NewLineGeometry(128)
	// Any two addresses within the same 128-byte block map to the same line.
	f := func(a uint64, off uint8) bool {
		base := a &^ uint64(127)
		return g.LineOf(Addr(base)) == g.LineOf(Addr(base+uint64(off)%128))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	tests := []struct {
		s    State
		want string
	}{
		{Invalid, "I"},
		{Shared, "S"},
		{Exclusive, "E"},
		{Modified, "M"},
		{State(9), "State(9)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", uint8(tt.s), got, tt.want)
		}
	}
}

func TestStatePredicates(t *testing.T) {
	if Invalid.Valid() {
		t.Error("Invalid.Valid() = true")
	}
	for _, s := range []State{Shared, Exclusive, Modified} {
		if !s.Valid() {
			t.Errorf("%v.Valid() = false", s)
		}
	}
	if !Modified.Dirty() {
		t.Error("Modified.Dirty() = false")
	}
	for _, s := range []State{Invalid, Shared, Exclusive} {
		if s.Dirty() {
			t.Errorf("%v.Dirty() = true", s)
		}
	}
}

func TestAccessTypeString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || InstrFetch.String() != "ifetch" {
		t.Errorf("unexpected AccessType strings: %v %v %v", Read, Write, InstrFetch)
	}
	if AccessType(7).String() != "AccessType(7)" {
		t.Errorf("unexpected fallback string: %v", AccessType(7))
	}
}

func TestLineZeroValueIsInvalid(t *testing.T) {
	var l Line
	if l.Valid() {
		t.Error("zero Line should be invalid")
	}
	if l.Dirty() {
		t.Error("zero Line should not be dirty")
	}
}
