package coherence

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"refrint/internal/mem"
)

// newDirectory returns a zero Directory after Reset, as the simulator
// builds one.
func newDirectory() *Directory {
	d := new(Directory)
	d.Reset()
	return d
}

func TestDirStateString(t *testing.T) {
	if Uncached.String() != "U" || SharedClean.String() != "S" || OwnedModified.String() != "M" {
		t.Error("DirState strings wrong")
	}
	if DirState(9).String() != "?" {
		t.Error("unknown state should render as ?")
	}
}

func TestReadFromUncached(t *testing.T) {
	d := newDirectory()
	act := d.Read(0x10, 3)
	if !act.Invalidates.Empty() || act.DowngradeCore != -1 || act.DirtyForward {
		t.Errorf("read of uncached line should need no coherence work: %+v", act)
	}
	e := d.Lookup(0x10)
	if e == nil || !e.HasSharer(3) || e.State != SharedClean || e.NumSharers() != 1 {
		t.Errorf("directory entry wrong: %+v", e)
	}
}

func TestMultipleReaders(t *testing.T) {
	d := newDirectory()
	d.Read(0x10, 1)
	d.Read(0x10, 2)
	act := d.Read(0x10, 5)
	if !act.Invalidates.Empty() {
		t.Error("readers never invalidate each other")
	}
	e := d.Lookup(0x10)
	if e.NumSharers() != 3 {
		t.Errorf("NumSharers = %d, want 3", e.NumSharers())
	}
	if got := e.SharerList(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 5 {
		t.Errorf("SharerList = %v", got)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := newDirectory()
	d.Read(0x20, 0)
	d.Read(0x20, 1)
	d.Read(0x20, 2)
	act := d.Write(0x20, 1)
	if act.Invalidates.Len() != 2 {
		t.Fatalf("invalidations = %v, want cores 0 and 2", act.Invalidates)
	}
	if act.Invalidates.Contains(1) {
		t.Error("writer must not invalidate itself")
	}
	if !act.Invalidates.Contains(0) || !act.Invalidates.Contains(2) {
		t.Errorf("invalidations = %v, want cores 0 and 2", act.Invalidates)
	}
	e := d.Lookup(0x20)
	if e.State != OwnedModified || e.Owner != 1 || e.NumSharers() != 1 || !e.HasSharer(1) {
		t.Errorf("after write: %+v", e)
	}
	if d.InvalidationsSent() != 2 {
		t.Errorf("InvalidationsSent = %d, want 2", d.InvalidationsSent())
	}
}

func TestReadOfModifiedLineDowngradesOwner(t *testing.T) {
	d := newDirectory()
	d.Write(0x30, 4)
	act := d.Read(0x30, 7)
	if act.DowngradeCore != 4 {
		t.Errorf("DowngradeCore = %d, want 4", act.DowngradeCore)
	}
	if !act.DirtyForward || !act.WritebackToL3 {
		t.Error("reading a modified line must forward dirty data and write it to L3")
	}
	e := d.Lookup(0x30)
	if e.State != SharedClean || e.Owner != -1 {
		t.Errorf("after downgrade: %+v", e)
	}
	if !e.HasSharer(4) || !e.HasSharer(7) {
		t.Error("both the old owner and the reader should be sharers")
	}
	if d.DowngradesSent() != 1 || d.DirtyForwards() != 1 {
		t.Errorf("counters: downgrades=%d forwards=%d", d.DowngradesSent(), d.DirtyForwards())
	}
}

func TestOwnerReadAndWriteAreSilent(t *testing.T) {
	d := newDirectory()
	d.Write(0x40, 2)
	if act := d.Read(0x40, 2); act.DowngradeCore != -1 || act.DirtyForward {
		t.Errorf("owner read should be silent: %+v", act)
	}
	if act := d.Write(0x40, 2); !act.Invalidates.Empty() || act.DirtyForward {
		t.Errorf("owner write should be silent: %+v", act)
	}
	e := d.Lookup(0x40)
	if e.State != OwnedModified || e.Owner != 2 {
		t.Errorf("owner state lost: %+v", e)
	}
}

func TestWriteAfterModifiedByOther(t *testing.T) {
	d := newDirectory()
	d.Write(0x50, 0)
	act := d.Write(0x50, 9)
	if act.Invalidates.Len() != 1 || !act.Invalidates.Contains(0) {
		t.Errorf("invalidations = %v, want {0}", act.Invalidates)
	}
	if !act.DirtyForward {
		t.Error("dirty data must be forwarded from the previous owner")
	}
	e := d.Lookup(0x50)
	if e.Owner != 9 || e.State != OwnedModified {
		t.Errorf("new owner wrong: %+v", e)
	}
}

func TestSharerEvicted(t *testing.T) {
	d := newDirectory()
	d.Read(0x60, 1)
	d.Read(0x60, 2)
	d.SharerEvicted(0x60, 1)
	e := d.Lookup(0x60)
	if e.HasSharer(1) || !e.HasSharer(2) {
		t.Errorf("sharers after evict: %+v", e)
	}
	d.SharerEvicted(0x60, 2)
	if e := d.Lookup(0x60); e.State != Uncached || e.Sharers != 0 {
		t.Errorf("entry should reset when last sharer leaves: %+v", e)
	}
	// Evicting from an untracked line must not panic.
	d.SharerEvicted(0xdead, 5)
}

func TestSharerWroteBack(t *testing.T) {
	d := newDirectory()
	d.Write(0x70, 3)
	d.SharerWroteBack(0x70, 3)
	e := d.Lookup(0x70)
	if e.State != Uncached || e.Owner != -1 {
		t.Errorf("after dirty eviction of sole owner: %+v", e)
	}
	// Owner writes back while another core still shares (possible after a
	// downgrade race in the atomic model): state returns to SharedClean.
	d.Write(0x80, 1)
	d.Read(0x80, 2)
	d.SharerWroteBack(0x80, 1)
	e = d.Lookup(0x80)
	if e.State != SharedClean || e.HasSharer(1) || !e.HasSharer(2) {
		t.Errorf("after owner writeback with remaining sharer: %+v", e)
	}
	d.SharerWroteBack(0xbeef, 1) // untracked: no-op
}

func TestInvalidateLineInclusive(t *testing.T) {
	d := newDirectory()
	d.Read(0x90, 1)
	d.Read(0x90, 2)
	act := d.InvalidateLine(0x90)
	if act.Invalidates.Len() != 2 {
		t.Errorf("inclusive invalidation should hit both sharers: %+v", act)
	}
	if act.DirtyForward {
		t.Error("clean sharers need no writeback")
	}
	if d.Lookup(0x90) != nil {
		t.Error("entry should be removed")
	}

	d.Write(0xa0, 5)
	act = d.InvalidateLine(0xa0)
	if act.Invalidates.Len() != 1 || !act.DirtyForward {
		t.Errorf("invalidating a line owned dirty above must force a writeback: %+v", act)
	}
	// Invalidating an untracked line is a no-op action.
	act = d.InvalidateLine(0xfff)
	if !act.Invalidates.Empty() || act.DirtyForward {
		t.Errorf("untracked invalidation should be empty: %+v", act)
	}
}

func TestHasUpperCopiesAndOwnedDirtyAbove(t *testing.T) {
	d := newDirectory()
	if d.HasUpperCopies(0x1) || d.OwnedDirtyAbove(0x1) {
		t.Error("empty directory should report no copies")
	}
	d.Read(0x1, 0)
	if !d.HasUpperCopies(0x1) || d.OwnedDirtyAbove(0x1) {
		t.Error("shared line: copies yes, dirty no")
	}
	d.Write(0x1, 0)
	if !d.OwnedDirtyAbove(0x1) {
		t.Error("modified line should be dirty above")
	}
}

func TestEntriesCount(t *testing.T) {
	d := newDirectory()
	d.Read(1, 0)
	d.Read(2, 0)
	d.Write(3, 1)
	if d.Entries() != 3 {
		t.Errorf("Entries = %d, want 3", d.Entries())
	}
}

func TestDirectoryInvariantsProperty(t *testing.T) {
	// Property: after any random sequence of reads/writes/evictions,
	// (1) a line in OwnedModified state has exactly one sharer, which is the
	//     owner, and (2) a line in SharedClean state has no owner.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := newDirectory()
		addrs := []mem.LineAddr{1, 2, 3, 4}
		for i := 0; i < 500; i++ {
			addr := addrs[rng.Intn(len(addrs))]
			core := rng.Intn(16)
			switch rng.Intn(4) {
			case 0:
				d.Read(addr, core)
			case 1:
				d.Write(addr, core)
			case 2:
				d.SharerEvicted(addr, core)
			case 3:
				d.InvalidateLine(addr)
			}
			for _, a := range addrs {
				e := d.Lookup(a)
				if e == nil {
					continue
				}
				switch e.State {
				case OwnedModified:
					if e.NumSharers() != 1 || e.Owner < 0 || !e.HasSharer(e.Owner) {
						return false
					}
				case SharedClean:
					if e.Owner != -1 && e.HasSharer(e.Owner) && e.NumSharers() == 0 {
						return false
					}
				case Uncached:
					if e.Sharers != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// dirScript drives a directory through random protocol events over `lines`
// distinct addresses and records every Action and lookup it produces.
func dirScript(d *Directory, rng *rand.Rand, lines int) []any {
	var out []any
	for i := 0; i < 4000; i++ {
		addr := mem.LineAddr(rng.Intn(lines))
		core := rng.Intn(16)
		switch rng.Intn(6) {
		case 0, 1:
			out = append(out, d.Read(addr, core))
		case 2:
			out = append(out, d.Write(addr, core))
		case 3:
			d.SharerEvicted(addr, core)
		case 4:
			d.SharerWroteBack(addr, core)
		case 5:
			out = append(out, d.InvalidateLine(addr))
		}
		if e := d.Lookup(addr); e != nil {
			out = append(out, *e)
		}
	}
	return append(out, d.Entries(), d.InvalidationsSent(), d.DowngradesSent(), d.DirtyForwards())
}

// TestDirectoryResetMatchesFresh pins that a directory whose table grew and
// is then reset forgets everything and answers exactly as a fresh one.
func TestDirectoryResetMatchesFresh(t *testing.T) {
	d := newDirectory()
	dirScript(d, rand.New(rand.NewSource(1)), 4096)
	if len(d.keys) <= dirInitialSlots {
		t.Fatalf("table did not grow: %d slots", len(d.keys))
	}
	d.Reset()
	if d.Entries() != 0 || d.Lookup(7) != nil || d.HasUpperCopies(7) {
		t.Fatalf("after Reset: Entries = %d, Lookup(7) = %v", d.Entries(), d.Lookup(7))
	}
	if d.InvalidationsSent() != 0 || d.DowngradesSent() != 0 || d.DirtyForwards() != 0 {
		t.Fatal("Reset kept the message counters")
	}
	got := dirScript(d, rand.New(rand.NewSource(2)), 300)
	want := dirScript(newDirectory(), rand.New(rand.NewSource(2)), 300)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a reset directory's actions differ from a fresh directory's")
	}
}
