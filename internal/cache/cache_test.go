package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"refrint/internal/config"
	"refrint/internal/mem"
)

func smallConfig() config.CacheConfig {
	return config.CacheConfig{
		Name:       "test",
		SizeBytes:  4 << 10, // 4 KB
		Ways:       4,
		LineSize:   64,
		AccessTime: 1,
		Write:      config.WriteBack,
		Banks:      1,
		SubArrays:  4,
	}
}

func TestNewGeometry(t *testing.T) {
	c := New(smallConfig())
	if c.NumLines() != 64 {
		t.Errorf("NumLines = %d, want 64", c.NumLines())
	}
	if c.sets != 16 || c.ways != 4 {
		t.Errorf("sets/ways = %d/%d, want 16/4", c.sets, c.ways)
	}
	if c.ValidCount() != 0 || c.DirtyCount() != 0 {
		t.Error("new cache should be empty")
	}
	if c.Config().Name != "test" {
		t.Error("Config() should round-trip")
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	New(config.CacheConfig{SizeBytes: 0})
}

func TestInsertAndProbe(t *testing.T) {
	c := New(smallConfig())
	addr := mem.LineAddr(0x1234)
	if _, ok := c.Probe(addr); ok {
		t.Fatal("empty cache should miss")
	}
	f, _, evicted := c.Insert(addr, mem.Exclusive, 10)
	if evicted {
		t.Error("inserting into an empty set should not evict")
	}
	if c.Tag(f) != addr || c.State(f) != mem.Exclusive {
		t.Errorf("frame = %+v", c.Line(f))
	}
	got, ok := c.Probe(addr)
	if !ok || c.Tag(got) != addr {
		t.Fatal("probe after insert should hit")
	}
	if c.ValidCount() != 1 {
		t.Errorf("ValidCount = %d, want 1", c.ValidCount())
	}
}

func TestTouchUpdatesRecencyAndRefresh(t *testing.T) {
	c := New(smallConfig())
	f, _, _ := c.Insert(0x10, mem.Shared, 5)
	if c.lru[f] != 5 {
		t.Errorf("Insert should touch the line: %+v", c.Line(f))
	}
	c.Touch(f, 42)
	if c.lru[f] != 42 {
		t.Errorf("Touch did not update stamps: %+v", c.Line(f))
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := smallConfig()
	c := New(cfg)
	sets := c.sets
	// Fill one set completely: addresses that differ by `sets` map to the
	// same set.
	base := mem.LineAddr(3)
	var addrs []mem.LineAddr
	for w := 0; w < cfg.Ways; w++ {
		a := base + mem.LineAddr(w*sets)
		addrs = append(addrs, a)
		c.Insert(a, mem.Exclusive, int64(w))
	}
	// All should still be present.
	for _, a := range addrs {
		if _, ok := c.Probe(a); !ok {
			t.Fatalf("address %#x missing after fill", a)
		}
	}
	// Touch the oldest (addrs[0]) so addrs[1] becomes LRU.
	f, _ := c.Probe(addrs[0])
	c.Touch(f, 100)
	newAddr := base + mem.LineAddr(cfg.Ways*sets)
	_, victim, evicted := c.Insert(newAddr, mem.Exclusive, 200)
	if !evicted {
		t.Fatal("inserting into a full set must evict")
	}
	if victim.Tag != addrs[1] {
		t.Errorf("evicted %#x, want LRU line %#x", victim.Tag, addrs[1])
	}
	if _, ok := c.Probe(addrs[1]); ok {
		t.Error("evicted line still present")
	}
	if _, ok := c.Probe(addrs[0]); !ok {
		t.Error("recently touched line was evicted")
	}
}

func TestVictimPrefersInvalidFrame(t *testing.T) {
	c := New(smallConfig())
	c.Insert(0x1, mem.Modified, 1)
	v := c.Victim(0x1 + mem.LineAddr(c.sets)) // same set, different tag
	if c.Valid(v) {
		t.Error("victim should be an invalid frame while the set has free ways")
	}
}

// TestInvalidate drops a line the way package core's Bank.Invalidate does:
// probe, copy the line out, reset its frame.
func TestInvalidate(t *testing.T) {
	c := New(smallConfig())
	c.Insert(0x77, mem.Modified, 1)
	f, ok := c.Probe(0x77)
	if old := c.Line(f); !ok || old.Tag != 0x77 || !old.Dirty() {
		t.Errorf("Line before Reset = %+v, %v", old, ok)
	}
	c.Reset(f)
	if _, ok := c.Probe(0x77); ok {
		t.Error("line still present after Reset")
	}
	if c.Line(f) != (mem.Line{}) {
		t.Errorf("reset frame = %+v, want zeroed", c.Line(f))
	}
}

func TestFrameHandleIsFlatIndex(t *testing.T) {
	c := New(smallConfig())
	f, _, _ := c.Insert(0x5, mem.Exclusive, 1)
	idx := int(f)
	if idx < 0 || idx >= c.NumLines() {
		t.Fatalf("frame %d out of range", idx)
	}
	// The frame's set is recoverable from the flat index: it must lie in
	// the set its address maps to.
	if want := c.setOf(0x5); idx/c.ways != want {
		t.Errorf("frame %d lies in set %d, want %d", f, idx/c.ways, want)
	}
	if got := c.Line(f); got.Tag != 0x5 || got.State != mem.Exclusive {
		t.Errorf("Line(f) = %+v", got)
	}
}

func TestForEachValidAndCounts(t *testing.T) {
	c := New(smallConfig())
	c.Insert(0x1, mem.Modified, 1)
	c.Insert(0x2, mem.Shared, 2)
	c.Insert(0x3, mem.Exclusive, 3)
	seen := 0
	c.ForEachValid(func(f Frame) {
		seen++
		if !c.Valid(f) {
			t.Error("ForEachValid visited an invalid line")
		}
	})
	if seen != 3 {
		t.Errorf("visited %d lines, want 3", seen)
	}
	if c.ValidCount() != 3 || c.DirtyCount() != 1 {
		t.Errorf("counts = %d valid %d dirty", c.ValidCount(), c.DirtyCount())
	}
}

func TestFlushCountCountsDirtyLines(t *testing.T) {
	c := New(smallConfig())
	c.Insert(0x1, mem.Modified, 1)
	c.Insert(0x2, mem.Shared, 2)
	c.Insert(0x3, mem.Modified, 3)
	if n := c.FlushCount(); n != 2 {
		t.Fatalf("FlushCount = %d dirty lines, want 2", n)
	}
	if c.ValidCount() != 0 {
		t.Error("cache not empty after FlushCount")
	}
	c.Insert(0x9, mem.Modified, 4)
	if n := c.FlushCount(); n != 1 {
		t.Fatalf("second FlushCount = %d, want 1", n)
	}
}

func TestInclusionNeverExceedsCapacityProperty(t *testing.T) {
	// Property: after any access sequence, the number of valid lines never
	// exceeds capacity, and every line that Probe hits was inserted and not
	// subsequently evicted or invalidated.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(smallConfig())
		now := int64(0)
		for i := 0; i < 2000; i++ {
			now++
			addr := mem.LineAddr(rng.Intn(256))
			if l, ok := c.Probe(addr); ok {
				c.Touch(l, now)
				continue
			}
			c.Insert(addr, mem.Exclusive, now)
			if c.ValidCount() > c.NumLines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSameSetMappingProperty(t *testing.T) {
	c := New(smallConfig())
	sets := c.sets
	// Property: addresses congruent modulo the set count compete for the
	// same set, so inserting ways+1 of them always evicts exactly one.
	f := func(baseRaw uint16) bool {
		cc := New(smallConfig())
		base := mem.LineAddr(baseRaw % uint16(sets))
		evictions := 0
		for w := 0; w <= cc.ways; w++ {
			_, _, ev := cc.Insert(base+mem.LineAddr(w*sets), mem.Exclusive, int64(w))
			if ev {
				evictions++
			}
		}
		return evictions == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestClearInvalidatesEveryFrame pins that Clear returns a used bank to the
// state New leaves it in: every frame invalid and zeroed.
func TestClearInvalidatesEveryFrame(t *testing.T) {
	c := New(smallConfig())
	for i := 0; i < 3*c.NumLines(); i++ {
		c.Insert(mem.LineAddr(i*7+1), mem.Modified, int64(i))
	}
	c.Clear()
	for f := Frame(0); int(f) < c.NumLines(); f++ {
		if c.Valid(f) || c.Line(f) != (mem.Line{}) {
			t.Fatalf("frame %d after Clear = %+v, want invalid and zeroed", f, c.Line(f))
		}
	}
	if _, ok := c.Probe(1); ok || c.ValidCount() != 0 {
		t.Fatal("a cleared bank still hits")
	}
}
