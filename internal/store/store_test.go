package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// payload is a representative structured value for round-trip tests.
type payload struct {
	Name  string    `json:"name"`
	Value float64   `json:"value"`
	Runs  []int64   `json:"runs"`
	Sub   *struct { // pointer field, like sim.Result.Stats
		X int `json:"x"`
	} `json:"sub,omitempty"`
}

func testPayload(i int) payload {
	return payload{
		Name:  fmt.Sprintf("payload-%d", i),
		Value: float64(i) * 1.5,
		Runs:  []int64{int64(i), int64(i * i)},
	}
}

func open(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func key(i int) string { return fmt.Sprintf("%032x", i) }

func TestRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})

	want := testPayload(7)
	if err := s.Put(KindCell, key(7), want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	var got payload
	if !s.Get(KindCell, key(7), &got) {
		t.Fatal("Get missed a just-put key")
	}
	if got.Name != want.Name || got.Value != want.Value || len(got.Runs) != 2 {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}

	// Kinds are separate namespaces: the same key under KindSweep is a miss.
	if s.Get(KindSweep, key(7), &got) {
		t.Fatal("kinds share a namespace")
	}
	// Unknown keys miss without error.
	if s.Get(KindCell, key(8), &got) {
		t.Fatal("Get hit an absent key")
	}

	st := s.Stats()
	if st.CellHits != 1 || st.CellMisses != 1 || st.SweepMisses != 1 {
		t.Errorf("stats = %+v, want 1 cell hit, 1 cell miss, 1 sweep miss", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats = %+v, want 1 entry with positive bytes", st)
	}
}

func TestRestartSurvival(t *testing.T) {
	dir := t.TempDir()

	s1 := open(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s1.Put(KindCell, key(i), testPayload(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := s1.Put(KindSweep, key(100), testPayload(100)); err != nil {
		t.Fatalf("Put sweep: %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh store over the same directory serves every blob.
	s2 := open(t, dir, Options{})
	if got := s2.Stats().Entries; got != 6 {
		t.Fatalf("reopened store indexes %d blobs, want 6", got)
	}
	for i := 0; i < 5; i++ {
		var got payload
		if !s2.Get(KindCell, key(i), &got) {
			t.Fatalf("cell %d lost across restart", i)
		}
		if got.Name != testPayload(i).Name {
			t.Fatalf("cell %d decoded as %+v", i, got)
		}
	}
	var sweepGot payload
	if !s2.Get(KindSweep, key(100), &sweepGot) {
		t.Fatal("sweep blob lost across restart")
	}
}

// TestRestartWithoutIndex verifies the index is a cache, not a source of
// truth: deleting it leaves every blob reachable after reopen.
func TestRestartWithoutIndex(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, Options{})
	if err := s1.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if err := os.Remove(filepath.Join(dir, "v1", "index.json")); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	var got payload
	if !s2.Get(KindCell, key(1), &got) {
		t.Fatal("blob unreachable after index deletion")
	}
}

func TestCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindCell, key(2), testPayload(2)); err != nil {
		t.Fatal(err)
	}

	// Flip payload bytes inside blob 1 (checksum mismatch) and truncate
	// blob 2 (parse failure).
	p1 := filepath.Join(dir, "v1", "cells", key(1)[:2], key(1)+".json")
	data, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(data), "payload-1", "payload-X", 1)
	if corrupted == string(data) {
		t.Fatal("test setup: payload marker not found in blob")
	}
	if err := os.WriteFile(p1, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, "v1", "cells", key(2)[:2], key(2)+".json")
	if err := os.WriteFile(p2, data[:10], 0o644); err != nil {
		t.Fatal(err)
	}

	var got payload
	if s.Get(KindCell, key(1), &got) {
		t.Error("checksum-corrupted blob served as a hit")
	}
	if s.Get(KindCell, key(2), &got) {
		t.Error("truncated blob served as a hit")
	}
	st := s.Stats()
	if st.Quarantined != 2 {
		t.Errorf("quarantined = %d, want 2", st.Quarantined)
	}
	if st.Entries != 0 {
		t.Errorf("entries = %d after quarantine, want 0", st.Entries)
	}
	// The evidence is preserved, not deleted.
	q, err := os.ReadDir(filepath.Join(dir, "v1", "quarantine"))
	if err != nil || len(q) != 2 {
		t.Errorf("quarantine dir holds %d files (err %v), want 2", len(q), err)
	}
	// A corrupted key is writable again and then served intact.
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}
	if !s.Get(KindCell, key(1), &got) || got.Name != "payload-1" {
		t.Errorf("re-put after quarantine not served: %+v", got)
	}
}

// TestQuarantineSparesReplacedEntry covers a Get whose blob read fails
// (the blob was evicted mid-read, say) while a re-put of the same key
// indexes a new blob: quarantining the entry that Get looked up must leave
// the new blob indexed and in place.
func TestQuarantineSparesReplacedEntry(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	stale := s.entries[compositeKey(KindCell, key(1))]
	s.mu.Unlock()
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}

	s.quarantine(stale, errors.New("blob vanished mid-read"))
	if got := s.Stats().Quarantined; got != 0 {
		t.Fatalf("Quarantined = %d, want 0: the re-put replaced the entry", got)
	}
	if !s.Contains(KindCell, key(1)) {
		t.Fatal("the re-put blob was dropped from the index")
	}
	var got payload
	if !s.Get(KindCell, key(1), &got) || got.Name != testPayload(1).Name {
		t.Fatalf("the re-put blob is not served (got %+v)", got)
	}
}

// TestEvictionUnderByteBudget pins LRU eviction, on disk and in a
// memory-only store: past the byte budget the least recently used blobs go,
// and a read protects a blob however old its put.
func TestEvictionUnderByteBudget(t *testing.T) {
	for _, mode := range []struct {
		name string
		dir  func() string
	}{
		{"disk", t.TempDir},
		{"memory", func() string { return "" }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := mode.dir()
			// Measure one blob's size, then budget for about three.
			probe := open(t, mode.dir(), Options{})
			if err := probe.Put(KindCell, key(0), testPayload(0)); err != nil {
				t.Fatal(err)
			}
			blobBytes := probe.Stats().Bytes
			if blobBytes <= 0 {
				t.Fatal("probe blob has no size")
			}

			s := open(t, dir, Options{MaxBytes: 3*blobBytes + blobBytes/2})
			for i := 0; i < 10; i++ {
				if err := s.Put(KindCell, key(i), testPayload(i)); err != nil {
					t.Fatalf("Put %d: %v", i, err)
				}
			}
			st := s.Stats()
			if st.Bytes > 3*blobBytes+blobBytes/2 {
				t.Errorf("store holds %d bytes, budget %d", st.Bytes, 3*blobBytes+blobBytes/2)
			}
			if st.Evictions == 0 {
				t.Error("no evictions recorded under a tight budget")
			}
			// The most recent keys survive; the oldest are gone, from disk too.
			var got payload
			if !s.Get(KindCell, key(9), &got) {
				t.Error("most recent key evicted")
			}
			if s.Get(KindCell, key(0), &got) {
				t.Error("oldest key survived a 3-blob budget over 10 puts")
			}
			if dir != "" {
				if _, err := os.Stat(filepath.Join(dir, "v1", "cells", key(0)[:2], key(0)+".json")); !os.IsNotExist(err) {
					t.Errorf("evicted blob still on disk (err %v)", err)
				}
			}

			// LRU, not FIFO: touching the oldest survivor protects it, so the
			// next evictions take the colder (though later-inserted) keys
			// instead.
			if !s.Get(KindCell, key(7), &got) {
				t.Fatal("key 7 unexpectedly evicted")
			}
			for i := 20; i < 22; i++ {
				if err := s.Put(KindCell, key(i), testPayload(i)); err != nil {
					t.Fatal(err)
				}
			}
			if !s.Get(KindCell, key(7), &got) {
				t.Error("recently touched key evicted before colder ones")
			}
			if s.Get(KindCell, key(8), &got) {
				t.Error("cold key survived while the budget was exceeded")
			}
		})
	}
}

// TestContainsCountsAsUse checks that a hit of Contains is a use for the LRU
// budget: of two entries, the older one read only with Contains outlives the
// newer one nobody read.
func TestContainsCountsAsUse(t *testing.T) {
	for _, mode := range []struct {
		name string
		dir  func() string
	}{
		{"disk", t.TempDir},
		{"memory", func() string { return "" }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			probe := open(t, mode.dir(), Options{})
			if err := probe.Put(KindSweep, key(0), testPayload(0)); err != nil {
				t.Fatal(err)
			}
			blobBytes := probe.Stats().Bytes

			// Room for two blobs: the third put evicts one of the first two.
			s := open(t, mode.dir(), Options{MaxBytes: 2*blobBytes + blobBytes/2})
			for i := 1; i <= 2; i++ {
				if err := s.Put(KindSweep, key(i), testPayload(i)); err != nil {
					t.Fatal(err)
				}
			}
			if !s.Contains(KindSweep, key(1)) {
				t.Fatal("Contains missed a fresh entry")
			}
			if err := s.Put(KindSweep, key(3), testPayload(3)); err != nil {
				t.Fatal(err)
			}
			if n := s.Stats().Evictions; n != 1 {
				t.Fatalf("%d evictions, want 1", n)
			}
			if !s.Contains(KindSweep, key(1)) {
				t.Error("entry read with Contains evicted before a colder one")
			}
			if s.Contains(KindSweep, key(2)) {
				t.Error("colder entry survived while the budget was exceeded")
			}
		})
	}
}

// TestOversizedBlobStillPersists verifies a single blob larger than the
// budget is kept (the store never evicts its way to uselessness).
func TestOversizedBlobStillPersists(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxBytes: 16})
	if err := s.Put(KindSweep, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Get(KindSweep, key(1), &got) {
		t.Fatal("oversized blob not retained")
	}
}

func TestRejectsUnsafeKeys(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	for _, bad := range []string{"", "../escape", "a/b", "a b", ".hidden"} {
		if err := s.Put(KindCell, bad, testPayload(1)); err == nil {
			t.Errorf("Put accepted unsafe key %q", bad)
		}
		var got payload
		if s.Get(KindCell, bad, &got) {
			t.Errorf("Get hit unsafe key %q", bad)
		}
	}
	if err := s.Put(Kind("elsewhere"), key(1), testPayload(1)); err == nil {
		t.Error("Put accepted an unknown kind")
	}
}

// TestConcurrentReadersWriters hammers the store from many goroutines; run
// with -race.  Readers and writers overlap on the same keys, and every
// completed Get must decode to the exact payload some Put wrote.
func TestConcurrentReadersWriters(t *testing.T) {
	s := open(t, t.TempDir(), Options{})

	const (
		workers = 8
		keys    = 16
		iters   = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := key((w + i) % keys)
				if i%2 == 0 {
					if err := s.Put(KindCell, k, testPayload((w+i)%keys)); err != nil {
						t.Errorf("worker %d: Put: %v", w, err)
						return
					}
				} else {
					var got payload
					if s.Get(KindCell, k, &got) {
						if want := testPayload((w + i) % keys); got.Name != want.Name {
							t.Errorf("worker %d: got %q, want %q", w, got.Name, want.Name)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if err := s.Close(); err != nil {
		t.Fatalf("Close after stress: %v", err)
	}
	// The index written under concurrency must reopen cleanly.
	s2 := open(t, s.Dir(), Options{})
	if s2.Stats().Entries == 0 {
		t.Error("no entries survived the concurrent stress")
	}
}

// TestIndexIsValidJSON pins the on-disk index format.  Index writes are
// batched, so Close (which always writes it) comes first.
func TestIndexIsValidJSON(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "v1", "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	var idx struct {
		Version int `json:"version"`
		Entries []struct {
			Kind  string `json:"kind"`
			Key   string `json:"key"`
			Bytes int64  `json:"bytes"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &idx); err != nil {
		t.Fatalf("index is not valid JSON: %v", err)
	}
	if idx.Version != Version || len(idx.Entries) != 1 || idx.Entries[0].Kind != "cells" {
		t.Errorf("index = %+v", idx)
	}
}

// TestMemoryOnly verifies a store opened without a directory serves what
// it was given from memory, holds more entries than a disk store absorbs
// while degraded, and leaves no file behind.
func TestMemoryOnly(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadDir(wd)
	s := open(t, "", Options{})
	const n = 300 // more than maxAbsorbed
	for i := 0; i < n; i++ {
		if err := s.Put(KindCell, key(i), testPayload(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	var got payload
	for i := 0; i < n; i++ {
		if !s.Contains(KindCell, key(i)) || !s.Get(KindCell, key(i), &got) || got.Name != testPayload(i).Name {
			t.Fatalf("key %d not served from memory (got %+v)", i, got)
		}
	}
	if st := s.Stats(); st.Entries != n || st.Bytes <= 0 || st.CellHits != n {
		t.Errorf("stats = %+v, want %d entries and hits", st, n)
	}
	if s.Dir() != "" {
		t.Errorf("Dir = %q", s.Dir())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if after, _ := os.ReadDir(wd); len(after) != len(before) {
		t.Errorf("memory-only store created files in %s", wd)
	}
}

// TestAccessOrderSurvivesRestart verifies the LRU order round-trips
// through the index: a reopened store evicts the colder blob first, even
// when it was put later.  An index written with per-entry "rank" fields, as
// stores that ranked their entries wrote it, loads with every entry and its
// access order; the field is ignored.
func TestAccessOrderSurvivesRestart(t *testing.T) {
	probe := open(t, t.TempDir(), Options{})
	if err := probe.Put(KindCell, key(0), testPayload(0)); err != nil {
		t.Fatal(err)
	}
	blobBytes := probe.Stats().Bytes

	// reopenAndPut reopens dir with room for two blobs, puts a third, and
	// checks that the warm key stayed and the cold one went.
	reopenAndPut := func(t *testing.T, dir string, warm, cold int) {
		t.Helper()
		s := open(t, dir, Options{MaxBytes: 2*blobBytes + blobBytes/2})
		if st := s.Stats(); st.Entries != 2 {
			t.Fatalf("reopened store holds %d entries, want 2", st.Entries)
		}
		// Opening does not evict; the next put triggers the budget check.
		if err := s.Put(KindCell, key(3), testPayload(3)); err != nil {
			t.Fatal(err)
		}
		var got payload
		if !s.Get(KindCell, key(warm), &got) {
			t.Errorf("key %d, the more recently used, evicted after restart", warm)
		}
		if s.Get(KindCell, key(cold), &got) {
			t.Errorf("key %d, the colder, survived after restart under byte pressure", cold)
		}
	}

	t.Run("touched", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir, Options{MaxBytes: 100 * blobBytes})
		for i := 1; i <= 2; i++ {
			if err := s.Put(KindCell, key(i), testPayload(i)); err != nil {
				t.Fatal(err)
			}
		}
		var got payload
		if !s.Get(KindCell, key(1), &got) { // key 1 is now the warmer
			t.Fatal("key 1 not served")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		reopenAndPut(t, dir, 1, 2)
	})

	t.Run("legacy_index", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir, Options{MaxBytes: 100 * blobBytes})
		for i := 1; i <= 2; i++ {
			if err := s.Put(KindCell, key(i), testPayload(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Rewrite the index as a ranked store left it: key 1 is the warmer
		// but carries the rank that was evicted first.
		var idx map[string]any
		path := filepath.Join(dir, "v1", "index.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &idx); err != nil {
			t.Fatal(err)
		}
		for _, raw := range idx["entries"].([]any) {
			e := raw.(map[string]any)
			switch e["key"] {
			case key(1):
				e["access"], e["rank"] = 20, 2
			case key(2):
				e["access"], e["rank"] = 10, 1
			}
		}
		idx["clock"] = 20
		if data, err = json.Marshal(idx); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reopenAndPut(t, dir, 1, 2)
	})
}
