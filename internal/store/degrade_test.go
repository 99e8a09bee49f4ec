package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"refrint/internal/faults"
)

// fastOptions keeps retry/probe waits out of test wall-clock.
func fastOptions() Options {
	return Options{
		WriteRetries:  2,
		RetryBase:     time.Millisecond,
		DegradeAfter:  2,
		ProbeInterval: 5 * time.Millisecond,
		Sleep:         func(time.Duration) {},
	}
}

// TestPutErrorReachesCaller verifies a put that exhausts its retries below
// the degradation threshold surfaces the write error to the caller.
func TestPutErrorReachesCaller(t *testing.T) {
	inj, err := faults.Parse("store.put:error")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOptions()
	opt.DegradeAfter = 100 // stay below the threshold for this test
	s := open(t, t.TempDir(), opt)

	faults.Enable(inj)
	t.Cleanup(faults.Disable)
	putErr := s.Put(KindCell, key(1), testPayload(1))
	if putErr == nil {
		t.Fatal("Put succeeded through injected write failures")
	}
	if !strings.Contains(putErr.Error(), "injected fault") {
		t.Fatalf("Put error = %v, want the injected cause", putErr)
	}
	// The failed attempt was retried (initial + WriteRetries attempts).
	if got := s.Stats().WriteRetries; got != int64(opt.WriteRetries) {
		t.Fatalf("WriteRetries = %d, want %d", got, opt.WriteRetries)
	}
}

// TestTransientFailureRetriesThenSucceeds verifies the retry loop recovers
// from a failure window shorter than the retry budget: the put lands on disk
// and the caller never sees an error.
func TestTransientFailureRetriesThenSucceeds(t *testing.T) {
	var mu sync.Mutex
	fails := 2
	opt := fastOptions()
	opt.WriteRetries = 4
	// Flip injection off after two failed attempts, from the backoff hook —
	// the only code that runs between attempts.
	opt.Sleep = func(time.Duration) {
		mu.Lock()
		fails--
		if fails <= 0 {
			faults.Disable()
		}
		mu.Unlock()
	}
	s := open(t, t.TempDir(), opt)

	inj, err := faults.Parse("store.put:error")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	t.Cleanup(faults.Disable)

	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatalf("Put through transient failure: %v", err)
	}
	if !s.Contains(KindCell, key(1)) {
		t.Fatal("retried put did not land on disk")
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("successful retry must not degrade the store")
	}
}

// TestDegradeAndRecover drives the full degradation lifecycle: consecutive
// put failures flip the store to memory-only mode (puts absorbed, readable
// from memory, nothing on disk), and the background probe flips it back
// once injection stops — after which puts persist again.
func TestDegradeAndRecover(t *testing.T) {
	s := open(t, t.TempDir(), fastOptions())

	inj, err := faults.Parse("store.put:error")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	t.Cleanup(faults.Disable)

	// DegradeAfter=2: the first failed put errors, the second trips
	// degraded mode and is absorbed.
	if err := s.Put(KindCell, key(1), testPayload(1)); err == nil {
		t.Fatal("first failing put should error")
	}
	if err := s.Put(KindCell, key(2), testPayload(2)); err != nil {
		t.Fatalf("threshold-crossing put should be absorbed, got %v", err)
	}
	deg, cause := s.Degraded()
	if !deg || !strings.Contains(cause, "injected fault") {
		t.Fatalf("Degraded() = (%v, %q), want degraded with the injected cause", deg, cause)
	}

	// Degraded puts are served from memory: readable, not on disk.
	if err := s.Put(KindCell, key(3), testPayload(3)); err != nil {
		t.Fatalf("degraded put: %v", err)
	}
	var got payload
	if !s.Get(KindCell, key(3), &got) || got.Name != testPayload(3).Name {
		t.Fatalf("degraded put unreadable from memory (got %+v)", got)
	}
	if _, err := os.Stat(s.blobPath(KindCell, key(3))); !os.IsNotExist(err) {
		t.Fatalf("degraded put reached the disk (err=%v)", err)
	}
	st := s.Stats()
	if !st.Degraded || st.DegradedPuts < 2 {
		t.Fatalf("stats = %+v, want Degraded with >= 2 DegradedPuts", st)
	}

	// Recovery: stop injecting and wait for the probe to notice.
	faults.Disable()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if deg, _ := s.Degraded(); !deg {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("store never left degraded mode after faults stopped")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Put(KindCell, key(4), testPayload(4)); err != nil {
		t.Fatalf("post-recovery put: %v", err)
	}
	if _, err := os.Stat(s.blobPath(KindCell, key(4))); err != nil {
		t.Fatalf("post-recovery put did not reach the disk: %v", err)
	}
	// The probe's scratch file must not linger.
	if _, err := os.Lstat(filepath.Join(s.Dir(), "v1", probeFile)); !os.IsNotExist(err) {
		t.Errorf("probe scratch file left behind (err=%v)", err)
	}
}

// TestDegradedPutsAreContained verifies Contains and Stats agree with Get
// for puts absorbed into memory while degraded: a caller that checks
// Contains before reading must not see a cell that Get serves as absent.
func TestDegradedPutsAreContained(t *testing.T) {
	s := open(t, t.TempDir(), fastOptions())
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}

	inj, err := faults.Parse("store.put:error")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	t.Cleanup(faults.Disable)
	s.Put(KindCell, key(2), testPayload(2)) // fails below the threshold
	if err := s.Put(KindCell, key(3), testPayload(3)); err != nil {
		t.Fatalf("threshold-crossing put should be absorbed, got %v", err)
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("store did not degrade")
	}
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatalf("degraded re-put of an indexed key: %v", err)
	}

	var got payload
	for i, want := range []bool{false, true, false, true} {
		if i == 0 {
			continue
		}
		if s.Get(KindCell, key(i), &got) != want || s.Contains(KindCell, key(i)) != want {
			t.Errorf("key %d: Get and Contains disagree, want both %v", i, want)
		}
	}
	// Key 1 keeps its blob through the degraded re-put; it counts once.
	if n := s.Stats().Entries; n != 2 {
		t.Errorf("Entries = %d, want 2 (one blob, one absorbed)", n)
	}
	if _, err := os.Stat(s.blobPath(KindCell, key(1))); err != nil {
		t.Errorf("degraded re-put dropped the blob: %v", err)
	}
	if s.Contains(KindSweep, key(3)) {
		t.Error("an absorbed cell shows up under another kind")
	}
}

// TestInjectedGetIsPlainMiss verifies an injected read fault is a synthetic
// miss: the intact on-disk blob must not be quarantined, and the next
// uninjected read serves it.
func TestInjectedGetIsPlainMiss(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}

	inj, err := faults.Parse("store.get:error")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	var got payload
	if s.Get(KindCell, key(1), &got) {
		faults.Disable()
		t.Fatal("Get hit through injected read failure")
	}
	faults.Disable()

	if got := s.Stats().Quarantined; got != 0 {
		t.Fatalf("injected read fault quarantined %d intact blobs", got)
	}
	if !s.Get(KindCell, key(1), &got) || got.Name != testPayload(1).Name {
		t.Fatalf("blob unreadable after injection stopped (got %+v)", got)
	}
}

// TestQuarantineRenameFailureStillDrops covers the quarantine fallback: when
// the corrupt blob vanishes before the rename (so the rename fails), the
// index entry is still dropped and the key becomes a plain miss.
func TestQuarantineRenameFailureStillDrops(t *testing.T) {
	var logs []string
	var logMu sync.Mutex
	s := open(t, t.TempDir(), Options{
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the blob so the read fails, then arrange for the quarantine
	// rename itself to fail by deleting the file between the failed read and
	// the rename.  Simplest deterministic stand-in: remove the file and
	// corrupt nothing — readBlob fails with ENOENT, quarantine's rename of
	// the missing file fails, and the fallback must still drop the entry.
	if err := os.Remove(s.blobPath(KindCell, key(1))); err != nil {
		t.Fatal(err)
	}

	var got payload
	if s.Get(KindCell, key(1), &got) {
		t.Fatal("Get hit a deleted blob")
	}
	if s.Contains(KindCell, key(1)) {
		t.Fatal("failed quarantine left the entry indexed")
	}
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	logMu.Lock()
	defer logMu.Unlock()
	var sawFallback bool
	for _, l := range logs {
		if strings.Contains(l, "quarantine of") && strings.Contains(l, "failed") {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Errorf("rename-failure fallback not logged; logs: %v", logs)
	}
	// A subsequent Get is a plain miss, not another quarantine.
	if s.Get(KindCell, key(1), &got) {
		t.Fatal("dropped key still hits")
	}
	if got := s.Stats().Quarantined; got != 1 {
		t.Fatalf("second miss quarantined again (%d)", got)
	}
}

// TestDegradedStoreCloseStopsProbe verifies Close while degraded does not
// leak the probe goroutine (the probeWG wait would hang or race otherwise).
func TestDegradedStoreCloseStopsProbe(t *testing.T) {
	opt := fastOptions()
	opt.ProbeInterval = time.Hour // the probe must be stopped, not finish
	s, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.Parse("store.put:error")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	t.Cleanup(faults.Disable)
	for i := 0; i < 2; i++ {
		_ = s.Put(KindCell, key(i), testPayload(i))
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("store did not degrade")
	}
	faults.Disable()

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung waiting for the probe goroutine")
	}
}

// TestCorruptGetQuarantines verifies the corrupt injection mode takes the
// real quarantine path: unlike store.get:error (a synthetic transient miss),
// store.get:corrupt simulates a bad blob, so the read must quarantine it,
// drop it from the index, and degrade to a miss — mirroring what a genuine
// checksum failure does, without touching the bytes on disk.
func TestCorruptGetQuarantines(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatal(err)
	}

	inj, err := faults.Parse("store.get:corrupt")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	t.Cleanup(faults.Disable)
	var got payload
	if s.Get(KindCell, key(1), &got) {
		t.Fatal("Get hit through an injected corruption")
	}
	faults.Disable()

	if got := s.Stats().Quarantined; got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
	if s.Contains(KindCell, key(1)) {
		t.Fatal("corrupt blob still indexed")
	}
	// The blob was moved aside, not deleted: the quarantine directory keeps
	// the evidence, and the key is now a plain (recomputable) miss.
	qdir := filepath.Join(s.Dir(), "v1", "quarantine")
	entries, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if strings.Contains(e.Name(), key(1)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("quarantine dir %s has no blob for key(1)", qdir)
	}
	if s.Get(KindCell, key(1), &got) {
		t.Fatal("quarantined key still hits")
	}
	// Read-path corruption must not degrade the store: writes are fine.
	if deg, _ := s.Degraded(); deg {
		t.Error("corruption on read degraded the write path")
	}
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatalf("re-put after quarantine: %v", err)
	}
}

// TestDegradedStoreIndexesAbsorbedPuts verifies a degraded disk store keeps
// what it absorbs in its index: counted in Stats, served by Get wherever
// Contains reports it, capped at maxAbsorbed entries, and evicted least
// recently used first, so an absorbed put that is read outlives a flood of
// colder ones.
func TestDegradedStoreIndexesAbsorbedPuts(t *testing.T) {
	s := open(t, t.TempDir(), fastOptions())
	inj, err := faults.Parse("store.put:error")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	t.Cleanup(faults.Disable)

	// DegradeAfter=2: key(0) fails, and the put of key(1) crosses the
	// threshold and is absorbed.
	s.Put(KindCell, key(0), testPayload(0))
	if err := s.Put(KindCell, key(1), testPayload(1)); err != nil {
		t.Fatalf("threshold-crossing put: %v", err)
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("store did not degrade")
	}
	const n = 300
	var got payload
	for i := 2; i < n; i++ {
		if err := s.Put(KindCell, key(i), testPayload(i)); err != nil {
			t.Fatalf("absorbed put %d: %v", i, err)
		}
		// Reading key(1) keeps it the most recently used but one.
		if !s.Get(KindCell, key(1), &got) {
			t.Fatalf("touched absorbed put evicted after put %d", i)
		}
	}

	if st := s.Stats(); st.Entries != maxAbsorbed || st.Bytes <= 0 || st.DegradedPuts != n-1 {
		t.Errorf("stats = %+v, want %d entries, positive bytes and %d degraded puts", st, maxAbsorbed, n-1)
	}
	held := 0
	for i := 0; i < n; i++ {
		if !s.Contains(KindCell, key(i)) {
			continue
		}
		held++
		if !s.Get(KindCell, key(i), &got) || got.Name != testPayload(i).Name {
			t.Errorf("key %d: Contains reports it, Get does not serve it (got %+v)", i, got)
		}
	}
	if held != maxAbsorbed {
		t.Errorf("Contains reports %d keys, want %d", held, maxAbsorbed)
	}
	if !s.Contains(KindCell, key(1)) {
		t.Error("the touched absorbed put was evicted before colder ones")
	}
	if !s.Contains(KindCell, key(n-1)) || s.Contains(KindCell, key(2)) {
		t.Error("absorbed puts were not evicted least recently used first")
	}
}

// TestDegradedConcurrentPutsAndGets hammers a degraded store from many
// goroutines while the probe brings it back; run with -race.  Absorbed and
// written entries replace each other under the same keys, and every
// completed Get must decode to the payload put under its key.
func TestDegradedConcurrentPutsAndGets(t *testing.T) {
	opt := fastOptions()
	opt.ProbeInterval = time.Millisecond
	s := open(t, t.TempDir(), opt)
	inj, err := faults.Parse("store.put:error")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	t.Cleanup(faults.Disable)
	for i := 0; i < 2; i++ {
		s.Put(KindCell, key(i), testPayload(i))
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("store did not degrade")
	}

	const (
		workers = 8
		keys    = 2 * maxAbsorbed
		iters   = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w*iters + i) % keys
				if w == 0 && i == iters/2 {
					faults.Disable()
				}
				if i%2 == 0 {
					if err := s.Put(KindCell, key(k), testPayload(k)); err != nil {
						t.Errorf("worker %d: Put: %v", w, err)
						return
					}
					continue
				}
				var got payload
				if s.Get(KindCell, key(k), &got) && got.Name != testPayload(k).Name {
					t.Errorf("worker %d: key %d: got %q", w, k, got.Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	held := 0
	for k := 0; k < keys; k++ {
		if s.Contains(KindCell, key(k)) {
			held++
		}
	}
	if st := s.Stats(); st.Entries != held {
		t.Errorf("Entries = %d, Contains reports %d keys", st.Entries, held)
	}
}
