// Package store is a content-addressed result store.  Simulation cells
// (KindCell, by sweep.CellKey.Hash) are the only cached results; a completed
// sweep leaves a small manifest (KindSweep, by sweep.Options.Key) naming its
// options, so the sweep can be found by key and reassembled from its cells.
//
// Open with a data directory persists JSON payloads as versioned,
// checksummed blobs:
//
//	<dir>/v1/sweeps/<k[:2]>/<key>.json   (manifests)
//	<dir>/v1/cells/<k[:2]>/<key>.json
//	<dir>/v1/quarantine/<...>.json   (blobs that failed verification)
//	<dir>/v1/index.json              (sizes + LRU access order)
//
// Every blob is written atomically (temp file + rename) and wrapped in an
// envelope carrying the format version, its kind and key, and a SHA-256
// checksum of the payload.  A blob that fails any of those checks on read is
// moved to the quarantine directory rather than deleted, so a corrupted
// store degrades to cache misses without losing evidence.
//
// Open with an empty directory gives a memory-only store: the same index
// and eviction, with the payloads held in memory and nothing written
// anywhere.  Each payload has one home: its blob on disk, or its index entry
// (a memory-only store's puts, and the puts a degraded disk store absorbs).
//
// The footprint is bounded by an LRU-bytes budget: when a put pushes the
// total past the budget, the least recently used blobs are deleted until it
// fits.
//
// The store is safe for concurrent use by multiple goroutines of one
// process.  It does not coordinate between processes: run one server per
// data directory.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"refrint/internal/faults"
	"refrint/internal/sim"
	"refrint/internal/sweep"
)

// Version is the on-disk format version.  Blobs and index files written by
// a different major version are ignored (left untouched on disk), so a
// downgrade never destroys data it does not understand.
const Version = 1

// versionDir is the directory namespace of the current format.
const versionDir = "v1"

// Kind namespaces keys: sweep manifests and per-simulation cells.
type Kind string

// Blob kinds.
const (
	KindSweep Kind = "sweeps"
	KindCell  Kind = "cells"
)

// Manifest is the payload of a KindSweep blob: the options of a completed
// sweep, whose results are its cells.  Blobs written before manifests
// existed hold the full results, with the options under the same "options"
// field, so they decode as manifests too.
type Manifest struct {
	Options sweep.Options `json:"options"`
}

func (k Kind) valid() bool { return k == KindSweep || k == KindCell }

// Options tunes a Store.  The zero value is usable.
type Options struct {
	// MaxBytes bounds the total size of blobs kept (default 1 GiB): on disk,
	// or in memory for a memory-only store.  Least-recently-used blobs are
	// evicted past the budget.
	MaxBytes int64
	// Logf, when set, receives one line per quarantine and eviction.
	Logf func(format string, args ...any)

	// WriteRetries bounds how many times a transient blob-write failure
	// (ENOSPC, EIO, ...) is retried before the put is declared failed
	// (default 3 retries after the initial attempt).  Permanent failures
	// (bad permissions, invalid paths) are never retried.
	WriteRetries int
	// RetryBase is the base of the capped, jittered exponential backoff
	// between write retries (default 10ms; capped at 500ms per wait).
	RetryBase time.Duration
	// DegradeAfter is the number of consecutive failed puts after which the
	// store stops touching the disk and enters degraded (memory-only) mode
	// instead of spamming errors (default 3).  A background probe re-enables
	// disk writes once the disk recovers; see Degraded.
	DegradeAfter int
	// ProbeInterval is how often a degraded store probes the disk for
	// recovery (default 2s).
	ProbeInterval time.Duration
	// Sleep is the retry-backoff sleeper (default time.Sleep; injectable so
	// tests exercise the retry loop without real waits).
	Sleep func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 1 << 30
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.WriteRetries <= 0 {
		o.WriteRetries = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 10 * time.Millisecond
	}
	if o.DegradeAfter <= 0 {
		o.DegradeAfter = 3
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Entries and Bytes describe what the store currently holds.
	Entries int
	Bytes   int64
	// Hits and misses, per kind, since the store was opened.
	SweepHits   int64
	SweepMisses int64
	CellHits    int64
	CellMisses  int64
	// Quarantined counts blobs moved aside after failing verification.
	Quarantined int64
	// Evictions counts blobs deleted by the LRU-bytes budget.
	Evictions int64
	// Degraded reports memory-only mode: enough consecutive puts failed that
	// the store stopped touching the disk (DegradedCause holds the last
	// write error).  Reads still serve every absorbed put and every blob
	// already intact on disk; a background probe flips the store back once
	// the disk recovers.
	Degraded      bool
	DegradedCause string
	// WriteRetries counts transient blob-write failures that were retried;
	// DegradedPuts counts puts absorbed into memory while degraded.
	WriteRetries int64
	DegradedPuts int64
}

// envelope is the on-disk form of one blob.
type envelope struct {
	Version  int             `json:"version"`
	Kind     Kind            `json:"kind"`
	Key      string          `json:"key"`
	Checksum string          `json:"checksum"` // "sha256:<hex>" of Payload
	Payload  json.RawMessage `json:"payload"`
}

// entry is the index record of one blob.
type entry struct {
	kind   Kind
	key    string
	bytes  int64
	access int64  // logical LRU clock; higher = more recent
	raw    []byte // the payload when held in memory (nil for a blob on disk)
}

// maxAbsorbed bounds how many entries a disk store holds in memory (puts
// absorbed while degraded): its byte budget is a disk budget, not a memory
// one.  Past it, the least recently used absorbed entry goes.
const maxAbsorbed = 128

// Store is a result store.  Open one with Open; it must not be copied.
type Store struct {
	dir string // "" for a memory-only store
	opt Options

	mu      sync.Mutex
	entries map[string]*entry // composite kind/key -> entry
	bytes   int64
	clock   int64
	dirty   int // index mutations since the last index write
	held    int // entries holding their payload in memory (raw != nil)
	stats   Stats

	// Degradation state: after DegradeAfter consecutive put failures the
	// store goes memory-only and probeLoop (probeWG-tracked, stopped via
	// probeStop) watches for disk recovery.
	degraded      bool
	degradedCause string
	consecFails   int
	probeStop     chan struct{}
	probeWG       sync.WaitGroup
}

// Open opens (creating if necessary) the store rooted at dir.  An empty dir
// opens a memory-only store, which never fails, degrades or touches a file.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	s := &Store{
		dir:     dir,
		opt:     opt,
		entries: make(map[string]*entry),
	}
	if dir == "" {
		return s, nil
	}
	for _, sub := range []string{
		filepath.Join(dir, versionDir, string(KindSweep)),
		filepath.Join(dir, versionDir, string(KindCell)),
		filepath.Join(dir, versionDir, "quarantine"),
	} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", sub, err)
		}
	}
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory ("" for a memory-only store).
func (s *Store) Dir() string { return s.dir }

// Close persists the index (access order included) and stops the recovery
// probe if one is running.  The store must not be used after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.probeStop != nil {
		close(s.probeStop)
		s.probeStop = nil
	}
	s.mu.Unlock()
	s.probeWG.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		return nil
	}
	return s.writeIndexLocked()
}

// Degraded reports whether the store is in memory-only degraded mode, and —
// when it is — the write error that sent it there.  /healthz surfaces this.
func (s *Store) Degraded() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded, s.degradedCause
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	st.Degraded = s.degraded
	st.DegradedCause = s.degradedCause
	return st
}

// Put persists payload under (kind, key), replacing any previous blob, and
// evicts the least recently used blobs if the byte budget is exceeded.  The
// key must be non-empty and path-safe (content hashes are).  The file write
// happens outside the store mutex; concurrent puts of one key are safe
// because keys are content-addressed — both writers carry identical bytes.
func (s *Store) Put(kind Kind, key string, payload any) error {
	if !kind.valid() {
		return fmt.Errorf("store: unknown kind %q", kind)
	}
	if err := validKey(key); err != nil {
		return err
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("store: encoding %s/%s: %w", kind, key, err)
	}
	s.mu.Lock()
	if s.dir == "" || s.degraded {
		defer s.mu.Unlock()
		s.holdLocked(kind, key, raw)
		return nil
	}
	s.mu.Unlock()

	blob, err := json.Marshal(envelope{
		Version:  Version,
		Kind:     kind,
		Key:      key,
		Checksum: checksum(raw),
		Payload:  raw,
	})
	if err != nil {
		return fmt.Errorf("store: encoding envelope %s/%s: %w", kind, key, err)
	}
	if err := s.writeBlob(kind, key, blob); err != nil {
		return s.putFailed(kind, key, raw, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.consecFails = 0
	s.indexLocked(&entry{kind: kind, key: key, bytes: int64(len(blob))})
	return s.maybeWriteIndexLocked()
}

// holdLocked indexes a payload held in memory: every put of a memory-only
// store, and a put a degraded disk store absorbs.  An absorbed put of a key
// already in a blob keeps the blob (keys are content-addressed, so the
// bytes agree) and only counts as a use.
func (s *Store) holdLocked(kind Kind, key string, raw []byte) {
	if s.dir != "" {
		s.stats.DegradedPuts++
		ck := compositeKey(kind, key)
		if e, ok := s.entries[ck]; ok && e.raw == nil {
			s.touchLocked(ck)
			return
		}
	}
	s.indexLocked(&entry{kind: kind, key: key, bytes: int64(len(raw)), raw: raw})
}

// indexLocked records a freshly put entry as the most recently used,
// replacing any previous record of its key, and evicts past the budget.
func (s *Store) indexLocked(e *entry) {
	ck := compositeKey(e.kind, e.key)
	if old, ok := s.entries[ck]; ok {
		s.dropLocked(old)
	}
	s.clock++
	e.access = s.clock
	s.entries[ck] = e
	s.bytes += e.bytes
	if e.raw != nil {
		s.held++
	}
	s.evictLocked(ck)
}

// writeBlob lands one blob on disk, retrying transient failures (disk full,
// I/O errors) with capped exponential backoff + jitter.  Permanent failures
// return immediately.
func (s *Store) writeBlob(kind Kind, key string, blob []byte) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = s.writeAttempt(s.blobPath(kind, key), blob)
		if err == nil || !transientWriteError(err) || attempt >= s.opt.WriteRetries {
			return err
		}
		s.mu.Lock()
		s.stats.WriteRetries++
		s.mu.Unlock()
		s.opt.Sleep(retryBackoff(s.opt.RetryBase, attempt))
	}
}

// writeAttempt is one try at landing a blob, behind the store.put fault
// injection point.
func (s *Store) writeAttempt(path string, blob []byte) error {
	if err := faults.Check(faults.StorePut); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicWrite(path, blob)
}

// putFailed handles a put whose write retries ran out: the failure counts
// toward the degradation threshold, and crossing it flips the store into
// memory-only mode (starting the recovery probe) — in which case this put is
// absorbed into the index and reported as success, exactly as if it had
// arrived a moment later.  Below the threshold the error goes back to the
// caller.
func (s *Store) putFailed(kind Kind, key string, raw []byte, err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consecFails++
	if !s.degraded && s.consecFails >= s.opt.DegradeAfter {
		s.enterDegradedLocked(err)
	}
	if s.degraded {
		s.holdLocked(kind, key, raw)
		return nil
	}
	return fmt.Errorf("store: writing %s/%s: %w", kind, key, err)
}

// transientWriteError classifies write failures: disk-pressure and I/O
// errnos are worth retrying, anything else (permissions, bad paths) is
// permanent.  Injected faults count as transient so the chaos suite drives
// the retry and degradation paths.
func transientWriteError(err error) bool {
	if errors.Is(err, faults.ErrInjected) {
		return true
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		switch errno {
		case syscall.ENOSPC, syscall.EIO, syscall.EAGAIN, syscall.EINTR, syscall.EBUSY:
			return true
		}
	}
	return false
}

// retryBackoff is the wait before retry attempt+1: base<<attempt with full
// jitter, capped at 500ms so a handful of retries never stalls a put for
// seconds.
func retryBackoff(base time.Duration, attempt int) time.Duration {
	const maxWait = 500 * time.Millisecond
	d := base << uint(min(attempt, 16))
	if d <= 0 || d > maxWait {
		d = maxWait
	}
	return d/2 + rand.N(d/2+1)
}

// enterDegradedLocked flips the store into memory-only mode and starts the
// background recovery probe.
func (s *Store) enterDegradedLocked(cause error) {
	s.degraded = true
	s.degradedCause = cause.Error()
	s.opt.Logf("store: degraded to memory-only after %d consecutive write failures: %v", s.consecFails, cause)
	stop := make(chan struct{})
	s.probeStop = stop
	s.probeWG.Add(1)
	go s.probeLoop(stop)
}

// exitDegradedLocked re-enables disk writes and stops the probe.
func (s *Store) exitDegradedLocked() {
	if !s.degraded {
		return
	}
	s.degraded = false
	s.degradedCause = ""
	s.consecFails = 0
	if s.probeStop != nil {
		close(s.probeStop)
		s.probeStop = nil
	}
	s.opt.Logf("store: disk recovered, leaving degraded mode")
}

// probeLoop periodically test-writes the disk while the store is degraded
// and flips it back to normal on the first success.  It goes through the
// same injected write path as real puts, so recovery is only observed once
// the underlying failure (or fault injection) actually stops.
func (s *Store) probeLoop(stop chan struct{}) {
	defer s.probeWG.Done()
	t := time.NewTicker(s.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := s.probeOnce(); err == nil {
				s.mu.Lock()
				s.exitDegradedLocked()
				s.mu.Unlock()
				return
			}
		}
	}
}

// probeOnce attempts one small probe write (temp file + rename, like a real
// blob) under the version directory, removing it on success.
func (s *Store) probeOnce() error {
	path := filepath.Join(s.dir, versionDir, probeFile)
	if err := s.writeAttempt(path, []byte("probe")); err != nil {
		return err
	}
	return os.Remove(path)
}

// probeFile is the scratch file the degraded-mode recovery probe writes.
// Dot-prefixed, so loadIndex's blob scan never adopts it.
const probeFile = ".probe"

// Get loads the blob under (kind, key) into out (a pointer, as for
// json.Unmarshal) and reports whether it was found intact.  Corrupted blobs
// are quarantined and reported as misses.  Disk reads and decoding happen
// outside the store mutex, so a slow read of one blob never stalls other
// readers or writers.
func (s *Store) Get(kind Kind, key string, out any) bool {
	if !kind.valid() || validKey(key) != nil {
		return false
	}
	ck := compositeKey(kind, key)

	s.mu.Lock()
	e, ok := s.entries[ck]
	var raw []byte
	if ok {
		raw = e.raw
	}
	s.mu.Unlock()

	if !ok {
		s.count(kind, false)
		return false
	}
	if raw == nil {
		var err error
		raw, err = s.readBlob(kind, key)
		if err != nil {
			// An injected read fault is a synthetic miss: the blob on disk is
			// fine, so quarantining it would punish real data for a test.
			if !errors.Is(err, faults.ErrInjected) {
				// Corrupted — unless the entry was concurrently evicted or
				// replaced, which quarantine() turns into a plain miss.
				s.quarantine(e, err)
			}
			s.count(kind, false)
			return false
		}
	}
	if err := json.Unmarshal(raw, out); err != nil {
		// The payload does not fit the caller's type; treat as a miss
		// without blaming the disk blob.
		s.count(kind, false)
		return false
	}

	s.mu.Lock()
	s.touchLocked(ck)
	s.hit(kind)
	s.mu.Unlock()
	return true
}

// count records a hit or miss under the mutex.
func (s *Store) count(kind Kind, hit bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hit {
		s.hit(kind)
	} else {
		s.miss(kind)
	}
}

// GetCell reads (and verifies) one persisted simulation cell.
func (s *Store) GetCell(k sweep.CellKey) (sim.Result, bool) {
	var cell sweep.CellResult
	if s.Get(KindCell, k.Hash(), &cell) {
		return cell.Result, true
	}
	return sim.Result{}, false
}

// PutCell persists one freshly computed simulation cell.
func (s *Store) PutCell(k sweep.CellKey, res sim.Result) error {
	return s.Put(KindCell, k.Hash(), sweep.CellResult{Key: k, Result: res})
}

// CellHooks returns the sweep cell-cache hooks backed by this store, ready
// to install as sweep.Options.CellLookup and CellPut: lookups read (and
// verify) persisted cells, puts persist fresh ones, and put errors
// are reported to logf (nil for silent) rather than failing the sweep.
func (s *Store) CellHooks(logf func(format string, args ...any)) (lookup func(sweep.CellKey) (sim.Result, bool), put func(sweep.CellKey, sim.Result)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	put = func(k sweep.CellKey, res sim.Result) {
		if err := s.PutCell(k, res); err != nil {
			logf("store: persisting cell %s: %v", k.Hash(), err)
		}
	}
	return s.GetCell, put
}

// Contains reports whether Get would find an entry under (kind, key),
// without reading or verifying it.  A hit counts as a use of the entry, like
// a Get: the LRU budget evicts it after every colder one.
func (s *Store) Contains(kind Kind, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck := compositeKey(kind, key)
	s.touchLocked(ck)
	_, ok := s.entries[ck]
	return ok
}

func (s *Store) hit(kind Kind) {
	if kind == KindSweep {
		s.stats.SweepHits++
	} else {
		s.stats.CellHits++
	}
}

func (s *Store) miss(kind Kind) {
	if kind == KindSweep {
		s.stats.SweepMisses++
	} else {
		s.stats.CellMisses++
	}
}

// readBlob reads and verifies one blob, returning its payload bytes.  It
// takes no lock: blobs are written atomically, so a reader sees either the
// previous complete blob or the new one.
func (s *Store) readBlob(kind Kind, key string) ([]byte, error) {
	if err := faults.Check(faults.StoreGet); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.blobPath(kind, key))
	if err != nil {
		return nil, fmt.Errorf("reading blob: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("parsing blob: %w", err)
	}
	if env.Version != Version {
		return nil, fmt.Errorf("blob version %d, want %d", env.Version, Version)
	}
	if env.Kind != kind || env.Key != key {
		return nil, fmt.Errorf("blob identifies as %s/%s, want %s/%s", env.Kind, env.Key, kind, key)
	}
	if got := checksum(env.Payload); got != env.Checksum {
		return nil, fmt.Errorf("checksum %s, want %s", got, env.Checksum)
	}
	return env.Payload, nil
}

// quarantine moves the blob of a failed read aside, unless the index no
// longer holds the entry that read it: a concurrent eviction explains the
// failed read (a plain miss), and a re-put since then wrote a new, intact
// blob that must stay.
func (s *Store) quarantine(e *entry, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[compositeKey(e.kind, e.key)] != e {
		return
	}
	s.quarantineLocked(e, cause)
}

// quarantineLocked moves a failed blob aside and drops it from the index.
func (s *Store) quarantineLocked(e *entry, cause error) {
	src := s.blobPath(e.kind, e.key)
	dst := filepath.Join(s.dir, versionDir, "quarantine", string(e.kind)+"-"+e.key+".json")
	for i := 1; ; i++ {
		//refrint:allow lockcheck -- the store mutex guards an on-disk structure; quarantine must move the blob before any reader can re-open it
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(s.dir, versionDir, "quarantine",
			fmt.Sprintf("%s-%s.%d.json", e.kind, e.key, i))
	}
	//refrint:allow lockcheck -- atomic same-directory rename, bounded work under the store mutex by design
	if err := os.Rename(src, dst); err != nil {
		// Renaming failed (e.g. the file vanished); removing the index entry
		// still turns the blob into a plain miss.
		s.opt.Logf("store: quarantine of %s/%s failed: %v (cause: %v)", e.kind, e.key, err, cause)
	} else {
		s.opt.Logf("store: quarantined %s/%s: %v", e.kind, e.key, cause)
	}
	s.dropLocked(e)
	s.stats.Quarantined++
	_ = s.writeIndexLocked()
}

// dropLocked removes an entry from the index, unless another entry has
// replaced it.
func (s *Store) dropLocked(e *entry) {
	ck := compositeKey(e.kind, e.key)
	if s.entries[ck] != e {
		return
	}
	delete(s.entries, ck)
	s.bytes -= e.bytes
	if e.raw != nil {
		s.held--
	}
}

// evictLocked deletes entries until the byte budget is met, and a disk
// store's absorbed entries until at most maxAbsorbed remain: the victim is
// the least recently used entry — among absorbed entries only, when their
// cap is what is exceeded.  The entry named by keep (the one just put) is
// evicted last, so a single oversized blob still persists.
func (s *Store) evictLocked(keep string) {
	for len(s.entries) > 1 {
		overHeld := s.dir != "" && s.held > maxAbsorbed
		if s.bytes <= s.opt.MaxBytes && !overHeld {
			break
		}
		var victim *entry
		for ck, e := range s.entries {
			if ck == keep || (overHeld && e.raw == nil) {
				continue
			}
			if victim == nil || e.access < victim.access {
				victim = e
			}
		}
		if victim == nil {
			break
		}
		if victim.raw == nil {
			//refrint:allow lockcheck -- eviction must unlink the blob before the index entry is dropped, or a concurrent lookup could resurrect it
			if err := os.Remove(s.blobPath(victim.kind, victim.key)); err != nil && !os.IsNotExist(err) {
				s.opt.Logf("store: evicting %s/%s: %v", victim.kind, victim.key, err)
			}
		}
		s.dropLocked(victim)
		s.stats.Evictions++
		s.opt.Logf("store: evicted %s/%s (%d bytes)", victim.kind, victim.key, victim.bytes)
	}
	// Deleted files leave the on-disk index stale until the next batched
	// write (reconcile-on-open heals a crash in that window); rewriting it
	// per eviction would make every over-budget Put pay a full index
	// rewrite.  The victim scan is O(entries) per eviction — fine at the
	// store's scale; revisit with an access-ordered structure if entry
	// counts grow past ~10^5.
}

// touchLocked records an access for LRU purposes.
func (s *Store) touchLocked(ck string) {
	if e, ok := s.entries[ck]; ok {
		s.clock++
		e.access = s.clock
	}
}

// blobPath returns the on-disk path of a blob, sharded by key prefix so a
// big store does not put thousands of files in one directory.
func (s *Store) blobPath(kind Kind, key string) string {
	prefix := key
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(s.dir, versionDir, string(kind), prefix, key+".json")
}

func compositeKey(kind Kind, key string) string { return string(kind) + "/" + key }

// validKey guards against keys that would escape the data directory.  Keys
// are content hashes in practice, so anything else is a programming error.
func validKey(key string) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("store: key %q contains unsafe character %q", key, r)
		}
	}
	if strings.HasPrefix(key, ".") {
		return fmt.Errorf("store: key %q must not start with a dot", key)
	}
	return nil
}

func checksum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// atomicWrite writes data to path via a temp file + fsync + rename, so
// readers (and crashes) never observe a partial blob and a completed write
// is durable once the rename lands.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Fsync the directory so the rename itself survives power loss; without
	// it the blob's directory entry may vanish on crash even though the
	// data blocks were synced.  Best-effort: not every platform/filesystem
	// supports syncing directories.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

// --- index ---

// indexFile is the serialized index: sizes and LRU order survive restarts.
type indexFile struct {
	Version int          `json:"version"`
	Clock   int64        `json:"clock"`
	Entries []indexEntry `json:"entries"`
}

type indexEntry struct {
	Kind   Kind   `json:"kind"`
	Key    string `json:"key"`
	Bytes  int64  `json:"bytes"`
	Access int64  `json:"access"`
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, versionDir, "index.json") }

// indexWriteInterval batches index writes: the index is a cache of sizes
// and LRU order, not the source of truth (loadIndex reconciles against the
// blobs on disk), so persisting it on every put or eviction would only turn
// an N-cell sweep into N full index rewrites.  It is always written on
// Close and on quarantine.
const indexWriteInterval = 64

// maybeWriteIndexLocked persists the index once enough mutations have
// accumulated since the last write.
func (s *Store) maybeWriteIndexLocked() error {
	s.dirty++
	if s.dirty < indexWriteInterval {
		return nil
	}
	return s.writeIndexLocked()
}

// writeIndexLocked persists the index atomically.  Absorbed entries have
// no blob, so they stay out of it.
func (s *Store) writeIndexLocked() error {
	idx := indexFile{Version: Version, Clock: s.clock}
	for _, e := range s.entries {
		if e.raw != nil {
			continue
		}
		idx.Entries = append(idx.Entries, indexEntry{Kind: e.kind, Key: e.key, Bytes: e.bytes, Access: e.access})
	}
	sort.Slice(idx.Entries, func(i, j int) bool {
		if idx.Entries[i].Kind != idx.Entries[j].Kind {
			return idx.Entries[i].Kind < idx.Entries[j].Kind
		}
		return idx.Entries[i].Key < idx.Entries[j].Key
	})
	//refrint:allow lockcheck -- the index snapshot must be serialized under the mutex so the persisted file matches a consistent in-memory state
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding index: %w", err)
	}
	if err := atomicWrite(s.indexPath(), data); err != nil {
		return fmt.Errorf("store: writing index: %w", err)
	}
	s.dirty = 0
	return nil
}

// loadIndex populates the in-memory index from the index file, then
// reconciles it against the blobs actually on disk: files missing from the
// index are adopted (with zero access time, so they are first in line for
// eviction), index entries whose file vanished are dropped, and sizes are
// refreshed from the filesystem.
func (s *Store) loadIndex() error {
	recorded := make(map[string]int64) // composite key -> access
	if data, err := os.ReadFile(s.indexPath()); err == nil {
		var idx indexFile
		if err := json.Unmarshal(data, &idx); err == nil && idx.Version == Version {
			s.clock = idx.Clock
			for _, e := range idx.Entries {
				recorded[compositeKey(e.Kind, e.Key)] = e.Access
			}
		} else if err != nil {
			s.opt.Logf("store: index unreadable, rebuilding: %v", err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("store: reading index: %w", err)
	}

	for _, kind := range []Kind{KindSweep, KindCell} {
		root := filepath.Join(s.dir, versionDir, string(kind))
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".json") || strings.HasPrefix(d.Name(), ".") {
				return err
			}
			key := strings.TrimSuffix(d.Name(), ".json")
			if validKey(key) != nil {
				return nil
			}
			info, err := d.Info()
			if err != nil {
				return nil // vanished mid-walk; skip
			}
			ck := compositeKey(kind, key)
			e := &entry{kind: kind, key: key, bytes: info.Size(), access: recorded[ck]}
			s.entries[ck] = e
			s.bytes += e.bytes
			return nil
		})
		if err != nil {
			return fmt.Errorf("store: scanning %s: %w", root, err)
		}
	}
	return nil
}
