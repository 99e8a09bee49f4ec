package sweep

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"refrint/internal/config"
	"refrint/internal/sim"
)

// TestKeyCanonicalOrdering is the regression test for the key
// canonicalization bug: permuted but equivalent Apps, Policies and
// RetentionTimesUS must hash to the same sweep key, so overlapping requests
// share one cache/store slot.
func TestKeyCanonicalOrdering(t *testing.T) {
	base := Options{
		Apps:             []string{"FFT", "LU", "Blackscholes", "Swaptions"},
		RetentionTimesUS: []float64{50, 100, 200},
		Policies: []config.Policy{
			config.PeriodicAll,
			config.RefrintValid,
			config.RefrintDirty,
			config.PeriodicValid,
		},
		EffortScale: 0.25,
		Seed:        3,
	}
	want := base.Key()

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		shuffled := base
		shuffled.Apps = append([]string(nil), base.Apps...)
		shuffled.RetentionTimesUS = append([]float64(nil), base.RetentionTimesUS...)
		shuffled.Policies = append([]config.Policy(nil), base.Policies...)
		rng.Shuffle(len(shuffled.Apps), reflect.Swapper(shuffled.Apps))
		rng.Shuffle(len(shuffled.RetentionTimesUS), reflect.Swapper(shuffled.RetentionTimesUS))
		rng.Shuffle(len(shuffled.Policies), reflect.Swapper(shuffled.Policies))
		if got := shuffled.Key(); got != want {
			t.Fatalf("trial %d: shuffled options key = %s, want %s\nshuffled: %+v",
				trial, got, want, shuffled)
		}
	}

	// Key() must not mutate the caller's slices: the run order (and hence
	// figure order) of a permuted request is preserved.
	perm := base
	perm.Apps = []string{"LU", "FFT"}
	_ = perm.Key()
	if perm.Apps[0] != "LU" {
		t.Error("Key() sorted the caller's Apps slice in place")
	}

	// Distinct contents still produce distinct keys.
	other := base
	other.Apps = []string{"FFT", "LU", "Blackscholes"}
	if other.Key() == want {
		t.Error("dropping an app did not change the key")
	}
}

// TestKeyIgnoresHooks verifies the cell-cache hooks never enter the key:
// the same sweep with and without a store attached is the same sweep.
func TestKeyIgnoresHooks(t *testing.T) {
	plain := tinyOptions()
	hooked := tinyOptions()
	hooked.CellLookup = func(CellKey) (sim.Result, bool) { return sim.Result{}, false }
	hooked.CellPut = func(CellKey, sim.Result) {}
	if plain.Key() != hooked.Key() {
		t.Error("installing cell hooks changed the sweep key")
	}
	if plain.Workers = 1; plain.Key() != hooked.Key() {
		t.Error("worker count changed the sweep key")
	}
}

func TestCellKey(t *testing.T) {
	opts := tinyOptions()
	ptA := Point{RetentionUS: 50, Policy: config.RefrintValid}
	ptB := Point{RetentionUS: 100, Policy: config.RefrintValid}
	baseline := Point{Policy: config.SRAMBaseline}

	kA := opts.CellKey("FFT", ptA)
	if kA.App != "FFT" || kA.RetentionUS != 50 || kA.Seed != opts.Seed || kA.ConfigHash == "" {
		t.Fatalf("cell key fields wrong: %+v", kA)
	}
	if kA.Hash() == "" || kA.Hash() != kA.Hash() {
		t.Fatal("cell key hash unstable")
	}

	// Every axis of the tuple must move the hash.
	distinct := map[string]CellKey{
		"app":       opts.CellKey("LU", ptA),
		"retention": opts.CellKey("FFT", ptB),
		"policy":    opts.CellKey("FFT", Point{RetentionUS: 50, Policy: config.PeriodicAll}),
		"baseline":  opts.CellKey("FFT", baseline),
	}
	seedOpts := opts
	seedOpts.Seed = 99
	distinct["seed"] = seedOpts.CellKey("FFT", ptA)
	effortOpts := opts
	effortOpts.EffortScale = 0.5
	distinct["effort"] = effortOpts.CellKey("FFT", ptA)
	cfgOpts := opts
	cfgOpts.Base = config.FullSize()
	distinct["config"] = cfgOpts.CellKey("FFT", ptA)

	seen := map[string]string{kA.Hash(): "base"}
	for axis, k := range distinct {
		h := k.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("axis %q collides with %q (hash %s)", axis, prev, h)
		}
		seen[h] = axis
	}

	// Workers never enters a cell key (it cannot change a result).
	workerOpts := opts
	workerOpts.Workers = 7
	if workerOpts.CellKey("FFT", ptA).Hash() != kA.Hash() {
		t.Error("worker count changed a cell key")
	}

	// The key JSON round-trips (it is stored inside cell blobs).
	data, err := json.Marshal(kA)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back CellKey
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back != kA {
		t.Fatalf("round trip: %+v != %+v", back, kA)
	}
	if back.Hash() != kA.Hash() {
		t.Fatal("round-tripped key hashes differently")
	}
}

// TestExecuteContextCellHooks verifies the cell cache short-circuits
// simulations: a second sweep over a superset of cells only computes the
// cells the first one did not already produce, and progress still counts
// every cell.
func TestExecuteContextCellHooks(t *testing.T) {
	type cellStore struct {
		mu    chan struct{} // 1-token semaphore; keeps the fake store race-free
		cells map[string]sim.Result
	}
	st := &cellStore{mu: make(chan struct{}, 1), cells: make(map[string]sim.Result)}
	st.mu <- struct{}{}

	var lookups, hits, puts int
	opts := tinyOptions()
	opts.CellLookup = func(k CellKey) (sim.Result, bool) {
		<-st.mu
		defer func() { st.mu <- struct{}{} }()
		lookups++
		res, ok := st.cells[k.Hash()]
		if ok {
			hits++
		}
		return res, ok
	}
	opts.CellPut = func(k CellKey, res sim.Result) {
		<-st.mu
		defer func() { st.mu <- struct{}{} }()
		puts++
		st.cells[k.Hash()] = res
	}

	first, err := Execute(opts)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	total := opts.Size()
	if hits != 0 || puts != total || lookups != total {
		t.Fatalf("first sweep: %d lookups, %d hits, %d puts; want %d/0/%d",
			lookups, hits, puts, total, total)
	}

	// Second, overlapping sweep: same cells plus one more retention time.
	lookups, hits, puts = 0, 0, 0
	wider := opts
	wider.RetentionTimesUS = []float64{config.Retention50us, config.Retention100us}
	widerTotal := wider.Size()
	fresh := widerTotal - total

	var progressCalls int
	done := make(chan struct{}, widerTotal+1)
	second, err := ExecuteContext(t.Context(), wider, func(p Progress) {
		done <- struct{}{}
		if p.Total != widerTotal {
			t.Errorf("progress total = %d, want %d", p.Total, widerTotal)
		}
	})
	if err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	progressCalls = len(done)
	if hits != total {
		t.Errorf("overlapping sweep hit %d cells, want %d", hits, total)
	}
	if puts != fresh {
		t.Errorf("overlapping sweep computed %d cells, want %d", puts, fresh)
	}
	if progressCalls != widerTotal {
		t.Errorf("progress called %d times, want %d (cache hits count as done sims)", progressCalls, widerTotal)
	}

	// Cached cells reproduce the from-scratch results exactly.
	scratch, err := Execute(Options{
		Base:             wider.Base,
		Apps:             wider.Apps,
		RetentionTimesUS: wider.RetentionTimesUS,
		Policies:         wider.Policies,
		EffortScale:      wider.EffortScale,
		Seed:             wider.Seed,
	})
	if err != nil {
		t.Fatalf("scratch sweep: %v", err)
	}
	a, _ := json.Marshal(second.FiguresExport())
	b, _ := json.Marshal(scratch.FiguresExport())
	if string(a) != string(b) {
		t.Error("cell-cached sweep diverged from the from-scratch sweep")
	}
	_ = first
}
