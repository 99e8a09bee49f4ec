package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"refrint/internal/config"
	"refrint/internal/core"
	"refrint/internal/mem"
	"refrint/internal/workload"
)

// access resolves one reference as the run loop does: a write through
// accessWrite, a load or an instruction fetch through accessRead.
func (s *System) access(tileID int, line mem.LineAddr, typ mem.AccessType, now int64) int64 {
	if typ == mem.Write {
		return s.accessWrite(tileID, line, now)
	}
	return s.accessRead(tileID, line, now, typ == mem.InstrFetch)
}

// pop removes and returns the entry the run loop pops.
func (h *coreHeap) pop() coreEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	e := old[n]
	*h = old[:n]
	return e
}

// runInline is the run loop as it was before the feed: it pulls every
// reference from Generator.Next on the run loop's own goroutine.  s must
// be freshly built or reset and never run.
func runInline(s *System) Result {
	h := s.heap[:0]
	for i := range s.tiles {
		h = append(h, coreEntry{tile: i, time: 0})
	}
	h.init()
	for len(h) > 0 {
		entry := h.pop()
		a, ok := s.app.Thread(entry.tile).Next()
		if !ok {
			continue
		}
		tile := &s.tiles[entry.tile]
		tile.Core.Compute(a.Gap)
		doneAt := s.access(entry.tile, s.geom.LineOf(a.Addr), a.Type, tile.Core.Now())
		tile.Core.CompleteMemOp(doneAt)
		h.push(coreEntry{tile: entry.tile, time: tile.Core.Now()})
	}
	s.heap = h
	return s.finish()
}

// inlineResult builds cfg's chip for p and runs it through runInline.
func inlineResult(t testing.TB, cfg config.Config, p workload.Params, seed int64) Result {
	t.Helper()
	s, err := New(cfg, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return runInline(s)
}

// stopAtPoll is a cancelled context whose Err reports nil on every other
// call, starting with the first.  RunContext reads Err once at its start
// and once when it stops, so each call under it passes the start check and
// stops at its first poll point.
type stopAtPoll struct {
	context.Context
	calls int
}

func (c *stopAtPoll) Err() error {
	if c.calls++; c.calls%2 == 1 {
		return nil
	}
	return c.Context.Err()
}

// newStopAtPoll returns a stopAtPoll over a context cancelled with cause.
func newStopAtPoll(cause error) *stopAtPoll {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	return &stopAtPoll{Context: ctx}
}

// feedCells are the cells the feed is checked on: Class 1, 2 and 3
// applications under the SRAM baseline, the paper's best policy and the
// policy whose hooks fire most.
func feedCells() []resetCell {
	var cells []resetCell
	for _, app := range []string{"FFT", "LU", "Blackscholes"} {
		for _, pol := range []config.Policy{config.SRAMBaseline, config.RefrintWB(32, 32), periodicDirty} {
			cells = append(cells, resetCell{app: app, policy: pol, retentionUS: 50, seed: 1, effort: 0.05})
		}
	}
	return cells
}

// TestFeedMatchesInline is the feed's oracle: a run fed by the producer
// goroutine gives exactly the Result of the inline loop, for Class 1, 2
// and 3 applications under three policies.
func TestFeedMatchesInline(t *testing.T) {
	for _, c := range feedCells() {
		want := inlineResult(t, c.config(), c.params(t), c.seed)
		if got := freshResult(t, c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s: fed run differs from the inline loop:\n got %+v\nwant %+v", c.app, c.policy, got, want)
		}
	}
}

// TestFeedQuotaEdges runs quotas around the chunk size, where a core's last
// chunk is full, one reference long, one short of full, or its first: the
// fed run must still issue exactly the quota and match the inline loop.
func TestFeedQuotaEdges(t *testing.T) {
	cfg := scaledEDRAM(config.RefrintWB(32, 32), config.Retention50us)
	cfg.Name = "feed-quota" // keep the workload unscaled, quota included
	for _, quota := range []int64{8 * chunkRecs, 8*chunkRecs + 1, 8*chunkRecs - 1, chunkRecs, chunkRecs / 3, 1} {
		p := quickParams()
		p.MemOpsPerThread = quota
		want := inlineResult(t, cfg, p, 1)
		s, err := New(cfg, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := s.Run()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("quota %d: fed run differs from the inline loop:\n got %+v\nwant %+v", quota, got, want)
		}
		if n := got.Stats.MemOps; n != quota*int64(cfg.Cores) {
			t.Errorf("quota %d: %d references issued, want %d", quota, n, quota*int64(cfg.Cores))
		}
	}
}

// TestFeedResumeAtEveryPollPoint stops a fed run at every one of its poll
// points, resuming it each time, and compares the Result with the inline
// loop's.  Each slice restarts the producer on a feed that holds chunks
// drawn by the slice before.
func TestFeedResumeAtEveryPollPoint(t *testing.T) {
	c := resetCell{app: "LU", policy: config.RefrintWB(32, 32), retentionUS: 50, seed: 3, effort: 0.05}
	want := inlineResult(t, c.config(), c.params(t), c.seed)
	s, err := New(c.config(), c.params(t), c.seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newStopAtPoll(context.Canceled)
	var got Result
	slices := 0
	for ; ; slices++ {
		before := issuedRefs(s)
		res, err := s.RunContext(ctx)
		if err == nil {
			got = res
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("slice %d: RunContext error = %v, want context.Canceled", slices, err)
		}
		if n := issuedRefs(s) - before; n <= 0 || n > cancelPollRefs {
			t.Fatalf("slice %d issued %d references, want 1 to %d", slices, n, cancelPollRefs)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run resumed at every poll point differs from the inline loop:\n got %+v\nwant %+v", got, want)
	}
	if min := want.Stats.MemOps/cancelPollRefs - 1; int64(slices) < min {
		t.Fatalf("%d slices for %d references, want at least %d", slices, want.Stats.MemOps, min)
	}
	t.Logf("%d slices for %d references", slices, want.Stats.MemOps)
}

// TestRepeatedRunReturnsSameResult pins finish as idempotent: a second Run
// of a completed System, without Reset, returns the first Run's Result
// rather than adding the instruction and reference totals again.
func TestRepeatedRunReturnsSameResult(t *testing.T) {
	s, err := New(scaledSRAM(), quickParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	first := s.Run()
	if second := s.Run(); !reflect.DeepEqual(second, first) {
		t.Fatalf("second Run differs from the first: MemOps %d vs %d, Instructions %d vs %d, energy %g vs %g J",
			second.Stats.MemOps, first.Stats.MemOps, second.Stats.Instructions, first.Stats.Instructions,
			second.Energy.Total(), first.Energy.Total())
	}
}

// settleGoroutines waits until no more than base goroutines are live, and
// fails if that takes longer than a second: a producer that has signalled
// its stop exits within microseconds.
func settleGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines live, want at most %d", after, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

var errHook = errors.New("hook panicked")

// periodicDirty is "P.dirty", the policy whose L3 hooks fire most often.
var periodicDirty = config.Policy{Time: config.PeriodicTime, Data: config.DirtyData}

// TestRunLeavesNoGoroutine checks that the producer never outlives
// RunContext: not on completion, not on a stop at a poll point, not when
// the stopped run resumes on another goroutine, and not when the run
// panics inside the hierarchy.  After the panic, Reset must leave a System
// that runs like a fresh one.
func TestRunLeavesNoGoroutine(t *testing.T) {
	c := resetCell{app: "LU", policy: periodicDirty, retentionUS: 50, seed: 1, effort: 0.05}
	want := freshResult(t, c)
	base := runtime.NumGoroutine()

	s, err := New(c.config(), c.params(t), c.seed)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	settleGoroutines(t, base, "a completed run")

	if err := s.Reset(c.config(), c.params(t), c.seed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(newStopAtPoll(context.Canceled)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	settleGoroutines(t, base, "a stop at a poll point")
	out := make(chan Result)
	go func() { out <- s.Run() }()
	if got := <-out; !reflect.DeepEqual(got, want) {
		t.Fatalf("run resumed on another goroutine differs from a fresh run:\n got %+v\nwant %+v", got, want)
	}
	settleGoroutines(t, base, "a run resumed on another goroutine")

	if err := s.Reset(c.config(), c.params(t), c.seed); err != nil {
		t.Fatal(err)
	}
	l3 := &s.tiles[0].L3
	hooks := l3.Hooks
	l3.Hooks = core.Hooks{
		Invalidate: func(mem.LineAddr, bool, int64) { panic(errHook) },
	}
	func() {
		defer func() {
			if r := recover(); r != errHook {
				t.Fatalf("recovered %v, want the hook's panic", r)
			}
		}()
		s.Run()
	}()
	settleGoroutines(t, base, "a panic in a bank hook")
	l3.Hooks = hooks
	if got := resetResult(t, s, c); !reflect.DeepEqual(got, want) {
		t.Fatalf("run after a panicked run and Reset differs from a fresh run:\n got %+v\nwant %+v", got, want)
	}
	settleGoroutines(t, base, "a run after Reset")
}
