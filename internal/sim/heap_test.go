package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// refHeap is container/heap's heap of core entries, ordered by time: the
// reference for coreHeap's sift order.
type refHeap []coreEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].time < h[j].time }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(coreEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	e := old[n]
	*h = old[:n]
	return e
}

// heapClocks are the clocks the heap tests draw from: few, so that most
// pops tie, and some near 1<<62, where a difference of two clocks is
// largest.
var heapClocks = []int64{0, 1, 2, 5, 1<<62 - 1, 1 << 62, 1<<62 + 1}

// checkHeapScript drives a coreHeap and a container/heap refHeap through
// the same operations and fails at the first step where the popped entry
// or either heap's slice differs.  The first byte of script gives the core
// count, the next ones the cores' starting clocks, and each later byte one
// step of the run loop: pop the earliest core, then push it back at a new
// clock or, for one byte value in eight, let it finish.  Once the script
// is spent, the remaining cores finish one by one.
func checkHeapScript(t *testing.T, script []byte) {
	t.Helper()
	next := func() (byte, bool) {
		if len(script) == 0 {
			return 0, false
		}
		b := script[0]
		script = script[1:]
		return b, true
	}
	cores, _ := next()
	var got coreHeap
	var want refHeap
	for i := 0; i < int(cores%40)+1; i++ {
		b, _ := next()
		e := coreEntry{tile: i, time: heapClocks[int(b)%len(heapClocks)]}
		got = append(got, e)
		want = append(want, e)
	}
	got.init()
	heap.Init(&want)
	if !slices.Equal(got, coreHeap(want)) {
		t.Fatalf("after init: coreHeap %v, container/heap %v", got, want)
	}
	for step := 0; len(got) > 0; step++ {
		popped := got.pop()
		ref := heap.Pop(&want).(coreEntry)
		if popped != ref {
			t.Fatalf("step %d: popped %v, container/heap popped %v", step, popped, ref)
		}
		if b, ok := next(); ok && b&7 != 7 {
			e := coreEntry{tile: popped.tile, time: heapClocks[int(b>>3)%len(heapClocks)]}
			got.push(e)
			heap.Push(&want, e)
		}
		if !slices.Equal(got, coreHeap(want)) {
			t.Fatalf("step %d: coreHeap %v, container/heap %v", step, got, want)
		}
	}
}

// TestCoreHeapMatchesContainerHeap pins coreHeap's pop order, ties
// included, to container/heap's on random run-loop scripts.
func TestCoreHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		script := make([]byte, 1+rng.Intn(400))
		rng.Read(script)
		checkHeapScript(t, script)
	}
}

// FuzzCoreHeapMatchesContainerHeap is TestCoreHeapMatchesContainerHeap
// on fuzzed scripts.
func FuzzCoreHeapMatchesContainerHeap(f *testing.F) {
	f.Add([]byte{15})
	f.Add([]byte{3, 4, 5, 6, 4, 0, 8, 16, 24, 32, 40, 48, 7})
	f.Add([]byte{16, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 0, 1, 33, 41, 49, 9, 17, 25, 7, 15, 23})
	f.Fuzz(func(t *testing.T, script []byte) {
		checkHeapScript(t, script)
	})
}
