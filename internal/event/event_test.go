package event

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueOrdering(t *testing.T) {
	var q Queue
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero queue should be empty")
	}
	cycles := []int64{50, 10, 30, 10, 70, 0}
	for i, c := range cycles {
		q.PushAt(c, i, int64(i))
	}
	var got []int64
	for !q.Empty() {
		got = append(got, q.Pop().Cycle)
	}
	want := append([]int64(nil), cycles...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("pop[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestQueueFIFOAtSameCycle(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.PushAt(100, i, int64(i))
	}
	for i := 0; i < 10; i++ {
		e := q.Pop()
		if e.Kind != i {
			t.Errorf("events at the same cycle must pop in insertion order: got kind %d at position %d", e.Kind, i)
		}
	}
}

func TestQueuePeek(t *testing.T) {
	var q Queue
	if q.Peek() != nil || q.Pop() != nil {
		t.Fatal("peek/pop on empty queue should return nil")
	}
	q.PushAt(42, 1, 0)
	q.PushAt(7, 2, 0)
	if e := q.Peek(); e == nil || e.Cycle != 7 {
		t.Fatalf("Peek = %+v, want cycle 7", e)
	}
	if q.Len() != 2 {
		t.Errorf("Peek must not remove events, len = %d", q.Len())
	}
}

func TestQueueRandomizedOrdering(t *testing.T) {
	f := func(raw []uint32) bool {
		var q Queue
		for i, r := range raw {
			q.PushAt(int64(r%1000), i, 0)
		}
		last := int64(-1)
		for !q.Empty() {
			e := q.Pop()
			if e.Cycle < last {
				return false
			}
			last = e.Cycle
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQueueCallbackField(t *testing.T) {
	var q Queue
	fired := 0
	q.Push(&Event{Cycle: 10, Fn: func(cycle int64) { fired++ }})
	e := q.Pop()
	if e.Fn == nil {
		t.Fatal("callback lost")
	}
	e.Fn(e.Cycle)
	if fired != 1 {
		t.Errorf("callback fired %d times", fired)
	}
}
