//go:build !race

// The race runtime instruments allocation accounting, so the allocation
// budget here only runs in the plain test suite (the tier-1 gate).
package sweep

import (
	"context"
	"runtime"
	"testing"
)

// TestRunCellWarmAllocBytes pins the point of the simulator free list: once
// a System is idle, a cell resets it instead of building a chip (about
// 1.3 MB on the scaled preset), so a warmed RunCell allocates at most
// 32 KB.  It runs every policy and the SRAM baseline of one application.
func TestRunCellWarmAllocBytes(t *testing.T) {
	opts := Options{
		Apps:             []string{"LU"},
		RetentionTimesUS: []float64{50},
		EffortScale:      0.05,
		Seed:             1,
	}
	cells := Cells(opts)
	ctx := context.Background()
	run := func() {
		for _, c := range cells {
			if _, err := RunCell(ctx, opts, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the free list
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perCell := (after.TotalAlloc - before.TotalAlloc) / uint64(len(cells))
	t.Logf("warm RunCell: %d B/cell, %.1f allocs/cell, %d GC cycles over %d cells",
		perCell, float64(after.Mallocs-before.Mallocs)/float64(len(cells)), after.NumGC-before.NumGC, len(cells))
	if perCell > 32<<10 {
		t.Errorf("warm RunCell allocates %d B/cell, want at most %d", perCell, 32<<10)
	}
}
