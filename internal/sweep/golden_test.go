package sweep

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenSweep runs the reference sweep (QuickOptions, seed 1) once per test
// binary; the golden tests below all read from it.
var goldenSweep = sync.OnceValues(func() (*Results, error) {
	return Execute(QuickOptions())
})

// compareGolden checks got against the named golden file, rewriting the file
// under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run `go test ./internal/sweep -run TestGolden -update` to create it): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (%d vs %d bytes).\n"+
			"If the change is intended, regenerate with -update and review the diff.\n"+
			"First divergence near byte %d.",
			name, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestGoldenFigures pins the complete machine-readable evaluation payload —
// Table 6.1 and the Figure 6.1-6.4 series — for the QuickOptions sweep at
// seed 1.  Any change to the simulator, energy model or normalization that
// shifts a published data series fails here instead of drifting silently.
func TestGoldenFigures(t *testing.T) {
	res, err := goldenSweep()
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	payload, err := json.MarshalIndent(res.FiguresExport(), "", "  ")
	if err != nil {
		t.Fatalf("marshal figures: %v", err)
	}
	compareGolden(t, "figures_quick.json", append(payload, '\n'))
}

// TestFiguresWireRoundTrip decodes the golden figures payload and encodes
// it again with the same indent: the bytes must not change, so every figure
// datum, the text forms of workload.Class and Point's policy included, reads
// back exactly what it wrote.
func TestFiguresWireRoundTrip(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "figures_quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	var figs FiguresExport
	if err := json.Unmarshal(want, &figs); err != nil {
		t.Fatalf("decode figures: %v", err)
	}
	got, err := json.MarshalIndent(figs, "", "  ")
	if err != nil {
		t.Fatalf("encode figures: %v", err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Errorf("figures payload changed on a round trip (%d vs %d bytes), first divergence near byte %d",
			len(got), len(want), firstDiff(got, want))
	}
}

// TestGoldenExport pins the raw per-run export (cycles, energy breakdown,
// activity counters) of the same sweep.
func TestGoldenExport(t *testing.T) {
	res, err := goldenSweep()
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	payload, err := json.MarshalIndent(res.Export(), "", "  ")
	if err != nil {
		t.Fatalf("marshal export: %v", err)
	}
	compareGolden(t, "export_quick.json", append(payload, '\n'))

	// The golden bytes must decode back into an Export.
	var loaded Export
	if err := json.Unmarshal(payload, &loaded); err != nil {
		t.Fatalf("re-load export: %v", err)
	}
	if len(loaded.Runs) != res.Options.Size() {
		t.Errorf("loaded %d runs, want %d", len(loaded.Runs), res.Options.Size())
	}
}
