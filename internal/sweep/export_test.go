package sweep

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestExportAndJSONRoundTrip(t *testing.T) {
	res := runTiny(t)
	exp := res.Export()

	if exp.Preset != "scaled" || exp.Seed != 1 {
		t.Errorf("export header wrong: %+v", exp)
	}
	// 2 apps x (1 baseline + 4 points) = 10 runs.
	if len(exp.Runs) != 10 {
		t.Fatalf("export has %d runs, want 10", len(exp.Runs))
	}

	// Baselines come first and carry no normalization.
	if exp.Runs[0].Policy != "SRAM" || exp.Runs[0].NormMemoryEnergy != 0 {
		t.Errorf("first exported run should be an un-normalized baseline: %+v", exp.Runs[0])
	}

	// Every non-baseline run is normalized and self-consistent.
	for _, run := range exp.Runs {
		if run.Policy == "SRAM" {
			continue
		}
		if run.NormMemoryEnergy <= 0 || run.NormMemoryEnergy >= 1.2 {
			t.Errorf("%s/%s: norm memory energy %v out of range", run.App, run.Policy, run.NormMemoryEnergy)
		}
		if run.NormTime < 0.9 {
			t.Errorf("%s/%s: norm time %v below the baseline", run.App, run.Policy, run.NormTime)
		}
		sum := run.DynamicJ + run.LeakageJ + run.RefreshJ + run.DRAMJ
		if diff := sum - run.MemoryEnergyJ; diff > 1e-9*sum || diff < -1e-9*sum {
			t.Errorf("%s/%s: component sum %v != memory energy %v", run.App, run.Policy, sum, run.MemoryEnergyJ)
		}
	}

	// JSON round trip.
	payload, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(payload), "\"norm_memory_energy\"") {
		t.Error("JSON output missing expected field names")
	}
	var loaded Export
	if err := json.Unmarshal(payload, &loaded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, exp) {
		t.Errorf("round trip changed the export:\n got  %+v\n want %+v", loaded, exp)
	}
}
