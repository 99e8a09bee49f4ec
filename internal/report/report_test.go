package report

import (
	"strings"
	"testing"

	"refrint/internal/config"
	"refrint/internal/sweep"
	"refrint/internal/workload"
)

func TestTable31MentionsEveryPolicy(t *testing.T) {
	out := Table31()
	for _, want := range []string{"Periodic", "Refrint", "All", "Valid", "Dirty", "WB(n,m)", "Sentry"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3.1 missing %q", want)
		}
	}
}

func TestTable51MatchesConfig(t *testing.T) {
	out := Table51(config.FullSize())
	for _, want := range []string{"16-core", "1000 MHz", "32 KB", "256 KB", "16 x 1024 KB", "4x4 torus", "directory MESI"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5.1 missing %q in:\n%s", want, out)
		}
	}
}

func TestTable52RatiosPresent(t *testing.T) {
	out := Table52()
	if !strings.Contains(out, "1/4") || !strings.Contains(out, "access energy") {
		t.Errorf("Table 5.2 missing cell ratios:\n%s", out)
	}
}

func TestTable53ListsAllApplications(t *testing.T) {
	out := Table53()
	for _, name := range workload.AppNames() {
		if !strings.Contains(out, name) {
			t.Errorf("Table 5.3 missing %q", name)
		}
	}
}

func TestTable54SweepSummary(t *testing.T) {
	out := Table54()
	for _, want := range []string{"50 us", "100 us", "200 us", "Periodic, Refrint", "WB(32,32)", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5.4 missing %q in:\n%s", want, out)
		}
	}
}

func TestTable61SortsByClass(t *testing.T) {
	rows := []sweep.Table61Row{
		{App: "Zeta", Class: workload.Class3, FootprintRatio: 0.1, Visibility: 0.1},
		{App: "Alpha", Class: workload.Class1, FootprintRatio: 2.0, Visibility: 0.9},
	}
	out := Table61(rows)
	if strings.Index(out, "Alpha") > strings.Index(out, "Zeta") {
		t.Error("Class 1 rows should precede Class 3 rows")
	}
}

func samplePoint() sweep.Point {
	return sweep.Point{RetentionUS: 50, Policy: config.RefrintWB(32, 32)}
}

func TestFigureRenderers(t *testing.T) {
	lvl := []sweep.LevelEnergyBar{{Point: samplePoint(), L1: 0.05, L2: 0.1, L3: 0.2, DRAM: 0.1, Total: 0.45}}
	out := Figure61(lvl)
	if !strings.Contains(out, "R.WB(32,32)") || !strings.Contains(out, "0.450") {
		t.Errorf("Figure 6.1 rendering wrong:\n%s", out)
	}

	comp := []sweep.ComponentEnergyBar{{Point: samplePoint(), Dynamic: 0.1, Leakage: 0.2, Refresh: 0.05, DRAM: 0.1, Total: 0.45}}
	out = Figure62("class1", comp)
	if !strings.Contains(out, "class1") || !strings.Contains(out, "0.450") {
		t.Errorf("Figure 6.2 rendering wrong:\n%s", out)
	}

	sc := []sweep.ScalarBar{{Point: samplePoint(), Value: 1.02}}
	out = FigureScalar("Figure 6.4: Execution time", "all", sc)
	if !strings.Contains(out, "1.020") || !strings.Contains(out, "Execution time") {
		t.Errorf("scalar figure rendering wrong:\n%s", out)
	}
}

func TestCSVRenderers(t *testing.T) {
	lvl := []sweep.LevelEnergyBar{{Point: samplePoint(), L1: 0.05, L2: 0.1, L3: 0.2, DRAM: 0.1, Total: 0.45}}
	csv := Figure61CSV(lvl)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV should have header + 1 row, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "retention_us,policy,L1") {
		t.Errorf("CSV header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "R.WB(32,32)") {
		t.Errorf("CSV row wrong: %q", lines[1])
	}

	comp := []sweep.ComponentEnergyBar{{Point: samplePoint(), Dynamic: 0.1, Leakage: 0.2, Refresh: 0.05, DRAM: 0.1, Total: 0.45}}
	if got := Figure62CSV(comp); !strings.Contains(got, "refresh") || !strings.Contains(got, "0.0500") {
		t.Errorf("Figure 6.2 CSV wrong:\n%s", got)
	}

	sc := []sweep.ScalarBar{{Point: samplePoint(), Value: 1.02}}
	if got := ScalarCSV("time", sc); !strings.Contains(got, "time") || !strings.Contains(got, "1.0200") {
		t.Errorf("scalar CSV wrong:\n%s", got)
	}
}

func TestCSVEscapesNothingButJoins(t *testing.T) {
	out := CSV([]string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	want := "a,b\n1,2\n3,4\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}
