package sweep

// This file is the machine-readable form of the evaluation chapter: Table
// 6.1 and the figure series of Figures 6.1-6.4, consumed by the HTTP API
// (GET /v1/sweeps/{id}/figures) and by the golden-file tests that pin the
// series down.  The rows and bars are their own wire form.

// FigureSelectors are the application selections the paper breaks Figures
// 6.2-6.4 down by.
var FigureSelectors = []string{"class1", "class2", "class3", "all"}

// FiguresExport is the complete evaluation-data payload of one sweep:
// Table 6.1 plus every figure series, keyed by selector where the paper
// splits a figure by application class.
type FiguresExport struct {
	SweepKey string                          `json:"sweep_key"`
	Preset   string                          `json:"preset"`
	Seed     int64                           `json:"seed"`
	Apps     []string                        `json:"apps"`
	Table61  []Table61Row                    `json:"table61"`
	Figure61 []LevelEnergyBar                `json:"figure61"`
	Figure62 map[string][]ComponentEnergyBar `json:"figure62"`
	Figure63 map[string][]ScalarBar          `json:"figure63"`
	Figure64 map[string][]ScalarBar          `json:"figure64"`
}

// FiguresExport collects every figure series and Table 6.1 into the
// machine-readable payload served by the sweep API.
func (r *Results) FiguresExport() FiguresExport {
	out := FiguresExport{
		SweepKey: r.Options.Key(),
		Preset:   r.Options.Base.Name,
		Seed:     r.Options.Seed,
		Apps:     append([]string(nil), r.Options.Apps...),
		Table61:  r.Table61(),
		Figure61: r.Figure61(),
		Figure62: make(map[string][]ComponentEnergyBar),
		Figure63: make(map[string][]ScalarBar),
		Figure64: make(map[string][]ScalarBar),
	}
	for _, sel := range FigureSelectors {
		out.Figure62[sel] = r.Figure62(sel)
		out.Figure63[sel] = r.Figure63(sel)
		out.Figure64[sel] = r.Figure64(sel)
	}
	return out
}
