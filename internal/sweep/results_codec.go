package sweep

import (
	"encoding/json"
	"fmt"
)

// This file makes *Results round-trip through JSON, so a persistent store
// can keep completed sweeps across process restarts.  The wire form is a
// flat, deterministic rendering (options + runs in figure order); the index
// maps of Results are rebuilt on decode.
//
// The codec is distinct from Export(): Export flattens runs into normalized
// report rows for archival and plotting, while this codec preserves the full
// Results — raw counters, energy breakdowns and point structure — so every
// figure generator works on a reloaded sweep exactly as on a fresh one.

// resultsWire is the serialized form of Results.
type resultsWire struct {
	Options Options `json:"options"`
	Points  []Point `json:"points"`
	// Baselines and Runs are ordered by the options' app and point order,
	// so encoding is deterministic.
	Baselines []Run `json:"baselines"`
	Runs      []Run `json:"runs"`
}

// MarshalJSON implements json.Marshaler.
func (r *Results) MarshalJSON() ([]byte, error) {
	w := resultsWire{Options: r.Options, Points: r.Points}
	for _, app := range r.Options.Apps {
		if run, ok := r.Baselines[app]; ok {
			w.Baselines = append(w.Baselines, run)
		}
	}
	for _, pt := range r.Points {
		for _, app := range r.Options.Apps {
			if run, ok := r.Lookup(app, pt); ok {
				w.Runs = append(w.Runs, run)
			}
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler, rebuilding the index maps.
func (r *Results) UnmarshalJSON(data []byte) error {
	var w resultsWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("sweep: decoding results: %w", err)
	}
	r.Options = w.Options
	r.Points = w.Points
	r.Baselines = make(map[string]Run, len(w.Baselines))
	for _, run := range w.Baselines {
		r.Baselines[run.App] = run
	}
	r.Runs = make(map[string]map[string]Run, len(w.Points))
	for _, pt := range w.Points {
		r.Runs[pt.Key()] = make(map[string]Run)
	}
	for _, run := range w.Runs {
		byApp, ok := r.Runs[run.Point.Key()]
		if !ok {
			byApp = make(map[string]Run)
			r.Runs[run.Point.Key()] = byApp
		}
		byApp[run.App] = run
	}
	return nil
}
