package faults

import (
	"math"
	"slices"
	"testing"
)

// FuzzParseFaultSpec feeds arbitrary specs to Parse: it must never panic,
// and whatever it accepts must be a rule it can run — a named point, a rate
// in [0, 1] (never NaN, which would pass a range test and always fire) and
// a latency of at least zero.
func FuzzParseFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"store.put:error:NaN",
		"store.put:latency:1ms:NaN",
		"store.put:error:0.5",
		"store.get:corrupt:0.1",
		"sim.run:panic:1",
		"sim.run:latency:2s",
		"job.complete:panic",
		"store.put:error:1,sim.run:latency:10ms:0.1",
		"exec.latency:latency:1ms",
		"sim.run:latency:-5ms",
		"store.put:error:+Inf",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := Parse(spec)
		if err != nil || inj == nil {
			return
		}
		for point, rules := range inj.rules {
			if !slices.Contains(points, point) {
				t.Errorf("Parse(%q) accepted unknown point %q", spec, point)
			}
			for _, r := range rules {
				if math.IsNaN(r.rate) || r.rate < 0 || r.rate > 1 {
					t.Errorf("Parse(%q): %s rate %v outside [0, 1]", spec, point, r.rate)
				}
				if r.latency < 0 {
					t.Errorf("Parse(%q): %s latency %v below zero", spec, point, r.latency)
				}
			}
		}
	})
}
