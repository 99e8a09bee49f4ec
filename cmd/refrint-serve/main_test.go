package main

import (
	"math"
	"runtime"
	"testing"

	"refrint/internal/server"
)

func TestGomaxprocsFor(t *testing.T) {
	cpus := runtime.NumCPU()
	for _, tc := range []struct {
		name       string
		current    int
		fromEnv    bool
		workers    int // the -workers flag
		wantProcs  int
		wantTooFew bool
	}{
		{name: "default workers get a spare P", current: 2, workers: 2, wantProcs: 3},
		{name: "fewer procs than workers", current: 2, workers: 4, wantProcs: 5},
		{name: "already a spare P", current: 8, workers: 2, wantProcs: 8},
		{name: "one spare P exactly", current: 3, workers: 2, wantProcs: 3},
		{name: "workers above NumCPU", current: cpus, workers: cpus + 3, wantProcs: cpus + 4},
		{name: "workers 0 means NumCPU workers", current: cpus, workers: 0, wantProcs: cpus + 1},
		{name: "negative workers means NumCPU workers", current: cpus, workers: -1, wantProcs: cpus + 1},
		{name: "env kept, too few", current: 2, fromEnv: true, workers: 2, wantProcs: 2, wantTooFew: true},
		{name: "env kept, below workers", current: 1, fromEnv: true, workers: 2, wantProcs: 1, wantTooFew: true},
		{name: "env kept, spare P", current: 3, fromEnv: true, workers: 2, wantProcs: 3},
		{name: "env kept, workers 0", current: cpus, fromEnv: true, workers: 0, wantProcs: cpus, wantTooFew: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			workers := server.Config{Workers: tc.workers}.NumWorkers()
			procs, tooFew := gomaxprocsFor(tc.current, tc.fromEnv, workers)
			if procs != tc.wantProcs || tooFew != tc.wantTooFew {
				t.Errorf("gomaxprocsFor(%d, %v, %d) = %d, %v; want %d, %v",
					tc.current, tc.fromEnv, workers, procs, tooFew, tc.wantProcs, tc.wantTooFew)
			}
		})
	}
}

func TestCheckClientRate(t *testing.T) {
	for _, rate := range []float64{0, 0.001, 1, 1000} {
		if err := checkClientRate(rate); err != nil {
			t.Errorf("checkClientRate(%v) = %v, want nil", rate, err)
		}
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if err := checkClientRate(rate); err == nil {
			t.Errorf("checkClientRate(%v) = nil, want an error", rate)
		}
	}
}
