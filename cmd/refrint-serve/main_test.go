package main

import (
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
		shards     int // the -shards flag
		wantProcs  int
		wantTooFew bool
	}{
		{name: "default shards get a spare P", current: 2, shards: 2, wantProcs: 3},
		{name: "fewer procs than shards", current: 2, shards: 4, wantProcs: 5},
		{name: "already a spare P", current: 8, shards: 2, wantProcs: 8},
		{name: "one spare P exactly", current: 3, shards: 2, wantProcs: 3},
		{name: "shards above NumCPU", current: cpus, shards: cpus + 3, wantProcs: cpus + 4},
		{name: "shards 0 means NumCPU workers", current: cpus, shards: 0, wantProcs: cpus + 1},
		{name: "negative shards means NumCPU workers", current: cpus, shards: -1, wantProcs: cpus + 1},
		{name: "env kept, too few", current: 2, fromEnv: true, shards: 2, wantProcs: 2, wantTooFew: true},
		{name: "env kept, below shards", current: 1, fromEnv: true, shards: 2, wantProcs: 1, wantTooFew: true},
		{name: "env kept, spare P", current: 3, fromEnv: true, shards: 2, wantProcs: 3},
		{name: "env kept, shards 0", current: cpus, fromEnv: true, shards: 0, wantProcs: cpus, wantTooFew: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			workers := server.Config{Shards: tc.shards}.Workers()
			procs, tooFew := gomaxprocsFor(tc.current, tc.fromEnv, workers)
			if procs != tc.wantProcs || tooFew != tc.wantTooFew {
				t.Errorf("gomaxprocsFor(%d, %v, %d) = %d, %v; want %d, %v",
					tc.current, tc.fromEnv, workers, procs, tooFew, tc.wantProcs, tc.wantTooFew)
			}
		})
	}
}
