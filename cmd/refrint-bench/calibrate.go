package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"time"
)

// The hosts this benchmark runs on are shared with other tenants, and their
// speed moves by up to a half over minutes as the tenants come and go:
// every wall-clock number moves with it.  So each run times a fixed
// calibration loop at points where its own workload is idle.  The loop mixes
// the kinds of work the simulator does (random access over 1 MB, sorting,
// hashing and map updates) and runs no code of the repository, so a change
// to the simulator cannot move it.  Its median time over calibrationRef is
// the run's slowdown.  Host times are divided by the slowdown and rates
// multiplied by it, so results read as if measured at the reference speed.
//
// service-mixed takes no samples.  Its numbers come from a second process
// that keeps both CPUs busy, and a loop timed while that process idles did
// not track them: calibrated, its spreads across runs doubled.

// calibrationRef is the loop's time on a quiet 2-CPU host.  A workload
// takes calibrationSamples samples wherever it is idle, and the simulation
// workloads one more every calibrationEvery of their window.
const (
	calibrationRef     = 4500 * time.Microsecond
	calibrationSamples = 5
	calibrationEvery   = 200 * time.Millisecond
)

// calibrator runs the calibration loop.  Its buffers are allocated once, so
// the loop allocates nothing and leaves no garbage behind.
type calibrator struct {
	buf     []uint64
	keys    []int
	work    []int
	blob    []byte
	counts  map[uint64]int
	sink    uint64
	samples []float64 // seconds
	last    time.Time
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(1))
	c := &calibrator{
		buf:    make([]uint64, 1<<17),
		keys:   make([]int, 20000),
		work:   make([]int, 20000),
		blob:   make([]byte, 256<<10),
		counts: make(map[uint64]int, 20000),
	}
	for i := range c.keys {
		c.keys[i] = r.Int()
	}
	return c
}

// sample times the loop once.
func (c *calibrator) sample() {
	start := time.Now()
	x, s := uint64(88172645463325252), uint64(0)
	for i := 0; i < 600_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(c.buf)-1)
		s += c.buf[j]
		c.buf[j] = s
	}
	copy(c.work, c.keys)
	sort.Ints(c.work)
	for i := 0; i < 4; i++ {
		h := sha256.Sum256(c.blob)
		c.blob[i] = h[0]
	}
	clear(c.counts)
	for i := 0; i < len(c.keys); i++ {
		c.counts[uint64(i)*2654435761]++
	}
	c.sink += s + uint64(c.work[0]) + uint64(len(c.counts))
	c.last = time.Now()
	c.samples = append(c.samples, c.last.Sub(start).Seconds())
}

// sampleN times the loop n times.
func (c *calibrator) sampleN(n int) {
	for range n {
		c.sample()
	}
}

// due reports whether at least d has passed since the last sample.
func (c *calibrator) due(d time.Duration) bool { return time.Since(c.last) >= d }

// slowdown is the median loop time over the reference time, or 1 for a
// workload that took no samples and so reports its metrics as measured.
func (c *calibrator) slowdown() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return percentile(c.samples, 50) / calibrationRef.Seconds()
}
