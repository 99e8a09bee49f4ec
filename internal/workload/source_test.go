package workload

import (
	"math"
	"math/rand"
	"testing"

	"refrint/internal/config"
)

// sourceSeeds returns the seeds the exactness tests compare: the edges of
// math/rand's seed reduction plus pseudo-random ones.
func sourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -7, 42, 89482311, -89482311,
		int32max, int32max - 1, int32max + 1, -int32max, -int32max - 1, -int32max + 1,
		2 * int32max, 1 << 62, -1 << 62, math.MaxInt64, math.MinInt64,
	}
	r := rand.New(rand.NewSource(99))
	for len(seeds) < 520 {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	return seeds
}

func TestSourceMatchesMathRand(t *testing.T) {
	var s source
	for _, seed := range sourceSeeds() {
		want := rand.NewSource(seed)
		s.seed(seed) // reseeding in place, after the previous seed's draws
		for i := 0; i < 2*srcLen; i++ {
			if got, w := s.int63(), want.Int63(); got != w {
				t.Fatalf("seed %d, draw %d: int63 %d, math/rand %d", seed, i, got, w)
			}
		}
	}
}

func TestSeedrandMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 { // math/rand's seedrand
		const a, q, r = 48271, 44488, 3399
		x = a*(x%q) - r*(x/q)
		if x < 0 {
			x += int32max
		}
		return x
	}
	rng := rand.New(rand.NewSource(5))
	xs := []int32{1, 2, 44487, 44488, 44489, int32max - 2, int32max - 1}
	for i := 0; i < 10000; i++ {
		xs = append(xs, 1+rng.Int31n(int32max-1))
	}
	for _, x := range xs {
		if got, want := seedrand(uint64(x)), schrage(x); got != uint64(want) {
			t.Fatalf("seedrand(%d) = %d, want %d", x, got, want)
		}
	}
}

// unitFloat is the value Float64 derives from an Int63 draw x.
func unitFloat(x int64) float64 { return float64(x) / (1 << 63) }

func TestFloat64Limit(t *testing.T) {
	if unitFloat(float64Limit-1) >= 1 || unitFloat(float64Limit) != 1 || unitFloat(math.MaxInt64) != 1 {
		t.Fatalf("float64Limit %d is not where Float64 starts rounding to 1", int64(float64Limit))
	}
}

func TestThresholdIsExact(t *testing.T) {
	ps := []float64{
		0, 1, math.Nextafter(1, 0), 1 - 0x1p-53, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		math.SmallestNonzeroFloat64, 0x1p-63, 0x1p-64, 0x1p-62, 3 * 0x1p-63, 1e-300, 1e-18,
		0.05, 0.7, 0.9, 0.97, 0.999999, -0.5, 1.5, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		ps = append(ps, rng.Float64(), math.Ldexp(rng.Float64(), -rng.Intn(70)))
	}
	for _, p := range ps {
		tp := threshold(p)
		for _, x := range []int64{tp - 513, tp - 1, tp, tp + 1, tp + 513} {
			if x < 0 || x >= float64Limit {
				continue // not a value Float64 returns
			}
			if got, want := x < tp, unitFloat(x) < p; got != want {
				t.Fatalf("p=%v T=%d: x=%d: below %v, Float64()<p %v", p, tp, x, got, want)
			}
		}
	}
}

func TestBelowMatchesFloat64(t *testing.T) {
	for _, p := range []float64{0, 0.05, 0.3, 0.5, 0.7, 0.9, 0.97, 1} {
		var s source
		s.seed(11)
		r := rand.New(rand.NewSource(11))
		tp := threshold(p)
		for i := 0; i < 5000; i++ {
			if got, want := s.below(tp), r.Float64() < p; got != want {
				t.Fatalf("p=%v, draw %d: below %v, Float64()<p %v", p, i, got, want)
			}
		}
	}
}

// boundedNs are the ranges the bounded-draw tests compare: 1, 2, 3, powers
// of two, primes around the 2³¹ scale, and 2³¹-1 itself.
func boundedNs() []int {
	ns := []int{1, 2, 3, 5, 7, 8, 16, 17, 100, 129, 257, 512, 1000, 1 << 16, 1 << 20, 1 << 30,
		65537, 1000003, 16777213, 1073741789, 2147483629, 2147483647}
	return ns
}

func TestInt31nMatchesMathRand(t *testing.T) {
	for _, n := range boundedNs() {
		var s source
		s.seed(int64(n))
		r := rand.New(rand.NewSource(int64(n)))
		b := newBound(n)
		for i := 0; i < 3000; i++ {
			if got, want := s.int31n(&b), r.Int31n(int32(n)); got != uint64(want) {
				t.Fatalf("n=%d, draw %d: int31n %d, math/rand %d", n, i, got, want)
			}
		}
	}
}

// queueSource is a rand.Source that returns queued values.
type queueSource []int64

func (q *queueSource) Int63() int64 {
	v := (*q)[0]
	*q = (*q)[1:]
	return v
}

func (q *queueSource) Seed(int64) {}

// TestInt31nEdgesMatchMathRand checks int31n's rejection bound and the
// multiply that replaces Int31n's v % n at the edges of v, with registers
// whose next Int31 draws are v and then 0.
func TestInt31nEdgesMatchMathRand(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range boundedNs() {
		b := newBound(n)
		vs := []uint64{0, 1, uint64(n - 1), uint64(n), uint64(n + 1), b.limit - 1, b.limit, b.limit + 1, int32max}
		for i := 0; i < 1000; i++ {
			vs = append(vs, uint64(rng.Int31()))
		}
		for _, v := range vs {
			if v > int32max {
				continue
			}
			s := source{tap: 1, feed: 2} // draws vec[1]+vec[0], then vec[0]+vec[606]
			s.vec[1] = int64(v << 32)
			q := queueSource{int64(v << 32), 0}
			if got, want := s.int31n(&b), rand.New(&q).Int31n(int32(n)); got != uint64(want) {
				t.Fatalf("n=%d, Int31 %d: int31n %d, math/rand %d", n, v, got, want)
			}
		}
	}
}

func TestInt63nMatchesMathRand(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 100, 1 << 40, 1<<62 + 1, math.MaxInt64} {
		var s source
		s.seed(n)
		r := rand.New(rand.NewSource(n))
		for i := 0; i < 2000; i++ {
			if got, want := s.int63n(n), r.Int63n(n); got != want {
				t.Fatalf("n=%d, draw %d: int63n %d, math/rand %d", n, i, got, want)
			}
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), int64(10), 0.5)
	f.Add(int64(0), int64(1), 0.0)
	f.Add(int64(-7), int64(int32max), 1.0)
	f.Add(int64(1)<<62, int64(1)<<40, 0x1p-63)
	f.Fuzz(func(t *testing.T, seed, n int64, p float64) {
		var s source
		s.seed(seed)
		r := rand.New(rand.NewSource(seed))
		tp := threshold(p)
		var b bound
		if n > 0 && n <= int32max {
			b = newBound(int(n))
		}
		for i := 0; i < 200; i++ {
			if got, want := s.below(tp), r.Float64() < p; got != want {
				t.Fatalf("draw %d: below(%v) %v, math/rand %v", i, p, got, want)
			}
			if n <= 0 {
				continue
			}
			if n <= int32max {
				if got, want := s.int31n(&b), r.Int31n(int32(n)); got != uint64(want) {
					t.Fatalf("draw %d: int31n(%d) %d, math/rand %d", i, n, got, want)
				}
			}
			if got, want := s.int63n(n), r.Int63n(n); got != want {
				t.Fatalf("draw %d: int63n(%d) %d, math/rand %d", i, n, got, want)
			}
		}
	})
}

func TestGeneratorNextZeroAllocs(t *testing.T) {
	cfg := config.Scaled()
	for _, name := range []string{"LU", "Blackscholes", "FFT"} {
		p := ForConfig(mustGet(t, name), cfg)
		p.MemOpsPerThread = 1 << 40
		g := NewGenerator(p, cfg, 0, 1)
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 10000; i++ {
				g.Next()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations over 10k Next calls, want 0", name, allocs)
		}
	}
}

func TestAppResetZeroAllocs(t *testing.T) {
	cfg := config.Scaled()
	lu := ForConfig(mustGet(t, "LU"), cfg)
	fft := ForConfig(mustGet(t, "FFT"), cfg)
	app := NewApp(lu, cfg, 1)
	seed := int64(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		app.Reset(lu, cfg, seed)
	})
	if allocs != 0 {
		t.Errorf("App.Reset with an unchanged core count and window allocates %v times, want 0", allocs)
	}
	// A reset app draws what a fresh one does.
	app.Reset(fft, cfg, 5)
	fresh := NewApp(fft, cfg, 5)
	for th := 0; th < cfg.Cores; th++ {
		for i := 0; i < 2000; i++ {
			a, _ := app.Thread(th).Next()
			b, _ := fresh.Thread(th).Next()
			if a != b {
				t.Fatalf("thread %d, access %d: reset app %+v, fresh app %+v", th, i, a, b)
			}
		}
	}
}
