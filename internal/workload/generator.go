package workload

import (
	"fmt"
	"math/rand"

	"refrint/internal/config"
	"refrint/internal/mem"
)

// Address-space layout produced by the generators.  Each thread owns a
// private region; all threads share one shared region; a small region holds
// code.  Regions are placed far apart so they never alias.
const (
	privateRegionBase = 0x0000_0000_0000
	sharedRegionBase  = 0x1000_0000_0000
	codeRegionBase    = 0x2000_0000_0000
	privateRegionSize = 0x0100_0000_0000 // per-thread stride within the private area
)

// Generator produces the memory reference stream of one thread of an
// application.  Generators are deterministic for a given (params, thread,
// seed) triple.
type Generator struct {
	params Params
	geom   mem.LineGeometry
	thread int
	rng    *rand.Rand

	// Region sizes in lines.
	privateLines int
	sharedLines  int

	// window holds the thread's recently-touched lines (its hot working
	// set); references re-touch it with probability Locality.
	window []mem.LineAddr
	wpos   int

	// stride state for the "new line" path, giving the generator a mix of
	// streaming and random access like real array codes.
	nextPrivate int64
	nextShared  int64

	issued int64
}

// NewGenerator builds the reference generator for one thread.
func NewGenerator(p Params, cfg config.Config, thread int, seed int64) *Generator {
	g := new(Generator)
	g.Reset(p, cfg, thread, seed)
	return g
}

// Reset re-initialises the generator exactly as NewGenerator would.  It
// reseeds the existing random source and keeps the working window's
// storage when its capacity already equals WorkingWindow, so resetting
// allocates nothing.
func (g *Generator) Reset(p Params, cfg config.Config, thread int, seed int64) {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	if thread < 0 || thread >= cfg.Cores {
		panic(fmt.Sprintf("workload: thread %d out of range [0,%d)", thread, cfg.Cores))
	}
	// Split the footprint between one shared region and per-thread private
	// regions, in proportion to the shared fraction of references.
	shared := int(float64(p.FootprintLines) * p.SharedFraction)
	if shared < 1 {
		shared = 1
	}
	private := (p.FootprintLines - shared) / cfg.Cores
	if private < 1 {
		private = 1
	}
	rngSeed := seed ^ int64(thread)*0x5851F42D4C957F2D
	rng := g.rng
	if rng == nil {
		rng = rand.New(rand.NewSource(rngSeed))
	} else {
		rng.Seed(rngSeed)
	}
	window := g.window[:0]
	if cap(window) != p.WorkingWindow {
		window = make([]mem.LineAddr, 0, p.WorkingWindow)
	}
	*g = Generator{
		params:       p,
		geom:         cfg.Geometry(),
		thread:       thread,
		rng:          rng,
		privateLines: private,
		sharedLines:  shared,
		window:       window,
	}
}

// Params returns the generator's parameters.
func (g *Generator) Params() Params { return g.params }

// Issued returns how many references have been generated so far.
func (g *Generator) Issued() int64 { return g.issued }

// Done reports whether the thread has issued its full quota of references.
func (g *Generator) Done() bool { return g.issued >= g.params.MemOpsPerThread }

// Remaining returns the number of references the thread has yet to issue.
func (g *Generator) Remaining() int64 {
	r := g.params.MemOpsPerThread - g.issued
	if r < 0 {
		return 0
	}
	return r
}

// privateLineAddr maps a line index within the thread's private region to a
// global line address.
func (g *Generator) privateLineAddr(idx int64) mem.LineAddr {
	base := mem.Addr(privateRegionBase + int64(g.thread)*privateRegionSize)
	return g.geom.LineOf(base) + mem.LineAddr(idx)
}

// sharedLineAddr maps a line index within the shared region to a global line
// address.
func (g *Generator) sharedLineAddr(idx int64) mem.LineAddr {
	return g.geom.LineOf(mem.Addr(sharedRegionBase)) + mem.LineAddr(idx)
}

// codeLineAddr maps a code line index to a global line address.
func (g *Generator) codeLineAddr(idx int64) mem.LineAddr {
	return g.geom.LineOf(mem.Addr(codeRegionBase)) + mem.LineAddr(idx)
}

// remember adds a line to the thread's working window.
func (g *Generator) remember(line mem.LineAddr) {
	if cap(g.window) == 0 {
		return
	}
	if len(g.window) < cap(g.window) {
		g.window = append(g.window, line)
		return
	}
	g.window[g.wpos] = line
	if g.wpos++; g.wpos == len(g.window) {
		g.wpos = 0
	}
}

// Next produces the thread's next memory reference.  It returns false when
// the thread has finished its quota.
func (g *Generator) Next() (mem.Access, bool) {
	if g.Done() {
		return mem.Access{}, false
	}
	g.issued++

	// Occasional instruction fetch from the small code footprint.
	if g.rng.Float64() < g.params.InstrFetchFraction {
		line := g.codeLineAddr(int64(g.rng.Intn(g.params.CodeLines)))
		return mem.Access{
			Addr: g.geom.BaseOf(line),
			Type: mem.InstrFetch,
			Core: g.thread,
			Gap:  g.computeGap(),
		}, true
	}

	stream := g.params.StreamBias
	if stream == 0 {
		stream = 0.7
	}
	var line mem.LineAddr
	shared := false
	if len(g.window) > 0 && g.rng.Float64() < g.params.Locality {
		// Re-touch the hot working set.
		line = g.window[g.rng.Intn(len(g.window))]
		shared = uint64(line) >= uint64(g.geom.LineOf(mem.Addr(sharedRegionBase)))
	} else if g.rng.Float64() < g.params.SharedFraction {
		// Touch the shared region: streaming with occasional jumps, which is
		// what creates producer/consumer traffic between cores.
		if g.rng.Float64() < stream {
			g.nextShared = (g.nextShared + 1) % int64(g.sharedLines)
		} else {
			g.nextShared = g.rng.Int63n(int64(g.sharedLines))
		}
		line = g.sharedLineAddr(g.nextShared)
		shared = true
	} else {
		// Touch the private region.
		if g.rng.Float64() < stream {
			g.nextPrivate = (g.nextPrivate + 1) % int64(g.privateLines)
		} else {
			g.nextPrivate = g.rng.Int63n(int64(g.privateLines))
		}
		line = g.privateLineAddr(g.nextPrivate)
	}
	g.remember(line)

	typ := mem.Read
	if g.rng.Float64() < g.params.WriteFraction {
		typ = mem.Write
	}
	return mem.Access{
		Addr:   g.geom.BaseOf(line),
		Type:   typ,
		Core:   g.thread,
		Gap:    g.computeGap(),
		Shared: shared,
	}, true
}

// computeGap draws the number of non-memory instructions preceding the next
// reference (geometric-ish around the configured mean).
func (g *Generator) computeGap() int64 {
	mean := g.params.ComputePerMemOp
	if mean <= 0 {
		return 0
	}
	// Uniform in [mean/2, 3*mean/2] keeps the mean while adding jitter.
	lo := mean / 2
	span := mean
	if span < 1 {
		span = 1
	}
	return int64(lo + g.rng.Intn(span+1))
}

// App bundles the per-thread generators of one application run.
type App struct {
	params config.Config
	gens   []*Generator
	p      Params
}

// NewApp builds one generator per core for the given application.
func NewApp(p Params, cfg config.Config, seed int64) *App {
	a := new(App)
	a.Reset(p, cfg, seed)
	return a
}

// Reset re-initialises the application exactly as NewApp would, resetting
// the existing generators in place when the core count is unchanged.
func (a *App) Reset(p Params, cfg config.Config, seed int64) {
	if len(a.gens) != cfg.Cores {
		a.gens = make([]*Generator, cfg.Cores)
		for t := range a.gens {
			a.gens[t] = new(Generator)
		}
	}
	for t, g := range a.gens {
		g.Reset(p, cfg, t, seed)
	}
	a.params, a.p = cfg, p
}

// Thread returns the generator for one thread.
func (a *App) Thread(i int) *Generator { return a.gens[i] }

// Threads returns the number of threads.
func (a *App) Threads() int { return len(a.gens) }

// Params returns the application parameters.
func (a *App) Params() Params { return a.p }

// Done reports whether every thread has finished.
func (a *App) Done() bool {
	for _, g := range a.gens {
		if !g.Done() {
			return false
		}
	}
	return true
}

// TotalMemOps returns the total number of references the run will issue.
func (a *App) TotalMemOps() int64 {
	return a.p.MemOpsPerThread * int64(len(a.gens))
}
