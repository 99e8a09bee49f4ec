package workload

import (
	"fmt"

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
//
// The stream is math/rand's Go 1 stream: the generator draws exactly what a
// rand.New(rand.NewSource(seed ^ thread·0x5851F42D4C957F2D)) would through
// Float64, Intn and Int63n, in the same order, from an inlined copy of that
// source (source.go).  TestGeneratorStreamDigest pins the stream.
type Generator struct {
	draws
	// src is math/rand's 4.9 KB register, seeded in place by Reset.
	src source
}

// draws is the generator's per-run state apart from its random source.
type draws struct {
	params Params
	geom   mem.LineGeometry
	thread int

	// Region sizes, and the first line of each region.
	privateLines int64
	sharedLines  int64
	privateBase  mem.LineAddr
	sharedBase   mem.LineAddr
	codeBase     mem.LineAddr

	// Float64() < p thresholds (see threshold) for the parameters'
	// probabilities.
	ifetchT, localityT, sharedT, streamT, writeT int64

	// Int31n bounds for the code lines, the lines remembered in the window
	// so far (at most its length) and the compute gap's span+1.
	code, windowN, gap bound
	gapLo              int64

	// window holds the thread's recently-touched lines (its hot working
	// set), windowN.n of them so far; references re-touch it with
	// probability Locality.
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
// reseeds the random source in place and keeps the working window's
// storage when its length already equals WorkingWindow, so resetting
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
	stream := p.StreamBias
	if stream == 0 {
		stream = 0.7
	}
	var gap bound
	if p.ComputePerMemOp > 0 {
		gap = newBound(p.ComputePerMemOp + 1)
	}
	window := g.window
	if len(window) != p.WorkingWindow {
		window = make([]mem.LineAddr, p.WorkingWindow)
	}
	geom := cfg.Geometry()
	g.draws = draws{
		params:       p,
		geom:         geom,
		thread:       thread,
		privateLines: int64(private),
		sharedLines:  int64(shared),
		privateBase:  geom.LineOf(mem.Addr(privateRegionBase + int64(thread)*privateRegionSize)),
		sharedBase:   geom.LineOf(mem.Addr(sharedRegionBase)),
		codeBase:     geom.LineOf(mem.Addr(codeRegionBase)),
		ifetchT:      threshold(p.InstrFetchFraction),
		localityT:    threshold(p.Locality),
		sharedT:      threshold(p.SharedFraction),
		streamT:      threshold(stream),
		writeT:       threshold(p.WriteFraction),
		code:         newBound(p.CodeLines),
		gap:          gap,
		gapLo:        int64(p.ComputePerMemOp / 2),
		window:       window,
	}
	g.src.seed(seed ^ int64(thread)*0x5851F42D4C957F2D)
}

// Done reports whether the thread has issued its full quota of references.
func (g *Generator) Done() bool { return g.issued >= g.params.MemOpsPerThread }

// remember adds a line to the thread's working window, over its oldest
// line once the window is full.
//
//refrint:alloc-free
func (g *Generator) remember(line mem.LineAddr) {
	g.window[g.wpos] = line
	if g.wpos++; g.wpos == len(g.window) {
		g.wpos = 0
	}
	if g.windowN.n < uint64(len(g.window)) { // still filling
		g.windowN = newBound(int(g.windowN.n) + 1)
	}
}

// Next produces the thread's next memory reference.  It returns false when
// the thread has finished its quota.
//
//refrint:alloc-free
func (g *Generator) Next() (mem.Access, bool) {
	if g.Done() {
		return mem.Access{}, false
	}
	g.issued++

	// Occasional instruction fetch from the small code footprint.
	if g.src.below(g.ifetchT) {
		line := g.codeBase + mem.LineAddr(g.src.int31n(&g.code))
		return mem.Access{
			Addr: g.geom.BaseOf(line),
			Type: mem.InstrFetch,
			Core: g.thread,
			Gap:  g.computeGap(),
		}, true
	}

	var line mem.LineAddr
	shared := false
	if g.windowN.n > 0 && g.src.below(g.localityT) {
		// Re-touch the hot working set.
		line = g.window[g.src.int31n(&g.windowN)]
		shared = line >= g.sharedBase
	} else if g.src.below(g.sharedT) {
		// Touch the shared region: streaming with occasional jumps, which is
		// what creates producer/consumer traffic between cores.
		g.nextShared = g.advance(g.nextShared, g.sharedLines)
		line = g.sharedBase + mem.LineAddr(g.nextShared)
		shared = true
	} else {
		// Touch the private region.
		g.nextPrivate = g.advance(g.nextPrivate, g.privateLines)
		line = g.privateBase + mem.LineAddr(g.nextPrivate)
	}
	g.remember(line)

	typ := mem.Read
	if g.src.below(g.writeT) {
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

// advance returns the next line index of a region of n lines after idx:
// usually the following line, sometimes a random jump.
//
//refrint:alloc-free
func (g *Generator) advance(idx, n int64) int64 {
	if !g.src.below(g.streamT) {
		return g.src.int63n(n)
	}
	if idx++; idx == n {
		return 0
	}
	return idx
}

// computeGap draws the number of non-memory instructions preceding the next
// reference, uniform in [mean/2, 3*mean/2].
//
//refrint:alloc-free
func (g *Generator) computeGap() int64 {
	if g.gap.n == 0 { // ComputePerMemOp ≤ 0
		return 0
	}
	return g.gapLo + int64(g.src.int31n(&g.gap))
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
