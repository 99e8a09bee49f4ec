package sim

import (
	"refrint/internal/mem"
	"refrint/internal/workload"
)

// The feed moves reference generation off the run loop's critical path.
// Generating a reference reads no simulation state, so while RunContext
// resolves references through the hierarchy, a producer goroutine of its
// own draws each core's next references into chunks that the run loop then
// reads.
//
// Each core owns chunksPerCore chunks of chunkRecs records.  A chunk
// circulates between the two goroutines through channels, which also order
// every write to a chunk before its reads and back:
//
//   - free queues the chunks the run loop has finished reading, for the
//     producer to refill, and carries the stop sentinel;
//   - full[core] queues the core's filled chunks in the order they were
//     drawn, for the run loop.
//
// The producer fills whichever chunk comes back, from its core's own
// generator, so every core reads its generator's stream in order: the
// references consumed are exactly those of calling Generator.Next in the
// run loop.  A chunk holding fewer than chunkRecs records is its core's
// last: the generator had finished its quota.
//
// The producer lives for one RunContext call.  RunContext starts it and,
// on every way out (completion, cancellation or a panic), sends the
// sentinel and waits for it, so no goroutine outlives the call.  The
// producer handles the chunks queued before the sentinel first, so a
// stopped feed holds every chunk the run loop is not reading filled, and
// the next call resumes from them on any goroutine.
const (
	chunkRecs     = 256
	chunksPerCore = 2
	stopFeed      = -1 // the sentinel on free
)

// record is one reference as the run loop reads it: 16 bytes, against 40
// for a mem.Access, since the run loop never reads Core or Shared and takes
// the line rather than the byte address.
type record struct {
	line mem.LineAddr
	gap  uint32 // workload.Params.Validate bounds the gap below 2^32
	typ  mem.AccessType
}

// chunk is a run of one core's records, the first n of recs.
type chunk struct {
	recs [chunkRecs]record
	n    int
}

// cursor is the run loop's place in one core's stream.
type cursor struct {
	recs []record // the records of the chunk being read
	pos  int
	h    int32 // the chunk's handle, or -1 before the core's first
}

// feed is a System's reference feed (see above).  Chunk h belongs to core
// h / chunksPerCore.
type feed struct {
	app     *workload.App
	geom    mem.LineGeometry
	chunks  []chunk
	cursors []cursor
	free    chan int32
	full    []chan int32
	stopped chan struct{}
	// produce is run bound once, so that starting the producer with
	// `go f.produce()` allocates no closure.
	produce func()
}

// reset makes f feed app's streams from their first reference, with every
// chunk queued for the producer, chunk 0 of every core first.  It
// allocates only when the core count changes.  No producer may be running.
func (f *feed) reset(app *workload.App, geom mem.LineGeometry) {
	if f.produce == nil {
		f.produce = f.run
	}
	f.app, f.geom = app, geom
	cores := app.Threads()
	if len(f.cursors) != cores {
		f.chunks = make([]chunk, cores*chunksPerCore)
		f.cursors = make([]cursor, cores)
		f.free = make(chan int32, len(f.chunks)+1) // every chunk and the sentinel
		f.full = make([]chan int32, cores)
		for i := range f.full {
			// A slot per chunk of the core: the producer never waits to
			// hand one over.
			f.full[i] = make(chan int32, chunksPerCore)
		}
		f.stopped = make(chan struct{}, 1)
	}
	for len(f.free) > 0 {
		<-f.free
	}
	for _, ch := range f.full {
		for len(ch) > 0 {
			<-ch
		}
	}
	for i := range f.cursors {
		f.cursors[i] = cursor{h: -1}
	}
	for k := range chunksPerCore {
		for core := range cores {
			f.free <- int32(core*chunksPerCore + k)
		}
	}
}

// stop ends the producer that `go f.produce()` started and waits until it
// has filled every chunk queued before the sentinel.
func (f *feed) stop() {
	f.free <- stopFeed
	<-f.stopped
}

// run is the producer: it refills each chunk that comes back on free from
// its core's generator until it reads the sentinel.
func (f *feed) run() {
	for {
		h := <-f.free
		if h == stopFeed {
			f.stopped <- struct{}{}
			return
		}
		core := int(h) / chunksPerCore
		gen := f.app.Thread(core)
		c := &f.chunks[h]
		n := 0
		for ; n < chunkRecs; n++ {
			a, ok := gen.Next()
			if !ok {
				break
			}
			c.recs[n] = record{line: f.geom.LineOf(a.Addr), gap: uint32(a.Gap), typ: a.Type}
		}
		c.n = n
		f.full[core] <- h
	}
}

// advance hands c's read chunk back to the producer and takes core's next
// filled chunk, waiting for it if need be.  It returns false when the
// chunk read was the core's last.
//
//refrint:alloc-free
func (f *feed) advance(c *cursor, core int) bool {
	if c.h >= 0 {
		if len(c.recs) < chunkRecs {
			return false
		}
		f.free <- c.h
	}
	h := <-f.full[core]
	next := &f.chunks[h]
	c.recs, c.pos, c.h = next.recs[:next.n], 0, h
	return next.n > 0
}
