package server

import (
	"context"
	"sync/atomic"
	"testing"

	"refrint/internal/sweep"
)

// stubServer is a server whose executor does nothing: the progress
// benchmarks and allocation pins exercise the callback alone.
func stubServer(tb testing.TB) *Server {
	s := New(Config{
		Execute: func(context.Context, sweep.Options, sweep.Cell) (sweep.Run, error) {
			return sweep.Run{}, nil
		},
	})
	tb.Cleanup(s.Close)
	return s
}

// BenchmarkProgressCallback measures the per-simulation progress hook — the
// path the old implementation serialized on the global server mutex.  The
// perf gate pins it at 0 allocs/op (bench/baseline.txt).
func BenchmarkProgressCallback(b *testing.B) {
	s := stubServer(b)
	e := &entry{}
	cb := s.progressCallback(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb(sweep.Progress{Done: i + 1, Total: b.N})
	}
}

// BenchmarkHistogramObserve measures the latency-record path behind every
// /metrics histogram (HTTP requests, scheduler waits, execution times).  The
// perf gate pins it at 0 allocs/op (bench/baseline.txt).
func BenchmarkHistogramObserve(b *testing.B) {
	var h histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 0.0003)
	}
}

// BenchmarkHistogramObserveParallel contends Observe the way concurrent
// request handlers do.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h histogram
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0003)
		}
	})
}

// BenchmarkProgressCallbackParallel contends the CAS-max loop the way real
// sweeps do: every worker goroutine reports completions concurrently.
func BenchmarkProgressCallbackParallel(b *testing.B) {
	s := stubServer(b)
	e := &entry{}
	cb := s.progressCallback(e)
	var done atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			cb(sweep.Progress{Done: int(done.Add(1)), Total: b.N})
		}
	})
}
