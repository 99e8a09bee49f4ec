package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"refrint/internal/store"
	"refrint/internal/sweep"
)

// stubServer is a server whose executor does nothing, for the middleware
// allocation pin (alloc_test.go).
func stubServer(tb testing.TB) *Server {
	s := New(Config{
		Execute: func(context.Context, sweep.Options, sweep.Cell) (sweep.Run, error) {
			return sweep.Run{}, nil
		},
	})
	tb.Cleanup(s.Close)
	return s
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

// replicaExec answers every cell of a sweep with the result of one real
// simulation, so the resubmission benchmarks below fill a store with the
// default sweep's 473 realistically sized cells in milliseconds.
func replicaExec(tb testing.TB) ExecuteFunc {
	opts := sweep.Options{Apps: []string{"FFT"}, EffortScale: 0.05, Workers: 1}
	run, err := sweep.RunCell(context.Background(), opts, sweep.Cells(opts)[0])
	if err != nil {
		tb.Fatal(err)
	}
	return func(_ context.Context, _ sweep.Options, c sweep.Cell) (sweep.Run, error) {
		return sweep.Run{App: c.App, Point: c.Point, Result: run.Result}, nil
	}
}

// postSweep submits the default sweep ({} = 473 cells) and returns the
// response status and job view.
func postSweep(tb testing.TB, s *Server) (int, JobView) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader("{}")))
	var view JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		tb.Fatalf("POST /v1/sweeps: status %d, body %q: %v", rec.Code, rec.Body.String(), err)
	}
	return rec.Code, view
}

// completeDefaultSweep runs the default sweep on s to completion.
func completeDefaultSweep(tb testing.TB, s *Server) {
	_, view := postSweep(tb, s)
	for deadline := time.Now().Add(time.Minute); view.State != StateDone; {
		if view.State.Terminal() || time.Now().After(deadline) {
			tb.Fatalf("default sweep ended %s", view.State)
		}
		time.Sleep(10 * time.Millisecond)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sweeps/"+view.ID, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkResubmitAfterRestart measures resubmitting the default sweep to
// a freshly started server over a data dir that holds it: each iteration
// opens a cold store handle (outside the timer), then times the one POST
// that must answer 200 from the stored sweep.
func BenchmarkResubmitAfterRestart(b *testing.B) {
	dir := b.TempDir()
	exec := replicaExec(b)
	open := func() *store.Store {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	st := open()
	s := New(Config{Store: st, Execute: exec})
	completeDefaultSweep(b, s)
	s.Close()
	st.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := open()
		s := New(Config{Store: st, Execute: exec})
		b.StartTimer()
		code, view := postSweep(b, s)
		b.StopTimer()
		if code != 200 || !view.CacheHit {
			b.Fatalf("resubmit after restart: status %d, cache_hit %v", code, view.CacheHit)
		}
		s.Close()
		st.Close()
		b.StartTimer()
	}
}

// BenchmarkResubmitSameLifetime measures resubmitting the default sweep to
// the server that just completed it, with the server's default store.
func BenchmarkResubmitSameLifetime(b *testing.B) {
	s := New(Config{Execute: replicaExec(b)})
	b.Cleanup(s.Close)
	completeDefaultSweep(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, view := postSweep(b, s); code != 200 || !view.CacheHit {
			b.Fatalf("resubmit: status %d, cache_hit %v", code, view.CacheHit)
		}
	}
}

// BenchmarkServiceBackgroundRound runs the benchmark's background round
// (three overlapping two-application sweeps at 50 µs, effort 0.1: 45
// distinct cells) on a fresh in-process server with 2 workers, and reports
// the distinct cells computed per second and how many of them reused a
// Valid run.  Each round starts from an empty store, outside the timer.
func BenchmarkServiceBackgroundRound(b *testing.B) {
	body, err := json.Marshal(backgroundBatch(1, 0.1))
	if err != nil {
		b.Fatal(err)
	}
	var cells, reused float64
	var elapsed time.Duration
	for range b.N {
		b.StopTimer()
		s := New(Config{Workers: 2})
		b.StartTimer()
		start := time.Now()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batches", strings.NewReader(string(body))))
		var view BatchView
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil || rec.Code != 202 {
			b.Fatalf("POST /v1/batches: status %d, body %q", rec.Code, rec.Body.String())
		}
		for deadline := start.Add(time.Minute); view.State != StateDone; time.Sleep(time.Millisecond) {
			if view.State.Terminal() || time.Now().After(deadline) {
				b.Fatalf("background round ended %s", view.State)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/batches/"+view.ID, nil))
			if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
				b.Fatal(err)
			}
		}
		elapsed += time.Since(start)
		b.StopTimer()
		s.mu.Lock()
		reused = float64(s.cellReuses)
		s.mu.Unlock()
		cells = float64(s.store.Stats().CellMisses)
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N)*cells/elapsed.Seconds(), "cells/s")
	b.ReportMetric(reused, "reused_cells")
}
