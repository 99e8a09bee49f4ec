//go:build !race

// Allocation regression pins for the server's per-request hot paths.
// Excluded under -race: the race runtime instruments allocations.

package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHistogramObserveZeroAllocs pins the latency-record path at zero
// allocations: Observe runs in request handlers and scheduler callbacks, so
// anything per-observation multiplies across every request and dequeue.
func TestHistogramObserveZeroAllocs(t *testing.T) {
	var h histogram
	v := 0.0
	allocs := testing.AllocsPerRun(10000, func() {
		v += 0.0001
		h.Observe(v)
	})
	if allocs != 0 {
		t.Fatalf("histogram Observe allocates %v/op, want 0", allocs)
	}
}

// nopResponseWriter is the cheapest possible ResponseWriter: the middleware
// pin below must measure the middleware, not the sink behind it.
type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header       { return w.h }
func (nopResponseWriter) WriteHeader(int)             {}
func (nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestHTTPMiddlewareZeroAllocs pins the request-metrics middleware hot path
// at zero allocations in steady state: status writers are pooled and the
// (route, code) histogram already exists after the first request.
func TestHTTPMiddlewareZeroAllocs(t *testing.T) {
	s := stubServer(t)
	handler := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	req := httptest.NewRequest("GET", "/pinned", nil)
	req.Pattern = "GET /pinned" // what the mux would set on a routed request
	w := nopResponseWriter{h: make(http.Header)}
	handler.ServeHTTP(w, req) // warm-up: creates the (route, code) histogram
	allocs := testing.AllocsPerRun(10000, func() {
		handler.ServeHTTP(w, req)
	})
	if allocs != 0 {
		t.Fatalf("HTTP middleware allocates %v/op, want 0", allocs)
	}
}
