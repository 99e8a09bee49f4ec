package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"refrint"
	"refrint/internal/sched"
	"refrint/internal/store"
	"refrint/internal/sweep"
)

// TestSweepAndBatchAdmitAlike posts each request alone to POST /v1/sweeps
// and as a one-request POST /v1/batches on the same server, and requires
// both to get the same status and Retry-After.  After a 503 the client's
// quota token is back.
func TestSweepAndBatchAdmitAlike(t *testing.T) {
	// A store holding every cell of tinyRequest(1).
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	fill := newHarness(t, Config{Store: st})
	first, _ := fill.submit(tinyRequest(1))
	fill.waitState(first.ID, StateDone)

	// fullBackground is a quota server whose background class is full: an
	// interactive sweep holds the only worker and a background one is
	// queued behind it.  No background cell has been dequeued, so the
	// Retry-After hint is the flat 5 s.
	fullBackground := func(t *testing.T) *harness {
		exec := newBlockingExec()
		h := newHarness(t, Config{Store: st, Workers: 1, ClientRate: 0.001, ClientBurst: 2,
			ClassQueueDepth: [sched.NumClasses]int{1, 1, 1}, Execute: exec.fn})
		t.Cleanup(func() { close(exec.release) })
		h.submit(tinyRequest(2))
		<-exec.started
		filler := tinyRequest(3)
		filler.Priority = "background"
		if _, status := h.submit(filler); status != http.StatusAccepted {
			t.Fatalf("background filler: status %d, want 202", status)
		}
		return h
	}
	plain := func(t *testing.T) *harness { return newHarness(t, Config{}) }
	background := func(seed int64) refrint.SweepRequest {
		r := tinyRequest(seed)
		r.Client, r.Priority = "tenant", "background"
		return r
	}
	badClient, badPriority := tinyRequest(4), tinyRequest(4)
	badClient.Client = "no spaces allowed"
	badPriority.Priority = "urgent"

	cases := []struct {
		name  string
		setup func(t *testing.T) *harness
		req   refrint.SweepRequest
		want  int
	}{
		{"bad client", plain, badClient, http.StatusBadRequest},
		{"bad priority", plain, badPriority, http.StatusBadRequest},
		{"over quota", func(t *testing.T) *harness {
			h := newHarness(t, Config{ClientRate: 0.001, ClientBurst: 1,
				Execute: func(context.Context, sweep.Options, sweep.Cell) (sweep.Run, error) { return sweep.Run{}, nil }})
			if _, status := h.submit(background(5)); status != http.StatusAccepted {
				t.Fatalf("first submission: status %d, want 202", status)
			}
			return h
		}, background(6), http.StatusTooManyRequests},
		{"draining", func(t *testing.T) *harness {
			h := newHarness(t, Config{ClientRate: 0.001, ClientBurst: 1})
			h.srv.BeginDrain(3 * time.Second)
			return h
		}, background(7), http.StatusServiceUnavailable},
		{"full class", fullBackground, background(8), http.StatusServiceUnavailable},
		{"stored on a full class", fullBackground, background(1), http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.setup(t)
			lone := h.do("POST", "/v1/sweeps", tc.req, nil)
			batch := h.do("POST", "/v1/batches", BatchRequest{Requests: []refrint.SweepRequest{tc.req}}, nil)
			if lone.StatusCode != tc.want || batch.StatusCode != tc.want {
				t.Fatalf("status: sweep %d, batch %d; want %d", lone.StatusCode, batch.StatusCode, tc.want)
			}
			ra, bra := lone.Header.Get("Retry-After"), batch.Header.Get("Retry-After")
			if ra != bra {
				t.Errorf("Retry-After: sweep %q, batch %q", ra, bra)
			}
			if refused := tc.want == http.StatusTooManyRequests || tc.want == http.StatusServiceUnavailable; refused != (ra != "") {
				t.Errorf("Retry-After %q on status %d", ra, tc.want)
			}
			if tc.want == http.StatusServiceUnavailable {
				q := h.srv.quota
				q.mu.Lock()
				b := q.buckets[tc.req.Client]
				q.mu.Unlock()
				if b == nil || b.tokens < q.burst-0.5 {
					t.Errorf("bucket after two 503s = %+v, want its %v tokens back", b, q.burst)
				}
			}
		})
	}
}

// TestUnlabeledRunsEndDone pins that a job ends however its Execute labels
// the Runs it returns: sweep.Assemble files each Run under its own cell, so
// a sweep of sweep.Run{} values (what stubServer's executor returns) ends
// done, and no scheduler callback panics on the way.
func TestUnlabeledRunsEndDone(t *testing.T) {
	h := newHarness(t, Config{
		Execute: func(context.Context, sweep.Options, sweep.Cell) (sweep.Run, error) { return sweep.Run{}, nil },
	})
	view, status := h.submit(tinyRequest(1))
	if status != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", status)
	}
	for deadline := time.Now().Add(5 * time.Second); view.State != StateDone; view = h.getJob(view.ID) {
		if view.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %q (err %q), want done", view.ID, view.State, view.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.srv.mu.Lock()
	panics := h.srv.panicsTotal["sched"]
	h.srv.mu.Unlock()
	if panics != 0 {
		t.Fatalf("sched panics = %d, want 0", panics)
	}
}

// FuzzPlanRequest feeds arbitrary bodies to both submission endpoints of a
// draining server, which plans every request and then admits none.  A body
// the shared decode and planning reject must be answered 400, and one they
// plan 503 (the drain), with every planned job well formed.
func FuzzPlanRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"apps":["FFT"],"retention_times_us":[50],"policies":["R.valid"],"effort_scale":0.05,"seed":7,"workers":2}`,
		`{"apps":["FFT","LU"],"retention_times_us":[50],"effort_scale":0.25,"priority":"background","client":"nightly"}`,
		`{"policies":["Q.all"]}`,
		`{"apps":["RADIX"]}`,
		`{"priority":"urgent"}`,
		`{"client":"no spaces allowed"}`,
		`{"timeout_ms":-1}`,
		`{"aps":["FFT"]}`,
		`{"requests":[]}`,
		`{"priority":"background","client":"nightly","requests":[{"apps":["FFT"],"effort_scale":0.25},{"apps":["LU"],"effort_scale":0.25}]}`,
		`{"priority":"interactive","requests":[{"apps":["FFT"],"priority":"background"},{"client":"bad label"}]}`,
		`{"requests":[{}],"extra":1}`,
		`[]`, `null`, `"x"`, ``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{JobTimeout: time.Minute})
	defer s.Close()
	s.BeginDrain(time.Second)
	post := func(path string, body []byte) int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return rec.Code
	}
	decode := func(body []byte, limit int64, v any) bool {
		return decodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", "/", bytes.NewReader(body)), limit, v)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		received := time.Now()
		var req refrint.SweepRequest
		var plan []*Job
		if decode(body, 1<<20, &req) {
			if j, err := s.planJob(req, sched.Interactive, "fuzz", received); err == nil {
				plan = []*Job{j}
			}
		}
		checkPlan(t, s, "POST /v1/sweeps", post("/v1/sweeps", body), plan)

		var breq BatchRequest
		plan = nil
		if decode(body, 8<<20, &breq) {
			var err error
			if _, plan, err = s.planBatch(breq, "fuzz", received); err == nil && len(plan) != len(breq.Requests) {
				t.Fatalf("batch of %d requests planned as %d jobs", len(breq.Requests), len(plan))
			}
		}
		checkPlan(t, s, "POST /v1/batches", post("/v1/batches", body), plan)
	})
}

// checkPlan requires the endpoint to answer a body that the decode and
// planning rejected (plan == nil) with 400 and one they planned with 503,
// the drain, and every planned job to be well formed.
func checkPlan(t *testing.T, s *Server, endpoint string, status int, plan []*Job) {
	t.Helper()
	want := http.StatusServiceUnavailable
	if plan == nil {
		want = http.StatusBadRequest
	}
	if status != want {
		t.Fatalf("%s: status %d, want %d", endpoint, status, want)
	}
	for _, j := range plan {
		if j.class < 0 || j.class >= sched.NumClasses || validateClient(j.request.Client) != nil {
			t.Fatalf("%s: planned job has class %d, client %q", endpoint, j.class, j.request.Client)
		}
		if j.key == "" || j.key != j.opts.Key() || j.total != j.opts.Size() {
			t.Fatalf("%s: planned job key %q, total %d disagree with its options", endpoint, j.key, j.total)
		}
		if j.timeout <= 0 || j.timeout > s.cfg.JobTimeout || len(j.trace.marks) != 1 {
			t.Fatalf("%s: planned job timeout %v, %d trace marks", endpoint, j.timeout, len(j.trace.marks))
		}
	}
}
