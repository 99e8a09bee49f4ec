package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"refrint"
	"refrint/internal/sched"
	"refrint/internal/sweep"
)

// sseConfig returns a Config tuned for streaming tests: fast heartbeats so
// assertions do not wait on the production interval, and one worker so
// gated cells run one at a time.
func sseConfig(exec ExecuteFunc) Config {
	return Config{
		Workers:        1,
		Execute:        exec,
		EventHeartbeat: 25 * time.Millisecond,
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id   string
	name string
	data string
}

// progressPayload decodes the event data as a progress/state payload; both
// progressEvent and JobView/BatchView marshal a "progress" object and a
// "state" string, which is all the tests need.
func (e sseEvent) progressPayload(t *testing.T) (state State, p ProgressView) {
	t.Helper()
	var v struct {
		State    State        `json:"state"`
		Progress ProgressView `json:"progress"`
	}
	if err := json.Unmarshal([]byte(e.data), &v); err != nil {
		t.Fatalf("event %q data %q: %v", e.name, e.data, err)
	}
	return v.State, v.Progress
}

// sseStream incrementally parses a live text/event-stream response.
type sseStream struct {
	t    *testing.T
	resp *http.Response
	br   *bufio.Reader
}

// openSSE connects to an SSE endpoint and asserts the stream handshake.
func (h *harness) openSSE(path, lastEventID string) *sseStream {
	h.t.Helper()
	req, err := http.NewRequest("GET", h.ts.URL+path, nil)
	if err != nil {
		h.t.Fatalf("new request: %v", err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		h.t.Fatalf("GET %s: %v", path, err)
	}
	h.t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		h.t.Fatalf("GET %s: content-type %q", path, ct)
	}
	return &sseStream{t: h.t, resp: resp, br: bufio.NewReader(resp.Body)}
}

func (s *sseStream) close() { s.resp.Body.Close() }

// next reads the next event, skipping comments (heartbeats).  ok is false
// once the server ends the stream.
func (s *sseStream) next() (ev sseEvent, ok bool) {
	seen := false
	for {
		line, err := s.br.ReadString('\n')
		line = strings.TrimSuffix(strings.TrimSuffix(line, "\n"), "\r")
		switch {
		case line == "":
			if seen {
				return ev, true
			}
		case strings.HasPrefix(line, ":"): // comment / heartbeat
		case strings.HasPrefix(line, "id: "):
			ev.id, seen = line[len("id: "):], true
		case strings.HasPrefix(line, "event: "):
			ev.name, seen = line[len("event: "):], true
		case strings.HasPrefix(line, "data: "):
			ev.data, seen = line[len("data: "):], true
		}
		if err != nil {
			return ev, false
		}
	}
}

// until reads events until one named any of want arrives, returning it plus
// everything read before it.  Fails the test on stream end.
func (s *sseStream) until(want ...string) (sseEvent, []sseEvent) {
	s.t.Helper()
	var before []sseEvent
	for {
		ev, ok := s.next()
		if !ok {
			s.t.Fatalf("stream ended while waiting for %v (saw %+v)", want, before)
		}
		for _, w := range want {
			if ev.name == w {
				return ev, before
			}
		}
		before = append(before, ev)
	}
}

// steppedExec is a per-cell ExecuteFunc whose progress is driven from the
// test: every cell announces its sweep's key on started and waits at a
// gate; each send on step lets one cell finish (with its real result), and
// closing release lets all of them through.
type steppedExec struct {
	started chan string
	step    chan struct{}
	release chan struct{}
}

func newSteppedExec() *steppedExec {
	return &steppedExec{
		started: make(chan string, 64), // past any test's cell count: announcing never blocks
		step:    make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (x *steppedExec) fn(ctx context.Context, opts sweep.Options, c sweep.Cell) (sweep.Run, error) {
	x.started <- opts.Key()
	select {
	case <-x.step:
	case <-x.release:
	case <-ctx.Done():
		return sweep.Run{}, ctx.Err()
	}
	return sweep.RunCell(ctx, opts, c)
}

// steppedRequest is a tiny sweep of five cells (the baseline and four
// policies), enough steps for the streaming tests.  None of its cells
// follows another (sweep.CellKey.Leader), so each one passes Execute and
// takes one step.
func steppedRequest(seed int64) refrint.SweepRequest {
	req := tinyRequest(seed)
	req.Policies = []string{"R.valid", "R.dirty", "P.dirty", "P.all"}
	return req
}

// TestSSEJobStreamLifecycle is the acceptance path: a subscriber of a
// running job sees a state event, monotonically increasing progress events,
// and exactly one terminal event, after which the stream ends.
func TestSSEJobStreamLifecycle(t *testing.T) {
	exec := newSteppedExec()
	h := newHarness(t, sseConfig(exec.fn))

	view, _ := h.submit(steppedRequest(1))
	<-exec.started
	st := h.openSSE("/v1/sweeps/"+view.ID+"/events", "")

	first, ok := st.next()
	if !ok || first.name != "state" {
		t.Fatalf("first event = %+v (ok=%v), want state", first, ok)
	}
	if state, _ := first.progressPayload(t); state != StateRunning {
		t.Fatalf("initial state = %q, want running", state)
	}

	exec.step <- struct{}{}
	ev, _ := st.until("progress")
	if _, p := ev.progressPayload(t); p.Done != 1 || p.Total != 5 {
		t.Fatalf("first progress = %+v, want done 1 of 5", p)
	}
	exec.step <- struct{}{}
	exec.step <- struct{}{}
	waitProgress(t, st, 3) // the fourth cell is held, so exactly 3

	close(exec.release)
	term, before := st.until("done", "failed", "cancelled")
	if term.name != "done" {
		t.Fatalf("terminal event = %q, want done", term.name)
	}
	if state, p := term.progressPayload(t); state != StateDone || p.Percent != 100 {
		t.Fatalf("terminal payload = state %q percent %d, want done/100", state, p.Percent)
	}
	// Monotonicity of everything between the steps and the terminal event.
	last := 0
	for _, ev := range before {
		if ev.name != "progress" {
			continue
		}
		if _, p := ev.progressPayload(t); p.Done <= last {
			t.Fatalf("progress ran backwards: %d after %d", p.Done, last)
		} else {
			last = p.Done
		}
	}
	// Exactly one terminal event, then the server closes the stream.
	if tail, ok := st.next(); ok {
		t.Fatalf("event after terminal: %+v", tail)
	}
}

// TestSSESubscribeAfterTerminal verifies closure: a subscriber arriving (or
// reconnecting, with any Last-Event-ID) after the job finished still gets
// the state snapshot and the terminal event, then the stream ends.
func TestSSESubscribeAfterTerminal(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, sseConfig(exec.fn))

	view, _ := h.submit(tinyRequest(1))
	<-exec.started
	close(exec.release)
	h.waitState(view.ID, StateDone)

	for _, lastID := range []string{"", "999"} {
		st := h.openSSE("/v1/sweeps/"+view.ID+"/events", lastID)
		first, ok := st.next()
		if !ok || first.name != "state" {
			t.Fatalf("Last-Event-ID %q: first event = %+v (ok=%v), want state", lastID, first, ok)
		}
		term, ok := st.next()
		if !ok || term.name != "done" {
			t.Fatalf("Last-Event-ID %q: second event = %+v (ok=%v), want done", lastID, term, ok)
		}
		if state, p := term.progressPayload(t); state != StateDone || p.Percent != 100 {
			t.Fatalf("replayed terminal = state %q percent %d", state, p.Percent)
		}
		if tail, ok := st.next(); ok {
			t.Fatalf("event after replayed terminal: %+v", tail)
		}
	}
}

// TestSSECancelledJobFreezesProgress pins the cancelled-creep fix: a job
// cancelled off still-running shared cells stops advancing — its SSE
// stream ends with the cancelled event (no progress after), and its polled
// progress stays frozen while the surviving job keeps moving.
func TestSSECancelledJobFreezesProgress(t *testing.T) {
	exec := newSteppedExec()
	h := newHarness(t, sseConfig(exec.fn))

	req := steppedRequest(5)
	first, _ := h.submit(req)
	<-exec.started
	second, _ := h.submit(req) // joins the same cells

	st := h.openSSE("/v1/sweeps/"+second.ID+"/events", "")
	if ev, ok := st.next(); !ok || ev.name != "state" {
		t.Fatalf("first event = %+v (ok=%v), want state", ev, ok)
	}
	exec.step <- struct{}{}
	if ev, _ := st.until("progress"); ev.name != "progress" {
		t.Fatal("no progress before cancel")
	}

	h.do("DELETE", "/v1/sweeps/"+second.ID, nil, nil)
	term, _ := st.until("done", "failed", "cancelled")
	if term.name != "cancelled" {
		t.Fatalf("terminal event = %q, want cancelled", term.name)
	}
	if tail, ok := st.next(); ok {
		t.Fatalf("event after cancelled: %+v (stream must end, no progress creep)", tail)
	}

	// The shared cells keep running for the surviving job...
	exec.step <- struct{}{}
	exec.step <- struct{}{}
	deadline := time.Now().Add(10 * time.Second)
	for h.getJob(first.ID).Progress.Done != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("surviving job never observed done=3: %+v", h.getJob(first.ID).Progress)
		}
		time.Sleep(time.Millisecond)
	}
	// ...but the cancelled job's progress is frozen at its terminal moment.
	got := h.getJob(second.ID)
	if got.State != StateCancelled {
		t.Fatalf("cancelled job state = %q", got.State)
	}
	if got.Progress.Done != 1 {
		t.Fatalf("cancelled job progress crept to %d, want frozen at 1", got.Progress.Done)
	}

	close(exec.release)
	h.waitState(first.ID, StateDone)
	if got := h.getJob(second.ID).Progress; got.Done != 1 || got.Percent == 100 {
		t.Fatalf("cancelled job progress after completion = %+v, want frozen, <100%%", got)
	}
}

// TestSSEBatchStream covers the batch topic: state snapshot, progress, and
// the aggregated terminal event closing the stream.
func TestSSEBatchStream(t *testing.T) {
	exec := newSteppedExec()
	h := newHarness(t, sseConfig(exec.fn))

	var bv BatchView
	resp := h.do("POST", "/v1/batches", BatchRequest{
		Requests: []refrint.SweepRequest{steppedRequest(11)},
	}, &bv)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/batches: status %d", resp.StatusCode)
	}
	<-exec.started

	st := h.openSSE("/v1/batches/"+bv.ID+"/events", "")
	if ev, ok := st.next(); !ok || ev.name != "state" {
		t.Fatalf("first event = %+v (ok=%v), want state", ev, ok)
	}
	// The first delta may ride the queued->running "state" event (state
	// events carry progress, and the bus never duplicates it); once the
	// state settles, deltas arrive as plain "progress" events.
	exec.step <- struct{}{}
	for done := 0; done != 1; {
		ev, ok := st.next()
		if !ok {
			t.Fatal("stream ended before the first batch delta")
		}
		_, p := ev.progressPayload(t)
		done = p.Done
	}
	exec.step <- struct{}{}
	ev, _ := st.until("progress")
	if _, p := ev.progressPayload(t); p.Done != 2 {
		t.Fatalf("batch progress done = %d, want 2", p.Done)
	}
	close(exec.release)
	term, _ := st.until("done", "failed", "cancelled")
	if term.name != "done" {
		t.Fatalf("batch terminal = %q, want done", term.name)
	}
	if state, p := term.progressPayload(t); state != StateDone || p.Percent != 100 {
		t.Fatalf("batch terminal payload = state %q percent %d", state, p.Percent)
	}
	if tail, ok := st.next(); ok {
		t.Fatalf("event after batch terminal: %+v", tail)
	}
}

// TestSSEBatchEvictionPublishesTerminal verifies a subscriber is never left
// hanging on a stream whose batch vanished from history: the terminal event
// is published when the last member ends, so the stream still delivers it
// after the next submission evicts the batch.
func TestSSEBatchEvictionPublishesTerminal(t *testing.T) {
	exec := newBlockingExec()
	cfg := sseConfig(exec.fn)
	cfg.BatchHistory = 1
	h := newHarness(t, cfg)

	var first BatchView
	h.do("POST", "/v1/batches", BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(31)},
	}, &first)
	<-exec.started
	st := h.openSSE("/v1/batches/"+first.ID+"/events", "")
	if ev, ok := st.next(); !ok || ev.name != "state" {
		t.Fatalf("first event = %+v (ok=%v), want state", ev, ok)
	}

	close(exec.release)
	h.waitState(first.Jobs[0].ID, StateDone)

	// The next batch submission evicts the finished one (history bound 1);
	// the terminal event must still reach the stream.
	h.do("POST", "/v1/batches", BatchRequest{
		Requests: []refrint.SweepRequest{tinyRequest(32)},
	}, nil)
	term, _ := st.until("done", "failed", "cancelled")
	if term.name != "done" {
		t.Fatalf("terminal after eviction = %q, want done", term.name)
	}
	if tail, ok := st.next(); ok {
		t.Fatalf("event after terminal: %+v", tail)
	}
	if resp := h.do("GET", "/v1/batches/"+first.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted batch still pollable: status %d", resp.StatusCode)
	}
}

// TestSSEFirehose verifies /v1/events carries every job's events and stays
// open across terminals.
func TestSSEFirehose(t *testing.T) {
	exec := newBlockingExec()
	h := newHarness(t, sseConfig(exec.fn))

	st := h.openSSE("/v1/events", "")
	view, _ := h.submit(tinyRequest(21))
	<-exec.started
	close(exec.release)
	term, _ := st.until("done", "failed", "cancelled")
	if term.name != "done" {
		t.Fatalf("firehose terminal = %q, want done", term.name)
	}
	// The firehose outlives terminals: a second job's events still arrive.
	h.waitState(view.ID, StateDone)
	again, _ := h.submit(tinyRequest(21)) // cache hit: born done
	if ev, _ := st.until("done"); ev.name != "done" {
		t.Fatalf("firehose missed the cache-hit job %s", again.ID)
	}
	st.close()
}

// TestFirehoseIgnoresStaleLastEventID is the regression for a dashboard
// reconnecting to a restarted server with the last event ID it saw there:
// IDs restart with the process, so that ID must not hide the new server's
// events.
func TestFirehoseIgnoresStaleLastEventID(t *testing.T) {
	h := newHarness(t, sseConfig(nil))

	st := h.openSSE("/v1/events", "100000")
	stop := time.AfterFunc(30*time.Second, st.close) // fail rather than hang
	defer stop.Stop()
	view, _ := h.submit(tinyRequest(41))
	for {
		ev, _ := st.until("done", "failed", "cancelled")
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(ev.data), &v); err != nil {
			t.Fatalf("event data %q: %v", ev.data, err)
		}
		if v.ID != view.ID {
			continue
		}
		if ev.name != "done" {
			t.Fatalf("firehose terminal = %q, want done", ev.name)
		}
		return
	}
}

// TestProgressPublishedPerCell verifies progress is published at the
// transition, with no timer: each finished cell yields exactly one job
// progress event and one batch progress event, both carrying the number of
// cells finished so far.
func TestProgressPublishedPerCell(t *testing.T) {
	exec := newSteppedExec()
	h := newHarness(t, sseConfig(exec.fn))

	fh := h.openSSE("/v1/events", "")
	bv, _ := h.submitBatch(BatchRequest{Requests: []refrint.SweepRequest{steppedRequest(51)}})
	jobID := bv.Jobs[0].ID
	<-exec.started
	for step := 1; step <= 5; step++ {
		exec.step <- struct{}{}
		var jobSeen, batchSeen bool
		for !jobSeen || !batchSeen {
			ev, _ := fh.until("progress")
			var v struct {
				ID       string       `json:"id"`
				Progress ProgressView `json:"progress"`
			}
			if err := json.Unmarshal([]byte(ev.data), &v); err != nil {
				t.Fatalf("event data %q: %v", ev.data, err)
			}
			if v.Progress.Done != step {
				t.Fatalf("step %d: progress of %s = %+v, want done %d", step, v.ID, v.Progress, step)
			}
			switch {
			case v.ID == jobID && !jobSeen:
				jobSeen = true
			case v.ID == bv.ID && !batchSeen:
				batchSeen = true
			default:
				t.Fatalf("step %d: unexpected progress event %s", step, ev.data)
			}
		}
	}
	for range 2 { // the job's terminal event, then its batch's
		if ev, _ := fh.until("done", "failed", "cancelled"); ev.name != "done" {
			t.Fatalf("terminal = %q, want done", ev.name)
		}
	}
}

// TestSlowSubscriberCoalescing unit-tests the bus: a subscriber that never
// drains holds a bounded queue in which the latest progress wins and
// terminal events survive.
func TestSlowSubscriberCoalescing(t *testing.T) {
	b := newEventBus()
	sub, ok := b.subscribe("job:x")
	if !ok {
		t.Fatal("subscribe failed on open bus")
	}
	b.publish(eventState, "job:x", "", sched.Interactive, func() any { return map[string]int{"done": 0} })
	for i := 1; i <= 100; i++ {
		b.publish(eventProgress, "job:x", "", sched.Interactive, func() any { return map[string]int{"done": i} })
	}
	b.publish(string(StateDone), "job:x", "", sched.Interactive, func() any { return map[string]int{"done": 100} })

	sub.mu.Lock()
	depth := len(sub.queue)
	sub.mu.Unlock()
	if depth > eventBuffer {
		t.Fatalf("queue grew to %d, want <= %d", depth, eventBuffer)
	}
	events := sub.drain(nil)
	lastProgress := -1
	sawTerminal := false
	for _, ev := range events {
		switch ev.Name {
		case eventProgress:
			var p struct{ Done int }
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				t.Fatalf("progress data %q: %v", ev.Data, err)
			}
			lastProgress = p.Done
		case string(StateDone):
			sawTerminal = true
		}
	}
	if lastProgress != 100 {
		t.Fatalf("latest progress = %d, want 100 (latest wins)", lastProgress)
	}
	if !sawTerminal {
		t.Fatal("terminal event was dropped under pressure")
	}
	if _, _, dropped := b.stats(); dropped < 90 {
		t.Fatalf("dropped/coalesced = %d, want >= 90", dropped)
	}

	b.close()
	if _, ok := b.subscribe("job:y"); ok {
		t.Fatal("subscribe succeeded on closed bus")
	}
	b.publish(eventProgress, "job:x", "", sched.Interactive, nil) // must be a no-op, not a panic
	select {
	case <-sub.quit:
	default:
		t.Fatal("close did not tear the subscriber down")
	}
}

// TestBusDeliversInPublishOrder drives one firehose and two per-topic
// subscribers past eventBuffer with interleaved topics and never drains
// them.  Coalescing and overflow skip events but never deliver one ahead of
// an older one, so on every topic no progress or terminal event carries
// less progress than an event delivered before it (a state event may:
// coalescing moves newer progress ahead of it), and every terminal event
// survives.
func TestBusDeliversInPublishOrder(t *testing.T) {
	b := newEventBus()
	topics := []string{"job:a", "job:b", "job:c"}
	subs := map[string]*subscriber{}
	for _, topic := range []string{"", "job:a", "job:b"} {
		sub, ok := b.subscribe(topic)
		if !ok {
			t.Fatal("subscribe failed on open bus")
		}
		subs[topic] = sub
	}
	const steps = 3 * eventBuffer // a state event every third step overflows even a per-topic queue
	for i := 1; i <= steps; i++ {
		name := eventProgress
		if i%3 == 0 {
			name = eventState
		}
		for _, topic := range topics {
			b.publish(name, topic, "", sched.Batch, func() any { return map[string]int{"done": i} })
		}
	}
	for _, topic := range topics {
		b.publish(string(StateDone), topic, "", sched.Batch, func() any { return map[string]int{"done": steps} })
	}

	for topic, sub := range subs {
		events := sub.drain(nil)
		if len(events) > eventBuffer {
			t.Errorf("subscriber %q: %d events queued, want <= %d", topic, len(events), eventBuffer)
		}
		high := map[string]int{} // topic -> most progress delivered so far
		terminal := map[string]bool{}
		for _, ev := range events {
			var p struct{ Done int }
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				t.Fatalf("event data %q: %v", ev.Data, err)
			}
			if ev.Name != eventState && p.Done < high[ev.Topic] {
				t.Errorf("subscriber %q: %s event of %s carries %d after %d", topic, ev.Name, ev.Topic, p.Done, high[ev.Topic])
			}
			high[ev.Topic] = max(high[ev.Topic], p.Done)
			terminal[ev.Topic] = terminal[ev.Topic] || ev.terminal()
		}
		for _, want := range topics {
			if (topic == "" || topic == want) && !terminal[want] {
				t.Errorf("subscriber %q: terminal event of %s dropped", topic, want)
			}
		}
	}
}

// TestSSESnapshotOrdersStream opens job streams while the jobs' cells
// complete: each stream is opened as one more cell is let through.  A
// stream subscribes and takes its snapshot in one hold of the server mutex,
// so its first event is the snapshot, every later progress event reports
// more cells than the snapshot and the events before it, and no later
// event reports fewer.
func TestSSESnapshotOrdersStream(t *testing.T) {
	exec := newSteppedExec()
	h := newHarness(t, sseConfig(exec.fn))
	quit := make(chan struct{}) // frees the stepping goroutines of a failed test
	t.Cleanup(func() { close(quit) })
	for round := range 10 {
		view, _ := h.submit(steppedRequest(int64(700 + round)))
		var streams []*sseStream
		for range 5 {
			go func() {
				select {
				case exec.step <- struct{}{}:
				case <-quit:
				}
			}()
			streams = append(streams, h.openSSE("/v1/sweeps/"+view.ID+"/events", ""))
		}
		for i, st := range streams {
			first, ok := st.next()
			if !ok || first.name != "state" {
				t.Fatalf("round %d stream %d: first event = %+v (ok=%v), want state", round, i, first, ok)
			}
			_, p := first.progressPayload(t)
			last := p.Done
			for {
				ev, ok := st.next()
				if !ok {
					break
				}
				_, p := ev.progressPayload(t)
				if p.Done < last || (ev.name == "progress" && p.Done == last) {
					t.Fatalf("round %d stream %d: %s event reports %d cells after %d", round, i, ev.name, p.Done, last)
				}
				last = p.Done
			}
			if last != 5 {
				t.Fatalf("round %d stream %d: ended at %d cells, want 5", round, i, last)
			}
		}
	}
}

// TestSSEClientDisconnectFreesSubscriber verifies a dropped client releases
// its bus subscription.
func TestSSEClientDisconnectFreesSubscriber(t *testing.T) {
	h := newHarness(t, sseConfig(newBlockingExec().fn))

	st := h.openSSE("/v1/events", "")
	waitSubs := func(want int) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if n, _, _ := h.srv.bus.stats(); n == want {
				return
			}
			if time.Now().After(deadline) {
				n, _, _ := h.srv.bus.stats()
				t.Fatalf("subscribers = %d, want %d", n, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitSubs(1)
	st.close()
	waitSubs(0)
}

// TestServerCloseTerminatesStreams verifies Close ends every open stream:
// job streams, batch streams and the firehose all reach EOF.
func TestServerCloseTerminatesStreams(t *testing.T) {
	exec := newBlockingExec() // runs block until ctx cancellation
	h := newHarness(t, sseConfig(exec.fn))

	view, _ := h.submit(tinyRequest(1))
	<-exec.started
	jobSt := h.openSSE("/v1/sweeps/"+view.ID+"/events", "")
	fhSt := h.openSSE("/v1/events", "")
	if ev, ok := jobSt.next(); !ok || ev.name != "state" {
		t.Fatalf("job stream first event = %+v (ok=%v)", ev, ok)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		h.srv.Close()
	}()
	for _, st := range []*sseStream{jobSt, fhSt} {
		for {
			if _, ok := st.next(); !ok {
				break
			}
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	// New subscriptions after Close are refused.
	resp := h.do("GET", "/v1/events", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("firehose after Close: status %d, want 503", resp.StatusCode)
	}
}

// TestProgressViewDoneZeroTotal pins the rendering contract from both
// sides: done always means 100 — even with Total == 0, where the old code
// rendered percent 0 forever — and nothing but done ever reads 100.
func TestProgressViewDoneZeroTotal(t *testing.T) {
	cases := []struct {
		done, total int
		st          State
		want        int
	}{
		{0, 0, StateDone, 100},     // empty / all-cache-hit sweep: the fix
		{0, 0, StateRunning, 0},    // nothing known yet
		{0, 0, StateCancelled, 0},  // cancelled before anything ran
		{2, 2, StateRunning, 99},   // clamp: 100 must mean terminal
		{2, 2, StateCancelled, 99}, // cancelled at full completion
		{2, 2, StateDone, 100},     // the normal done case
		{1, 2, StateDone, 100},     // done overrides a stale ratio
		{1, 4, StateRunning, 25},   // plain ratio
	}
	for _, c := range cases {
		if got := progressView(c.done, c.total, c.st).Percent; got != c.want {
			t.Errorf("progressView(%d, %d, %s).Percent = %d, want %d",
				c.done, c.total, c.st, got, c.want)
		}
	}
}
