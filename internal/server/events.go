package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"refrint/internal/sched"
)

// This file is the streaming subsystem: a per-server event bus plus the SSE
// endpoints that expose it.
//
//	GET /v1/sweeps/{id}/events   one job's stream
//	GET /v1/batches/{id}/events  one batch's aggregated stream
//	GET /v1/events               firehose of every event (dashboards)
//
// Named events: "state" (lifecycle snapshot), "progress" (simulation
// counts), and exactly one terminal event named after the final state
// ("done", "failed" or "cancelled"), whose data is the full final view.
// Per-job and per-batch streams close after their terminal event; the
// firehose runs until the client disconnects or the server shuts down.
//
// Every event is published under the server mutex at the transition it
// reports: a job's state events when it is admitted, starts and ends, its
// progress event when one of its cells completes, and its batch's events at
// the same points.  Nothing is published on a timer, and nothing is logged
// for replay: every (re)connection starts with a "state" snapshot of the
// current view, which carries whatever an earlier connection missed, so a
// subscriber arriving late or reconnecting after the job finished still gets
// closure — a terminal job replays its terminal event immediately and the
// stream ends.  Last-Event-ID is ignored.
//
// Publishers never block on subscribers: each subscriber owns a bounded
// queue in which progress events coalesce (latest wins), so a slow consumer
// costs O(buffer) memory and loses only intermediate progress.  A per-topic
// stream never sheds its state or terminal events (it holds at most a
// handful); an extremely backlogged firehose evicts oldest-first — progress
// before state, terminals only as a last resort.  Event IDs are
// monotonic within one server process.

// Event names beyond the terminal ones (which reuse the State strings).
const (
	eventState    = "state"
	eventProgress = "progress"
)

// Event is one server-sent event on a topic ("job:<id>" or "batch:<id>").
type Event struct {
	ID    int64
	Name  string // "state", "progress", "done", "failed", "cancelled"
	Topic string
	Data  []byte // marshalled JSON payload
	// done is the progress ordinal (simulations completed) carried by
	// progress and snapshot events; writers use it to keep the delivered
	// progress sequence monotonic even across queue coalescing.
	done int64
	// client and class identify the tenant and scheduling class behind the
	// event, so filtered firehose subscribers match without unmarshalling.
	client string
	class  sched.Class
}

// terminal reports whether the event ends its per-topic stream.
func (e Event) terminal() bool {
	return e.Name != eventState && e.Name != eventProgress
}

// progressEvent is the payload of "progress" events: small enough to emit
// once per completed cell.  "state" and terminal events carry the full
// JobView or BatchView instead.
type progressEvent struct {
	ID       string       `json:"id"`
	Kind     string       `json:"kind"` // "sweep" or "batch"
	State    State        `json:"state"`
	Progress ProgressView `json:"progress"`
}

func jobTopic(id string) string   { return "job:" + id }
func batchTopic(id string) string { return "batch:" + id }

// noClassFilter marks a firehose subscriber without a class filter.
const noClassFilter = sched.Class(-1)

// subscriber is one attached SSE client.
type subscriber struct {
	topic  string        // "job:<id>", "batch:<id>", or "" for the firehose
	notify chan struct{} // cap-1 doorbell rung after every push
	quit   chan struct{} // closed on unsubscribe or bus close

	// Firehose filters (?client= and ?class=): hasClientFilter
	// distinguishes "no filter" from an explicit ?client= selecting the
	// anonymous tenant; filterClass is noClassFilter when unset.  Per-topic
	// subscribers never filter.
	filterClient    string
	hasClientFilter bool
	filterClass     sched.Class

	mu      sync.Mutex
	queue   []Event
	dropped int64 // events dropped or coalesced away
}

// matches reports whether the subscriber wants the event.
func (sub *subscriber) matches(ev Event) bool {
	if sub.topic != "" {
		return sub.topic == ev.Topic
	}
	if sub.hasClientFilter && ev.client != sub.filterClient {
		return false
	}
	if sub.filterClass != noClassFilter && ev.class != sub.filterClass {
		return false
	}
	return true
}

// push enqueues one event without ever blocking: progress events coalesce
// into a pending progress event of the same topic, and when the queue is
// full the oldest expendable event is evicted — progress first, then state,
// terminal events only as a last resort (a per-topic stream holds at most
// one, but a stalled firehose reader can accumulate them).
func (sub *subscriber) push(ev Event, buffer int) {
	sub.mu.Lock()
	coalesced := false
	if ev.Name == eventProgress {
		for i := len(sub.queue) - 1; i >= 0; i-- {
			if sub.queue[i].Topic == ev.Topic && sub.queue[i].Name == eventProgress {
				sub.queue[i] = ev
				sub.dropped++
				coalesced = true
				break
			}
		}
	}
	if !coalesced {
		sub.queue = append(sub.queue, ev)
		if len(sub.queue) > buffer {
			drop := -1
			for i, q := range sub.queue {
				if q.Name == eventProgress {
					drop = i
					break
				}
				if drop < 0 && q.Name == eventState {
					drop = i
				}
			}
			if drop < 0 {
				drop = 0
			}
			sub.queue = append(sub.queue[:drop], sub.queue[drop+1:]...)
			sub.dropped++
		}
	}
	sub.mu.Unlock()
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

// drain moves every pending event into buf (reused across calls).
func (sub *subscriber) drain(buf []Event) []Event {
	sub.mu.Lock()
	buf = append(buf[:0], sub.queue...)
	sub.queue = sub.queue[:0]
	sub.mu.Unlock()
	return buf
}

// eventBus fans state and progress events out to SSE subscribers.  It is a
// leaf in the lock order: the server publishes while holding s.mu, so the
// bus must never call back into the server.
type eventBus struct {
	buffer int // per-subscriber queue bound

	mu        sync.Mutex
	subs      map[*subscriber]struct{}
	seq       int64
	closed    bool
	published int64
	dropped   int64 // accumulated from departed subscribers
}

func newEventBus(buffer int) *eventBus {
	return &eventBus{
		buffer: buffer,
		subs:   make(map[*subscriber]struct{}),
	}
}

// subscribe attaches a new subscriber to one topic ("" = firehose).  It
// reports false when the bus is already closed.
func (b *eventBus) subscribe(topic string) (*subscriber, bool) {
	return b.subscribeFiltered(topic, "", false, noClassFilter)
}

// subscribeFiltered is subscribe with firehose filters; they are fixed at
// subscription time so no event can slip past a filter being installed.
func (b *eventBus) subscribeFiltered(topic, client string, hasClient bool, class sched.Class) (*subscriber, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, false
	}
	sub := &subscriber{
		topic:           topic,
		notify:          make(chan struct{}, 1),
		quit:            make(chan struct{}),
		filterClient:    client,
		hasClientFilter: hasClient,
		filterClass:     class,
	}
	b.subs[sub] = struct{}{}
	return sub, true
}

// unsubscribe detaches a subscriber and releases its queue.  Idempotent,
// and safe against a concurrent close.
func (b *eventBus) unsubscribe(sub *subscriber) {
	b.mu.Lock()
	if _, ok := b.subs[sub]; ok {
		delete(b.subs, sub)
		sub.mu.Lock()
		b.dropped += sub.dropped
		sub.mu.Unlock()
		close(sub.quit)
	}
	b.mu.Unlock()
}

// publish fans one event out to every matching subscriber.  The payload is
// marshalled at most once, and not at all when nobody is listening.
func (b *eventBus) publish(name, topic, client string, class sched.Class, done int64, payload any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	probe := Event{Name: name, Topic: topic, client: client, class: class}
	matched := false
	for sub := range b.subs {
		if sub.matches(probe) {
			matched = true
			break
		}
	}
	if !matched {
		return
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return // payloads are the server's own view structs; cannot fail
	}
	b.seq++
	b.published++
	ev := probe
	ev.ID, ev.Data, ev.done = b.seq, data, done
	for sub := range b.subs {
		if sub.matches(ev) {
			sub.push(ev, b.buffer)
		}
	}
}

// nextID allocates an event ID for a handler-synthesized snapshot event, so
// snapshots order consistently with bus-published events.
func (b *eventBus) nextID() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	return b.seq
}

// hasTopic reports whether any subscriber would receive events on topic —
// one of its own streams, or the firehose.  Publishers use it to skip
// building a view nobody would receive.
func (b *eventBus) hasTopic(topic string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	for sub := range b.subs {
		if sub.topic == "" || sub.topic == topic {
			return true
		}
	}
	return false
}

// stats returns subscriber count and cumulative published/dropped counters.
func (b *eventBus) stats() (subs int, published, dropped int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	dropped = b.dropped
	for sub := range b.subs {
		sub.mu.Lock()
		dropped += sub.dropped
		sub.mu.Unlock()
	}
	return len(b.subs), b.published, dropped
}

// close tears every subscriber down; their streams end after draining what
// is already queued.  Further publishes and subscribes are no-ops.
func (b *eventBus) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs {
		delete(b.subs, sub)
		sub.mu.Lock()
		b.dropped += sub.dropped
		sub.mu.Unlock()
		close(sub.quit)
	}
}

// --- SSE wire format ---

// sseWriter writes one text/event-stream response, keeping each topic's
// delivered progress monotonic.
type sseWriter struct {
	w    http.ResponseWriter
	rc   *http.ResponseController
	seen map[string]int64 // topic -> highest progress ordinal written
}

func startSSE(w http.ResponseWriter) *sseWriter {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	sw := &sseWriter{w: w, rc: http.NewResponseController(w), seen: make(map[string]int64)}
	// Streams outlive any server write deadline; best-effort, some
	// ResponseWriters (httptest recorders) do not support deadlines.
	_ = sw.rc.SetWriteDeadline(time.Time{})
	return sw
}

// event writes one event into the response buffer; the caller flushes it
// (returning from the handler flushes too).  Progress that would run
// backwards — a coalesced queue can deliver around a snapshot — is silently
// skipped.
func (sw *sseWriter) event(ev Event) error {
	switch {
	case ev.Name == eventProgress:
		if last, ok := sw.seen[ev.Topic]; ok && ev.done <= last {
			return nil
		}
		sw.seen[ev.Topic] = ev.done
	case ev.terminal():
		// The topic is over — no later progress can arrive for it — so its
		// ordinal is dropped: a long-lived firehose must not accumulate one
		// map entry per job ever streamed.
		delete(sw.seen, ev.Topic)
	default:
		if cur, ok := sw.seen[ev.Topic]; !ok || ev.done > cur {
			// State events carry progress too; later queued progress
			// events must not run backwards past them.
			sw.seen[ev.Topic] = ev.done
		}
	}
	_, err := fmt.Fprintf(sw.w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Name, ev.Data)
	return err
}

// comment writes an SSE comment line (the standard keepalive) and flushes.
func (sw *sseWriter) comment(msg string) error {
	if _, err := fmt.Fprintf(sw.w, ": %s\n\n", msg); err != nil {
		return err
	}
	return sw.rc.Flush()
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte("{}")
	}
	return data
}

// --- HTTP handlers ---

// streamTopic serves one per-topic SSE stream: subscribe first (so no
// transition can fall between subscription and snapshot; the writer's
// monotonicity filter absorbs the overlap), send the connect-time "state"
// snapshot, replay the terminal event immediately for a finished topic —
// late and reconnecting subscribers still get closure — and otherwise pump
// live events until the stream ends.  snapshot runs under the server mutex
// and reports ok=false when the entity vanished (history eviction) between
// the caller's existence check and the subscription.
func (s *Server) streamTopic(w http.ResponseWriter, r *http.Request, topic, kind, id string, snapshot func() (view any, st State, done int, ok bool)) {
	sub, ok := s.bus.subscribe(topic)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.bus.unsubscribe(sub)

	view, st, done, ok := snapshot()
	if !ok {
		writeError(w, http.StatusNotFound, "no %s %q", kind, id)
		return
	}

	sw := startSSE(w)
	state := Event{
		ID: s.bus.nextID(), Name: eventState, Topic: topic,
		Data: mustJSON(view), done: int64(done),
	}
	if sw.event(state) != nil {
		return
	}
	if st.Terminal() {
		_ = sw.event(Event{ID: s.bus.nextID(), Name: string(st), Topic: topic, Data: state.Data})
		return
	}
	if sw.rc.Flush() != nil {
		return
	}
	s.streamLoop(r, sub, sw)
}

// handleJobEvents implements GET /v1/sweeps/{id}/events.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.streamTopic(w, r, jobTopic(id), "job", id, func() (any, State, int, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		job, ok := s.jobs[id]
		if !ok {
			return nil, "", 0, false
		}
		v := job.snapshot()
		return v, v.State, v.Progress.Done, true
	})
}

// handleBatchEvents implements GET /v1/batches/{id}/events.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.streamTopic(w, r, batchTopic(id), "batch", id, func() (any, State, int, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		b, ok := s.batches[id]
		if !ok {
			return nil, "", 0, false
		}
		v := b.snapshotLocked()
		return v, v.State, v.Progress.Done, true
	})
}

// handleFirehose implements GET /v1/events: every event of every job and
// batch, for dashboards.  The stream runs until the client disconnects or
// the server closes; terminal events do not end it.  ?client= narrows it to
// one tenant's events (an empty value selects the anonymous tenant) and
// ?class= to one scheduling class; both may be combined, so a multi-tenant
// dashboard does not have to drink the whole firehose to watch one tenant.
func (s *Server) handleFirehose(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	client, hasClient := q.Get("client"), q.Has("client")
	if err := validateClient(client); err != nil {
		writeError(w, http.StatusBadRequest, "client: %v", err)
		return
	}
	class := noClassFilter
	if v := q.Get("class"); v != "" {
		c, err := sched.ParseClass(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "class: %v", err)
			return
		}
		class = c
	}
	sub, ok := s.bus.subscribeFiltered("", client, hasClient, class)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.bus.unsubscribe(sub)
	sw := startSSE(w)
	if sw.comment("refrint event stream") != nil {
		return
	}
	s.streamLoop(r, sub, sw)
}

// streamLoop pumps a subscriber's queue into the response until the client
// disconnects, the bus closes, or (on per-topic streams) a terminal event
// is delivered.  Each wake-up writes every queued event and flushes once:
// a cell completion publishes to several topics at once.  Heartbeat
// comments keep idle connections alive through proxies.
func (s *Server) streamLoop(r *http.Request, sub *subscriber, sw *sseWriter) {
	hb := time.NewTicker(s.cfg.EventHeartbeat)
	defer hb.Stop()
	var buf []Event
	deliver := func() bool { // reports whether the stream should end
		buf = sub.drain(buf)
		for _, ev := range buf {
			if sw.event(ev) != nil {
				return true
			}
			if ev.terminal() && sub.topic != "" {
				return true
			}
		}
		return sw.rc.Flush() != nil
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.quit:
			// Shutdown: deliver what was already queued, then end.
			deliver()
			return
		case <-hb.C:
			if sw.comment("heartbeat") != nil {
				return
			}
		case <-sub.notify:
			if deliver() {
				return
			}
		}
	}
}
