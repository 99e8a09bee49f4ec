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
// Delivery order is publish order.  A per-topic stream subscribes and takes
// its snapshot in one hold of the server mutex, so every event it receives
// was published after the snapshot; and a subscriber's queue only reorders
// by coalescing progress (a newer value replaces an older one in place) and
// only loses events to overflow, so the progress a stream delivers never
// runs backwards.
//
// Publishers never block on subscribers: each subscriber owns a queue of at
// most eventBuffer events in which progress events coalesce (latest wins),
// so a slow consumer costs bounded memory and loses only intermediate
// progress.  A per-topic stream never sheds its state or terminal events (it
// holds at most a handful); an extremely backlogged firehose evicts
// oldest-first — progress before state, terminals only as a last resort.
// Event IDs are monotonic within one server process.

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

// eventBuffer bounds each SSE subscriber's pending-event queue.
const eventBuffer = 64

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
func (sub *subscriber) push(ev Event) {
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
		if len(sub.queue) > eventBuffer {
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
	mu        sync.Mutex
	subs      map[*subscriber]struct{}
	seq       int64
	closed    bool
	published int64
	dropped   int64 // accumulated from departed subscribers
}

func newEventBus() *eventBus {
	return &eventBus{subs: make(map[*subscriber]struct{})}
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

// publish fans one event out to every matching subscriber.  payload builds
// the event's data: it is called at most once, and only when a subscriber
// matches, so nobody listening costs no view.
func (b *eventBus) publish(name, topic, client string, class sched.Class, payload func() any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ev := Event{Name: name, Topic: topic, client: client, class: class}
	for sub := range b.subs { // empty once the bus is closed
		if !sub.matches(ev) {
			continue
		}
		if ev.Data == nil {
			data, err := json.Marshal(payload())
			if err != nil {
				return // payloads are the server's own view structs; cannot fail
			}
			b.seq++
			b.published++
			ev.ID, ev.Data = b.seq, data
		}
		sub.push(ev)
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

// sseWriter writes one text/event-stream response.
type sseWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func startSSE(w http.ResponseWriter) *sseWriter {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	sw := &sseWriter{w: w, rc: http.NewResponseController(w)}
	// Streams outlive any server write deadline; best-effort, some
	// ResponseWriters (httptest recorders) do not support deadlines.
	_ = sw.rc.SetWriteDeadline(time.Time{})
	return sw
}

// event writes one event into the response buffer; the caller flushes it
// (returning from the handler flushes too).
func (sw *sseWriter) event(ev Event) error {
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

// streamTopic serves one per-topic SSE stream of kind "job" or "batch"
// (topics are "<kind>:<id>").  It subscribes and renders the connect-time
// "state" snapshot in one hold of the server mutex, so the stream carries
// exactly the events published after its snapshot; then it replays the
// terminal event immediately for a finished topic — late and reconnecting
// subscribers still get closure — and otherwise pumps live events until the
// stream ends.
func (s *Server) streamTopic(w http.ResponseWriter, r *http.Request, kind string) {
	id := r.PathValue("id")
	topic := kind + ":" + id
	s.mu.Lock()
	sub, open := s.bus.subscribe(topic)
	view, st, found := s.topicViewLocked(kind, id)
	snapID := s.bus.nextID()
	s.mu.Unlock()
	if !open {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.bus.unsubscribe(sub)
	if !found {
		writeError(w, http.StatusNotFound, "no %s %q", kind, id)
		return
	}

	sw := startSSE(w)
	data := mustJSON(view)
	if sw.event(Event{ID: snapID, Name: eventState, Topic: topic, Data: data}) != nil {
		return
	}
	if st.Terminal() {
		_ = sw.event(Event{ID: s.bus.nextID(), Name: string(st), Topic: topic, Data: data})
		return
	}
	if sw.rc.Flush() != nil {
		return
	}
	s.streamLoop(r, sub, sw)
}

// topicViewLocked renders the job or batch (kind "job" or "batch") a
// per-topic stream follows and reports its state, or found=false when there
// is none.  Caller holds the server mutex.
func (s *Server) topicViewLocked(kind, id string) (view any, st State, found bool) {
	if j, ok := s.jobs[id]; ok && kind == "job" {
		v := j.snapshot()
		return v, v.State, true
	}
	if b, ok := s.batches[id]; ok && kind == "batch" {
		v := b.snapshotLocked()
		return v, v.State, true
	}
	return nil, "", false
}

// handleJobEvents implements GET /v1/sweeps/{id}/events.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.streamTopic(w, r, "job")
}

// handleBatchEvents implements GET /v1/batches/{id}/events.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	s.streamTopic(w, r, "batch")
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
