package broker

import (
	"context"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gobad/internal/obs"
	"gobad/internal/obs/span"
	"gobad/internal/wire"
	"gobad/internal/wsock"
)

// PushNotification is the JSON message pushed to subscribers over their
// WebSocket: "new results are available up to LatestNS — come and get
// them". The WebSocket wire form carries the (shared) backend subscription
// in "bs" and omits "fs", so one encoded payload serves every subscriber
// attached to that backend subscription; the client library maps "bs" back
// to its own frontend subscription and fills FrontendSub before handing the
// notification to the application. Decoded by UnmarshalJSON, its strings
// that needed no unquoting share one copy of the frame: strings.Clone what
// you keep long after the rest is dropped.
type PushNotification struct {
	Type string `json:"type"`
	// FrontendSub identifies the receiving subscriber's frontend
	// subscription. Populated on the push-func (experiment) path and by
	// the client library; empty on the shared WebSocket wire form.
	FrontendSub string `json:"fs,omitempty"`
	// BackendSub identifies the deduplicated backend subscription the
	// results belong to.
	BackendSub string `json:"bs,omitempty"`
	LatestNS   int64  `json:"latest_ns"`
	// Traceparent carries the delivery's W3C trace context through the
	// push frame, so the subscriber's follow-up retrieval and ack join the
	// same end-to-end trace. Empty when the notification arrived untraced.
	Traceparent string `json:"tp,omitempty"`
}

// DefaultPushQueue is the default per-session outbound queue length
// (distinct frontend subscriptions with a pending marker).
const DefaultPushQueue = 128

// DefaultPushWriteTimeout bounds one pooled writer's socket write. With a
// shared writer pool a stalled subscriber would otherwise pin a writer
// forever; past the deadline the write fails and the session is dropped
// (the subscriber reconnects and catches up via GetResults).
const DefaultPushWriteTimeout = 10 * time.Second

// defaultPushWriters sizes the shared writer pool: enough to keep sockets
// busy on every core with headroom for a writer parked on a slow peer,
// bounded so a million sessions never means a million goroutines.
func defaultPushWriters() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	if n > 32 {
		n = 32
	}
	return n
}

// pushEvent is one "new results" marker, encoded once per backend
// subscription event and shared by every session it fans out to. It is
// immutable once broadcast and lives as long as a queue slot or an
// in-flight write points at it.
type pushEvent struct {
	latest int64
	pm     wsock.PreparedMessage
	span   obs.SpanContext
	// at is the enqueue timestamp, stamped once per broadcast and only for
	// traced events; the writer derives the queue-wait stage from it.
	at time.Time
}

// appendPushJSON appends the shared wire form of a push notification,
// {"type":"results","bs":...,"latest_ns":...[,"tp":...]}, "tp" being tp's
// traceparent when tp is valid, to dst: the bytes json.Marshal writes for
// that PushNotification, without its allocations.
func appendPushJSON(dst []byte, backendSub string, latest int64, tp obs.SpanContext) []byte {
	dst = append(dst, `{"type":"results","bs":`...)
	dst = wire.AppendJSONString(dst, backendSub)
	dst = append(dst, `,"latest_ns":`...)
	dst = strconv.AppendInt(dst, latest, 10)
	if tp.Valid() {
		dst = append(dst, `,"tp":"`...)
		dst = append(tp.AppendTraceparent(dst), '"')
	}
	return append(dst, '}')
}

// pushStats tallies the asynchronous delivery pipeline's outcomes.
// Delivered lives in the broker's CacheStats (the paper's metric); these
// cover the pipeline mechanics.
type pushStats struct {
	// enqueued counts markers accepted into a session queue.
	enqueued atomic.Uint64
	// coalesced counts markers that replaced a queued marker for the same
	// frontend subscription (latest-wins: nothing is lost).
	coalesced atomic.Uint64
	// dropped counts markers evicted because a session queue overflowed
	// with distinct frontend subscriptions. A dropped marker is re-issued
	// by the next event on its subscription, and GetResults at any time
	// catches the subscriber up regardless.
	dropped atomic.Uint64
	// failures counts encode errors and failed socket writes.
	failures atomic.Uint64
}

// pendingMarker is one queued (frontend sub, event) pair in a session's
// ring buffer.
type pendingMarker struct {
	fs string
	ev *pushEvent
}

// session is one subscriber's live WebSocket connection plus its bounded
// outbound marker queue. There is no per-session goroutine: when the queue
// transitions empty -> non-empty the session is scheduled onto the hub's
// shared run queue, and one of the fixed pool of writers drains it.
// Enqueueing never blocks and never does I/O, so a slow reader cannot
// stall the notification arrival path; because markers are idempotent and
// latest-wins, a new marker for an already-queued frontend subscription
// replaces the queued one instead of growing the queue.
//
// A session is an ordinary heap object, reachable from the hub map, the
// run queue and a writer's stack and from nothing else; hub, subscriber
// and conn never change after newSession. Lock order is hub.mu before
// session.mu before hub.readyMu; none is ever taken in the other
// direction.
type session struct {
	hub        *sessionHub
	subscriber string
	conn       *wsock.Conn

	// interests mirrors the hub's interest index entries that point at
	// this session (backend sub -> frontend sub). Guarded by hub.mu, so
	// detach can unlink the session from every index entry it appears in
	// without scanning the index.
	interests map[string]string

	mu   sync.Mutex
	ring []pendingMarker // circular buffer; grown lazily up to hub.queueCap
	head int
	n    int
	// inflight counts markers popped by a writer but not yet written to
	// the socket; depth() includes them so a drain never closes the
	// connection (truncating the frame) under the writer's last write.
	inflight  int
	closed    bool
	scheduled bool

	// nextReady links the hub's run queue (guarded by hub.readyMu).
	nextReady *session
}

// newSession returns a session ready for attach.
func newSession(h *sessionHub, subscriber string, conn *wsock.Conn) *session {
	return &session{
		hub:        h,
		subscriber: subscriber,
		conn:       conn,
		interests:  make(map[string]string, 4),
	}
}

// enqueue adds (or coalesces) a marker for fs; it reports false when the
// session is already closed.
func (s *session) enqueue(fs string, ev *pushEvent) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	// Latest-wins coalescing: scan the ring for a queued marker of the
	// same frontend subscription. Queues are short (steady state 0-1),
	// so the scan beats a map's allocation churn.
	for i := 0; i < s.n; i++ {
		slot := &s.ring[(s.head+i)%len(s.ring)]
		if slot.fs != fs {
			continue
		}
		// The marker is cumulative, so replacing the queued one loses
		// nothing — the subscriber still sees the final marker. A stale
		// marker (out-of-order fan-out) is discarded, not merged, and
		// does not count as a coalesce.
		replaced := ev.latest >= slot.ev.latest
		if replaced {
			slot.ev = ev
		}
		s.mu.Unlock()
		if replaced {
			s.hub.stats.coalesced.Add(1)
		}
		return true
	}
	dropped := false
	if s.n >= s.hub.queueCap {
		// Overflow of distinct subscriptions: evict the oldest pending
		// marker to admit the newest. The evicted subscription is
		// re-notified by its next event and GetResults catches up anyway.
		s.ring[s.head] = pendingMarker{}
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		dropped = true
	}
	if s.n == len(s.ring) {
		s.grow()
	}
	s.ring[(s.head+s.n)%len(s.ring)] = pendingMarker{fs: fs, ev: ev}
	s.n++
	schedule := !s.scheduled
	if schedule {
		s.scheduled = true
	}
	s.mu.Unlock()
	if schedule {
		s.hub.pushReady(s)
	}
	if dropped {
		s.hub.stats.dropped.Add(1)
	}
	s.hub.stats.enqueued.Add(1)
	return true
}

// grow doubles the ring (4 -> 8 -> ... -> queueCap), preserving order.
// Called with s.mu held and the ring full.
func (s *session) grow() {
	newCap := 2 * len(s.ring)
	if newCap == 0 {
		newCap = 4
	}
	if newCap > s.hub.queueCap {
		newCap = s.hub.queueCap
	}
	next := make([]pendingMarker, newCap)
	for i := 0; i < s.n; i++ {
		next[i] = s.ring[(s.head+i)%len(s.ring)]
	}
	s.ring = next
	s.head = 0
}

// pop removes the oldest pending marker, or returns ok=false when the
// queue is empty or the session closed (a closed session's ring is
// already cleared).
func (s *session) pop() (fs string, ev *pushEvent, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return "", nil, false
	}
	slot := s.ring[s.head]
	s.ring[s.head] = pendingMarker{}
	s.head = (s.head + 1) % len(s.ring)
	s.n--
	s.inflight++
	return slot.fs, slot.ev, true
}

// wrote marks the writer's popped marker as flushed to the socket.
func (s *session) wrote() {
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}

// depth returns the number of markers not yet on the wire: queued plus
// popped-but-unwritten. The drain path waits on this so a migrate close
// never lands under the writer's last write.
func (s *session) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n + s.inflight
}

// queuedLen returns only the markers still awaiting writer pickup —
// the hub's QueueDepth stat, which excludes the in-flight write.
func (s *session) queuedLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// close marks the session dead and closes the socket (which also unblocks
// a writer stuck mid-write on a stalled peer).
func (s *session) close() { s.closeWith(wsock.CloseNormal, "") }

// closeWith is close with an explicit close-frame status; the drain path
// sends (CloseServiceRestart, successor URL) so the client fails over to
// the named broker without consulting the BCS.
func (s *session) closeWith(code uint16, reason string) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for i := 0; i < s.n; i++ {
		s.ring[(s.head+i)%len(s.ring)] = pendingMarker{}
	}
	s.head, s.n = 0, 0
	conn := s.conn
	s.mu.Unlock()
	_ = conn.CloseWith(code, reason)
}

// migrate flushes the session's pending push markers (bounded by ctx) and
// closes it with a migrate frame naming the successor broker. A session
// still backlogged at the deadline is migrated anyway: its markers are
// reconstructed from the subscriber's resume token on the successor.
func (s *session) migrate(ctx context.Context, successor string) {
	for s.depth() > 0 && ctx.Err() == nil {
		select {
		case <-ctx.Done():
		case <-time.After(time.Millisecond):
		}
	}
	s.closeWith(wsock.CloseServiceRestart, successor)
}

// sessionHub tracks which subscribers are currently online (WebSocket
// connected) and which backend subscription each online session is
// interested in. Subscriptions survive logout — that is the asynchrony
// caching enables — so the hub only affects push delivery, never
// subscription state.
//
// The hot path is interest-keyed: a notification for a backend
// subscription resolves its audience with one map lookup
// (interests[backendSub]) instead of iterating sessions, and delivery is
// drained by a fixed pool of writer goroutines instead of one goroutine
// per session — the difference between 10k connections and a million.
type sessionHub struct {
	queueCap     int
	writers      int
	writeTimeout time.Duration
	log          *slog.Logger
	delivered    *obs.Counter
	// traces/stages instrument the queue-wait and socket-write legs of
	// traced deliveries; both may be nil (untraced hubs, benchmarks).
	traces *span.Recorder
	stages *span.Stages

	// mu guards sessions, interests and every session's interests mirror.
	// Broadcasts hold the read lock while they enqueue.
	mu       sync.RWMutex
	sessions map[string]*session
	// interests is the fan-out index: backend subscription -> online
	// session -> frontend subscription. Maintained by register/deregister
	// (subscribe/unsubscribe) and attach/detach (connect/disconnect).
	interests map[string]map[*session]string
	stats     pushStats
	// draining refuses new attaches once a drain has started; successor is
	// the broker URL late arrivals are pointed at.
	draining  bool
	successor string

	// run queue of sessions with pending markers, drained by the writer
	// pool. Intrusive (session.nextReady), so scheduling allocates
	// nothing.
	readyMu   sync.Mutex
	readyCond *sync.Cond
	readyHead *session
	readyTail *session
	stopped   bool

	startOnce sync.Once
}

func newSessionHub(queueCap int, delivered *obs.Counter, log *slog.Logger) *sessionHub {
	if queueCap <= 0 {
		queueCap = DefaultPushQueue
	}
	if log == nil {
		log = obs.NopLogger()
	}
	h := &sessionHub{
		queueCap:     queueCap,
		writers:      defaultPushWriters(),
		writeTimeout: DefaultPushWriteTimeout,
		log:          log,
		delivered:    delivered,
		sessions:     make(map[string]*session),
		interests:    make(map[string]map[*session]string),
	}
	h.readyCond = sync.NewCond(&h.readyMu)
	return h
}

// start launches the writer pool (idempotent; called on the first attach
// so hubs that never see a WebSocket cost nothing).
func (h *sessionHub) start() {
	h.startOnce.Do(func() {
		for i := 0; i < h.writers; i++ {
			go h.writeLoop()
		}
	})
}

// stop terminates the writer pool once every queued marker has been
// picked up. Used by graceful drain (after the last migrate) and tests.
func (h *sessionHub) stop() {
	h.readyMu.Lock()
	h.stopped = true
	h.readyCond.Broadcast()
	h.readyMu.Unlock()
}

// pushReady appends a scheduled session to the run queue.
func (h *sessionHub) pushReady(s *session) {
	h.readyMu.Lock()
	if h.readyTail == nil {
		h.readyHead, h.readyTail = s, s
	} else {
		h.readyTail.nextReady = s
		h.readyTail = s
	}
	h.readyMu.Unlock()
	h.readyCond.Signal()
}

// popReady blocks until a session is runnable (nil once the hub stops and
// the queue is empty).
func (h *sessionHub) popReady() *session {
	h.readyMu.Lock()
	defer h.readyMu.Unlock()
	for h.readyHead == nil {
		if h.stopped {
			return nil
		}
		h.readyCond.Wait()
	}
	s := h.readyHead
	h.readyHead = s.nextReady
	if h.readyHead == nil {
		h.readyTail = nil
	}
	s.nextReady = nil
	return s
}

// writeBatch bounds how many markers one writer drains from a single
// session before requeueing it, so a busy session cannot monopolize a
// pool writer while others wait.
const writeBatch = 16

// writeLoop is one pool writer: pop a runnable session, drain up to a
// batch of its markers onto the socket, requeue it if more arrived. Each
// marker is a shared pre-encoded frame, so a delivery is one buffer
// write. A write failure tears the session down — the subscriber
// reconnects and catches up via GetResults.
func (h *sessionHub) writeLoop() {
	for {
		s := h.popReady()
		if s == nil {
			return
		}
		h.drainSession(s)
	}
}

// drainSession delivers up to writeBatch markers for one scheduled
// session, then requeues it (more pending) or marks it unscheduled (idle
// or closed).
func (h *sessionHub) drainSession(s *session) {
	for i := 0; i < writeBatch; i++ {
		_, ev, ok := s.pop()
		if !ok {
			break
		}
		err := s.deliver(ev)
		s.wrote()
		if err != nil {
			h.stats.failures.Add(1)
			h.log.WarnContext(obs.ContextWithSpan(context.Background(), ev.span),
				"push delivery failed; dropping session",
				slog.String("subscriber", s.subscriber),
				slog.Any("error", err))
			h.drop(s)
			break
		}
		h.delivered.Inc()
	}
	s.mu.Lock()
	if s.n > 0 && !s.closed {
		s.mu.Unlock()
		h.pushReady(s)
		return
	}
	s.scheduled = false
	s.mu.Unlock()
}

// deliver writes one marker to the socket. A traced marker — every marker
// of a publication ingested over HTTP, whose request roots a trace — also
// records a ws_write span, a child of the marker's span, and the
// queue-wait and socket-write stage latencies, both logged (when slow)
// under that span. Only a marker made outside any trace (an in-process
// publication, as the fan-out benchmarks make) takes the bare one-write
// path.
func (s *session) deliver(ev *pushEvent) error {
	if d := s.hub.writeTimeout; d > 0 {
		_ = s.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if !ev.span.Valid() {
		return s.conn.WritePreparedMessage(&ev.pm)
	}
	waited := time.Since(ev.at)
	wctx, sp := s.hub.traces.StartFrom(context.Background(), ev.span, "session.ws_write")
	s.hub.stages.Observe(wctx, span.StageQueueWait, span.OutcomeNone, waited)
	sp.SetAttr("subscriber", s.subscriber)
	start := time.Now()
	err := s.conn.WritePreparedMessage(&ev.pm)
	sp.SetError(err)
	sp.End()
	s.hub.stages.Observe(wctx, span.StageWSWrite, span.OutcomeNone, time.Since(start))
	return err
}

// attach registers a subscriber's connection, closing any previous one,
// and indexes it under the subscriber's interests (backend sub ->
// frontend sub, the broker's view of its subscriptions at attach time;
// register keeps the index current for subscriptions made while online).
// During a drain the attach is refused: the connection is closed
// immediately with a migrate frame naming the successor, and attach
// reports false.
func (h *sessionHub) attach(subscriber string, conn *wsock.Conn, interests map[string]string) bool {
	h.start()
	s := newSession(h, subscriber, conn)
	h.mu.Lock()
	if h.draining {
		successor := h.successor
		h.mu.Unlock()
		_ = conn.CloseWith(wsock.CloseServiceRestart, successor)
		return false
	}
	old := h.sessions[subscriber]
	if old != nil {
		h.unlink(old)
	}
	h.sessions[subscriber] = s
	for bs, fs := range interests {
		s.interests[bs] = fs
		m := h.interests[bs]
		if m == nil {
			m = make(map[*session]string, 1)
			h.interests[bs] = m
		}
		m[s] = fs
	}
	h.mu.Unlock()
	if old != nil {
		old.close()
	}
	return true
}

// unlink removes a session from the interest index (h.mu held, write).
func (h *sessionHub) unlink(s *session) {
	for bs := range s.interests {
		if m := h.interests[bs]; m != nil {
			delete(m, s)
			if len(m) == 0 {
				delete(h.interests, bs)
			}
		}
	}
	clear(s.interests)
}

// register adds one (backend sub -> frontend sub) interest for an online
// subscriber; a no-op while the subscriber is offline (attach will index
// its interests when it connects).
func (h *sessionHub) register(subscriber, backendSub, frontendSub string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.sessions[subscriber]
	if s == nil {
		return
	}
	s.interests[backendSub] = frontendSub
	m := h.interests[backendSub]
	if m == nil {
		m = make(map[*session]string, 1)
		h.interests[backendSub] = m
	}
	m[s] = frontendSub
}

// deregister removes one interest for an online subscriber.
func (h *sessionHub) deregister(subscriber, backendSub string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.sessions[subscriber]
	if s == nil {
		return
	}
	delete(s.interests, backendSub)
	if m := h.interests[backendSub]; m != nil {
		delete(m, s)
		if len(m) == 0 {
			delete(h.interests, backendSub)
		}
	}
}

// detach removes the subscriber's session if it still owns the given
// connection.
func (h *sessionHub) detach(subscriber string, conn *wsock.Conn) {
	h.mu.Lock()
	s := h.sessions[subscriber]
	if s != nil && s.conn == conn {
		delete(h.sessions, subscriber)
		h.unlink(s)
	} else {
		s = nil
	}
	h.mu.Unlock()
	if s != nil {
		s.close()
	}
}

// drop removes a session after a write failure. The close is not the
// normal one: a stalled subscriber that still reads it must reconnect and
// resume, where a normal close (a replaced session) tells it to stay away.
func (h *sessionHub) drop(s *session) {
	h.mu.Lock()
	if h.sessions[s.subscriber] == s {
		delete(h.sessions, s.subscriber)
		h.unlink(s)
	}
	h.mu.Unlock()
	s.closeWith(wsock.CloseGoingAway, "")
}

// online reports whether the subscriber has a live connection.
func (h *sessionHub) online(subscriber string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.sessions[subscriber] != nil
}

// count returns the number of online subscribers.
func (h *sessionHub) count() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.sessions)
}

// audienceSize returns how many online sessions are interested in a
// backend subscription (tests, stats).
func (h *sessionHub) audienceSize(backendSub string) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.interests[backendSub])
}

// drain is a rebalance of every live session to one successor, plus the
// two things only a drain does: from here on attaches are refused (with a
// migrate frame naming the successor), and once the last session is
// migrated the writer pool is stopped — a drained hub accepts no new
// sessions, so the writers have nothing left to do. It returns how many
// sessions were migrated.
func (h *sessionHub) drain(ctx context.Context, successor string) int {
	h.mu.Lock()
	h.draining = true
	h.successor = successor
	h.mu.Unlock()
	n := h.rebalance(ctx, func(string) (string, bool) { return successor, true })
	h.stop()
	return n
}

// rebalance migrates the subset of live sessions decide selects: each
// selected session's pending markers are flushed (bounded by ctx) and its
// socket is closed with a migrate frame naming that session's successor.
// Outside a drain the hub keeps accepting attaches — the broker remains a
// live fabric member, it just stopped owning the moved subscribers.
func (h *sessionHub) rebalance(ctx context.Context, decide func(subscriber string) (successor string, move bool)) int {
	type moved struct {
		s         *session
		successor string
	}
	h.mu.Lock()
	var moves []moved
	for sub, s := range h.sessions {
		if succ, ok := decide(sub); ok {
			moves = append(moves, moved{s, succ})
			delete(h.sessions, sub)
			h.unlink(s)
		}
	}
	h.mu.Unlock()

	var wg sync.WaitGroup
	for _, mv := range moves {
		wg.Add(1)
		go func(mv moved) {
			defer wg.Done()
			mv.s.migrate(ctx, mv.successor)
		}(mv)
	}
	wg.Wait()
	return len(moves)
}

// queueDepth returns the total number of pending markers across sessions
// (markers a writer has popped but not yet written are excluded).
func (h *sessionHub) queueDepth() int {
	h.mu.RLock()
	sessions := make([]*session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.RUnlock()
	total := 0
	for _, s := range sessions {
		total += s.queuedLen()
	}
	return total
}

// PushStats is a point-in-time snapshot of the asynchronous push
// pipeline's counters.
type PushStats struct {
	// Enqueued counts markers accepted into session queues.
	Enqueued uint64
	// Coalesced counts markers merged latest-wins into a queued marker.
	Coalesced uint64
	// Dropped counts oldest-pending markers evicted on queue overflow.
	Dropped uint64
	// Failures counts encode errors and failed socket writes.
	Failures uint64
	// QueueDepth is the current total of pending markers across sessions.
	QueueDepth int
}

func (h *sessionHub) snapshot() PushStats {
	return PushStats{
		Enqueued:   h.stats.enqueued.Load(),
		Coalesced:  h.stats.coalesced.Load(),
		Dropped:    h.stats.dropped.Load(),
		Failures:   h.stats.failures.Load(),
		QueueDepth: h.queueDepth(),
	}
}

// newEvent encodes the shared wire frame for one backend-subscription
// marker.
func (h *sessionHub) newEvent(ctx context.Context, backendSub string, latest int64) (*pushEvent, bool) {
	ev := &pushEvent{latest: latest}
	if sc, ok := obs.SpanFromContext(ctx); ok {
		ev.span, ev.at = sc, time.Now()
	}
	var buf [192]byte // fits any broker-minted id plus a traceparent
	if err := ev.pm.Encode(wsock.OpText, appendPushJSON(buf[:0], backendSub, latest, ev.span)); err != nil {
		h.stats.failures.Add(1)
		h.log.WarnContext(ctx, "preparing push frame failed",
			slog.String("backend_sub", backendSub), slog.Any("error", err))
		return nil, false
	}
	return ev, true
}

// broadcast fans one backend-subscription event out to every online
// session interested in it. The audience is one index lookup — not a scan
// of sessions — the payload is marshaled once and pre-framed once, and
// per session the cost is a non-blocking enqueue, so the arrival path
// never waits on a subscriber's socket. It returns how many sessions
// accepted the marker.
func (h *sessionHub) broadcast(ctx context.Context, backendSub string, latest int64) int {
	h.mu.RLock()
	audience := h.interests[backendSub]
	if len(audience) == 0 {
		h.mu.RUnlock()
		return 0
	}
	ev, ok := h.newEvent(ctx, backendSub, latest)
	if !ok {
		h.mu.RUnlock()
		return 0
	}
	accepted := 0
	for s, fs := range audience {
		if s.enqueue(fs, ev) {
			accepted++
		}
	}
	h.mu.RUnlock()
	return accepted
}

// broadcastTo pushes one event to a single subscriber (the resume path:
// re-arming live push after a backfill). It reports whether the
// subscriber was online and accepted the marker.
func (h *sessionHub) broadcastTo(ctx context.Context, backendSub, subscriber, frontendSub string, latest int64) bool {
	h.mu.RLock()
	s := h.sessions[subscriber]
	if s == nil {
		h.mu.RUnlock()
		return false
	}
	ev, ok := h.newEvent(ctx, backendSub, latest)
	if !ok {
		h.mu.RUnlock()
		return false
	}
	accepted := s.enqueue(frontendSub, ev)
	h.mu.RUnlock()
	return accepted
}
