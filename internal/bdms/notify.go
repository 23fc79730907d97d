package bdms

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gobad/internal/httpx"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
	"gobad/internal/wsock"
)

// NotificationPayload is the JSON body POSTed to a broker's callback URL
// (the WebHook of Section III): "the data cluster invokes [it] to notify
// the broker when results against that subscription are available". PUSH
// versus PULL is a property of an entry, not a second protocol: a PULL entry
// carries only a resource handle (the latest result timestamp) and the
// broker fetches the results it wants; a PUSH entry — the default — carries
// the result objects themselves, each naming its predecessor (prev_ns), so
// the broker can tell without asking the cluster that nothing lies between
// its marker and them. One POST is an envelope — everything the notifier
// held for that callback, one entry per subscription: the head entry in the
// top-level fields, the others in More, so a single notification is the
// envelope of one and reads as it always has. The notifier appends it by
// hand (appendNotificationPayload), the pushed rows spliced in.
type NotificationPayload struct {
	SubscriptionID string `json:"subscription_id"`
	LatestNS       int64  `json:"latest_ns"`
	// Results carries the pushed result objects, oldest first; empty under
	// the PULL model, and for a PUSH entry shed to fit the byte budget.
	Results []ResultObject `json:"results,omitempty"`
	// More holds the envelope's other entries; theirs is empty.
	More []NotificationPayload `json:"more,omitempty"`
}

// CallbackResponse is the 200 body a callback answers an envelope with:
// the entries it could not take; every entry it does not list is delivered.
// Any other status fails the whole envelope.
type CallbackResponse struct {
	Failed []FailedEntry `json:"failed,omitempty"`
}

// FailedEntry names one refused entry and why (an httpx error code). The
// notifier redelivers every refusal alike — an unknown subscription may be
// one whose Subscribe is still returning — so the code is for its log.
type FailedEntry struct {
	SubscriptionID string `json:"subscription_id"`
	Code           string `json:"code"`
}

// envelopeFrame is an envelope as a frame of a callback stream carries it:
// the POST's body with the envelope's number on the stream and the
// traceparent a POST sends as a header.
type envelopeFrame struct {
	NotificationPayload
	ID int64  `json:"id"`
	TP string `json:"tp,omitempty"`
}

// callbackReply is a callback stream's answer to an envelope frame: the
// POST's 200 body, naming the envelope it answers as "re".
type callbackReply struct {
	CallbackResponse
	Re int64 `json:"re"`
}

// OfferStream sets the headers with which a callback's POST answer offers
// a callback stream on the same URL (an Upgrade header may advertise a
// protocol on any response, RFC 9110 §7.8). The notifier opens a stream
// only to a callback that offered one, so a receiver that never does —
// the paper's plain WebHook — sees nothing but POSTs.
func OfferStream(h http.Header) {
	h.Set("Connection", "Upgrade")
	h.Set("Upgrade", "websocket")
}

// envelopeByteBudget bounds the result bytes (ResultObject.Size) one
// envelope carries — a quarter of what the receiver will read. A PUSH entry
// that would exceed it goes out handle-only and the broker pulls.
const envelopeByteBudget = httpx.MaxBodyBytes / 4

// NotifierStats tallies a WebhookNotifier's outcomes. All but Posts,
// Streamed and Entries count notifications, however many shared an
// envelope: every one handed to the notifier ends as exactly one of
// Delivered, Dropped or Lost.
type NotifierStats struct {
	// Delivered counts notifications a callback took.
	Delivered atomic.Uint64
	// Failed counts failed attempts (a notification may fail several times)
	// and Redelivered the returns to the outbox that followed.
	Failed, Redelivered atomic.Uint64
	// Dropped counts notifications never accepted: queueCap entries were
	// pending, or shutdown had begun.
	Dropped atomic.Uint64
	// Lost counts notifications out of attempts, or of redelivery at Close.
	Lost atomic.Uint64
	// Coalesced counts notifications merged into a pending entry.
	Coalesced atomic.Uint64
	// Rerouted counts notifications whose dead callback was re-resolved to
	// a live broker's (fresh attempt budget); Abandoned the subset of Lost
	// that ran out of attempts with no reroute left.
	Rerouted, Abandoned atomic.Uint64
	// Posts counts envelopes sent as callback POSTs and Streamed those sent
	// as frames on a callback stream; Entries the entries both carried.
	Posts, Streamed, Entries atomic.Uint64
	// Degraded counts PUSH entries sent handle-only for the byte budget.
	Degraded atomic.Uint64
}

// Collector exports the delivery tallies as counter families.
func (s *NotifierStats) Collector() obs.Collector {
	return obs.CollectorFunc(func(emit func(obs.Family)) {
		counter := func(name, help string, v *atomic.Uint64) {
			emit(obs.Family{Name: name, Help: help, Type: obs.CounterType,
				Points: []obs.Point{{Value: float64(v.Load())}}})
		}
		counter("bad_webhook_delivered_total", "Webhook notifications delivered.", &s.Delivered)
		counter("bad_webhook_failed_total", "Failed webhook delivery attempts, per notification.", &s.Failed)
		counter("bad_webhook_redelivered_total", "Webhook notifications put back after a failed attempt.", &s.Redelivered)
		counter("bad_webhook_dropped_total", "Webhook notifications shed at intake (outboxes full).", &s.Dropped)
		counter("bad_webhook_lost_total", "Webhook notifications abandoned after the attempt budget.", &s.Lost)
		counter("bad_webhook_coalesced_total", "Webhook notifications merged into a pending entry of their subscription.", &s.Coalesced)
		counter("bad_webhook_rerouted_total", "Webhook notifications rerouted to a re-resolved broker callback.", &s.Rerouted)
		counter("bad_webhook_abandoned_total", "Webhook notifications abandoned after the attempt budget with no reroute.", &s.Abandoned)
		emit(obs.Family{Name: "bad_webhook_envelopes_total", Help: "Webhook envelopes sent, by transport: a callback POST or a frame on a callback stream.",
			Type: obs.CounterType, Points: []obs.Point{
				{Labels: []obs.Label{{Name: "transport", Value: "post"}}, Value: float64(s.Posts.Load())},
				{Labels: []obs.Label{{Name: "transport", Value: "stream"}}, Value: float64(s.Streamed.Load())},
			}})
		counter("bad_webhook_envelope_entries_total", "Entries carried by webhook envelopes.", &s.Entries)
		counter("bad_webhook_degraded_total", "PUSH entries sent handle-only to fit the envelope byte budget.", &s.Degraded)
	})
}

// entry is what the notifier holds for one subscription at one callback:
// every notification accepted since the last envelope left, merged.
type entry struct {
	sub      string
	latest   int64
	results  []ResultObject
	bytes    int64  // Size sum of results
	handle   bool   // a PUSH entry whose results were shed
	count    uint64 // notifications merged in
	attempts int
	// rerouted marks an entry already re-resolved once; a second dead
	// callback abandons it instead of bouncing between brokers forever.
	rerouted bool
	// span is the first contributor's: every retry carries its trace.
	span     obs.SpanContext
	accepted time.Time
}

// outbox is one callback's pending entries, oldest first. It lives as long
// as its drain goroutine, which sends them, an envelope at a time, over
// the callback's link.
type outbox struct {
	pending []*entry
	bySub   map[string]*entry
	link    *link
}

// link is how the notifier reaches one callback URL; it outlives the
// callback's outboxes, and only the outbox draining holds it. A callback
// whose POST answer offered the upgrade (OfferStream) gets a stream,
// opened at its next envelope and kept; one that refused the upgrade gets
// POSTs from then on.
type link struct {
	offered, refused bool
	s                *stream // the open stream; nil when there is none
	sent             int64   // the last envelope id sent on a stream
}

// stream is an open callback stream. Its reader hands each answer frame
// over, and closes done when the stream ends, err saying why — so an
// envelope finds out before its frame is written that the callback closed
// the stream while it was idle.
type stream struct {
	conn    *wsock.Conn
	answers chan []byte
	done    chan struct{}
	err     error
}

// WebhookNotifier delivers notifications to each subscription's callback
// URL with at-least-once semantics: by POST, or as frames on one
// long-lived WebSocket stream per callback where the callback offers one.
// Notifications wait in their callback's outbox, merged per subscription
// (PULL: latest wins; PUSH: results append); one envelope per callback is
// in flight, and what gathered behind it leaves as the next envelope. A
// failed envelope — or the entries a callback refused — is logged at WARN
// (with its trace ID), counted, and put back after a capped exponential
// backoff that holds no worker, until its attempt budget is spent and it
// is counted lost. Intake sheds past
// queueCap entries — safe for the protocol: PULL notifications are
// cumulative, and a dropped PUSH leaves the next pushed result naming a
// predecessor above the broker's marker, so the broker pulls the gap.
type WebhookNotifier struct {
	client      *http.Client
	logger      *slog.Logger
	maxAttempts int
	baseDelay   time.Duration
	maxDelay    time.Duration
	sleep       func(ctx context.Context, d time.Duration) error
	stats       *NotifierStats
	resolver    CallbackResolver
	stages      *span.Stages
	queueCap    int
	sem         chan struct{} // a slot per envelope in flight
	ctx         context.Context
	stop        context.CancelFunc // wakes backoff sleeps on Close

	mu       sync.Mutex
	outboxes map[string]*outbox
	links    map[string]*link
	pending  int // entries held: in outboxes, in flight or backing off
	closed   bool
	wg       sync.WaitGroup
	readers  sync.WaitGroup // the streams' readers
}

// NotifierOption tunes a WebhookNotifier.
type NotifierOption func(*WebhookNotifier)

// WithNotifierLogger sets the logger for delivery failures (wrapped to be
// trace-aware). The default discards.
func WithNotifierLogger(l *slog.Logger) NotifierOption {
	return func(n *WebhookNotifier) {
		if l != nil {
			n.logger = obs.WrapLogger(l)
		}
	}
}

// WithNotifierMaxAttempts bounds delivery attempts per notification
// (default 8); 1 disables redelivery.
func WithNotifierMaxAttempts(max int) NotifierOption {
	return func(n *WebhookNotifier) {
		if max > 0 {
			n.maxAttempts = max
		}
	}
}

// WithNotifierBackoff sets the redelivery backoff envelope: attempt k waits
// min(maxDelay, base<<k). Defaults: 100ms base, 5s cap.
func WithNotifierBackoff(base, maxDelay time.Duration) NotifierOption {
	return func(n *WebhookNotifier) {
		if base > 0 {
			n.baseDelay = base
		}
		if maxDelay > 0 {
			n.maxDelay = maxDelay
		}
	}
}

// WithNotifierSleep injects the backoff sleeper (tests pass a virtual one).
func WithNotifierSleep(sleep func(ctx context.Context, d time.Duration) error) NotifierOption {
	return func(n *WebhookNotifier) {
		if sleep != nil {
			n.sleep = sleep
		}
	}
}

// CallbackResolver re-resolves a dead callback URL — one that exhausted
// the delivery attempt budget — to a live replacement. Returning an error
// (or the same URL) abandons the notification instead.
type CallbackResolver func(deadCallback string) (string, error)

// WithNotifierResolver installs a dead-callback resolver: entries out of
// attempts are retried once at the replacement callback it names, with a
// fresh budget (counted as rerouted), before the notifier gives up (counted
// as abandoned). Without a resolver, exhaustion abandons immediately.
func WithNotifierResolver(r CallbackResolver) NotifierOption {
	return func(n *WebhookNotifier) { n.resolver = r }
}

// WithNotifierStages wires the per-stage delivery histogram: a notification's
// wait for its first POST is webhook_queue, a POST round-trip webhook_delivery.
func WithNotifierStages(st *span.Stages) NotifierOption {
	return func(n *WebhookNotifier) { n.stages = st }
}

// WithNotifierStats shares an externally-owned stats bundle (e.g. one
// registered on /metrics).
func WithNotifierStats(s *NotifierStats) NotifierOption {
	return func(n *WebhookNotifier) {
		if s != nil {
			n.stats = s
		}
	}
}

// NewWebhookNotifier starts a notifier that POSTs to at most workers
// callbacks at once (min 1) and holds at most queueCap entries (min 16).
// Close must be called to drain it.
func NewWebhookNotifier(workers, queueCap int, client *http.Client, opts ...NotifierOption) *WebhookNotifier {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	n := &WebhookNotifier{
		client:      client,
		logger:      obs.NopLogger(),
		maxAttempts: 8,
		baseDelay:   100 * time.Millisecond,
		maxDelay:    5 * time.Second,
		sleep:       httpx.Sleep,
		stats:       &NotifierStats{},
		queueCap:    max(queueCap, 16),
		sem:         make(chan struct{}, max(workers, 1)),
		outboxes:    make(map[string]*outbox),
		links:       make(map[string]*link),
	}
	n.ctx, n.stop = context.WithCancel(context.Background())
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// NotifyContext implements Notifier (PULL model). The delivery (and every
// retry of it) runs under the publication trace carried by ctx, minting a
// fresh root only when ctx has none.
func (n *WebhookNotifier) NotifyContext(ctx context.Context, subID, callback string, latest time.Duration) {
	n.accept(ctx, subID, callback, int64(latest), nil)
}

// NotifyPushContext implements PushNotifier: the result object rides along.
func (n *WebhookNotifier) NotifyPushContext(ctx context.Context, subID, callback string, obj ResultObject) {
	n.accept(ctx, subID, callback, int64(obj.Timestamp), []ResultObject{obj})
}

// accept is the one intake: merge into the subscription's pending entry, or
// open one, shedding when queueCap entries are held already.
func (n *WebhookNotifier) accept(ctx context.Context, subID, callback string, latest int64, results []ResultObject) {
	if callback == "" {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var p *entry
	if ob := n.outboxes[callback]; ob != nil {
		p = ob.bySub[subID]
	}
	switch {
	case n.closed || (p == nil && n.pending >= n.queueCap):
		n.stats.Dropped.Add(1)
	case p != nil:
		p.count++
		n.stats.Coalesced.Add(1)
		n.absorb(p, latest, results, false)
	default:
		n.pending++
		e := &entry{sub: subID, count: 1, span: originSpan(ctx), accepted: time.Now()}
		n.absorb(e, latest, results, false)
		n.add(callback, e)
	}
}

// originSpan derives the delivery's span from the originating context: a
// child of the publication's span when there is one (so the POST and all
// its retries carry that publication's trace ID), a fresh root otherwise.
func originSpan(ctx context.Context) obs.SpanContext {
	if sc, ok := obs.SpanFromContext(ctx); ok {
		return sc.Child()
	}
	return obs.NewSpan()
}

// absorb merges a newer notification of p's subscription into it: latest
// wins, results append — until the byte budget, or a handle-only
// notification, degrades the entry to its handle and the broker pulls.
func (n *WebhookNotifier) absorb(p *entry, latest int64, results []ResultObject, handle bool) {
	p.latest = max(p.latest, latest)
	if p.handle {
		return
	}
	p.results = append(p.results, results...)
	for _, r := range results {
		p.bytes += r.Size
	}
	if handle || p.bytes > envelopeByteBudget {
		if len(p.results) > 0 {
			n.stats.Degraded.Add(1)
		}
		p.results, p.bytes, p.handle = nil, 0, true
	}
}

// add puts e into callback's outbox, opening it — and starting its drain —
// if there is none. A failed entry coming back may find its subscription
// pending again: it is the older of the two, so its results go in front and
// its trace, age and attempts stand. Caller holds n.mu.
func (n *WebhookNotifier) add(callback string, e *entry) {
	ob := n.outboxes[callback]
	if ob == nil {
		l := n.links[callback]
		if l == nil {
			l = &link{}
			n.links[callback] = l
		}
		ob = &outbox{bySub: make(map[string]*entry), link: l}
		n.outboxes[callback] = ob
		n.wg.Add(1)
		go n.drain(callback, ob)
	}
	if p := ob.bySub[e.sub]; p != nil {
		*p, *e = *e, *p
		p.count += e.count
		p.rerouted = p.rerouted || e.rerouted
		n.absorb(p, e.latest, e.results, e.handle)
		n.pending--
		return
	}
	ob.bySub[e.sub] = e
	ob.pending = append(ob.pending, e)
}

// drain sends ob's envelopes one after another until nothing is pending:
// each is everything pending once a slot is free, less the results of PUSH
// entries past the byte budget.
func (n *WebhookNotifier) drain(callback string, ob *outbox) {
	defer n.wg.Done()
	for {
		n.sem <- struct{}{}
		n.mu.Lock()
		batch := ob.pending
		if len(batch) == 0 {
			delete(n.outboxes, callback)
			n.mu.Unlock()
			<-n.sem
			return
		}
		ob.pending = nil
		clear(ob.bySub)
		var bytes int64
		for _, e := range batch {
			if bytes += e.bytes; bytes > envelopeByteBudget {
				bytes -= e.bytes
				n.absorb(e, e.latest, nil, true)
			}
		}
		n.mu.Unlock()
		n.send(callback, ob.link, batch)
		<-n.sem
	}
}

// send sends one envelope, under its head entry's trace, and settles every
// entry: delivered, or failed — all of them when the exchange failed, those
// the callback refused otherwise.
func (n *WebhookNotifier) send(callback string, l *link, batch []*entry) {
	ctx := obs.ContextWithSpan(context.Background(), batch[0].span)
	start := time.Now()
	entries := make([]NotificationPayload, len(batch))
	size := 0
	for i, e := range batch {
		entries[i] = NotificationPayload{SubscriptionID: e.sub, LatestNS: e.latest, Results: e.results}
		size += 64 + len(e.sub) + resultsSize(e.results) + 32*len(e.results) // 32: prev_ns
		if e.attempts == 0 {
			n.stages.Observe(ctx, span.StageWebhookQueue, span.OutcomeNone, start.Sub(e.accepted))
		}
	}
	payload := entries[0]
	payload.More = entries[1:]
	body := appendNotificationPayload(make([]byte, 0, size+96), payload) // 96: the frame's id and tp
	resp, err := n.exchange(ctx, callback, l, body)
	n.stages.Observe(ctx, span.StageWebhook, span.OutcomeNone, time.Since(start))
	n.stats.Entries.Add(uint64(len(batch)))
	failed := batch
	if err == nil {
		failed = nil
		refused := make(map[string]FailedEntry, len(resp.Failed))
		for _, f := range resp.Failed {
			refused[f.SubscriptionID] = f
		}
		for _, e := range batch {
			if f, ok := refused[e.sub]; ok {
				failed = append(failed, e)
				err = fmt.Errorf("callback refused %s: %s", e.sub, f.Code)
			} else {
				n.stats.Delivered.Add(e.count)
			}
		}
	}
	n.mu.Lock()
	n.pending -= len(batch) - len(failed)
	n.mu.Unlock()
	if len(failed) > 0 {
		n.retry(ctx, callback, failed, err)
	}
}

// exchange sends one envelope and returns the callback's answer: as a frame
// on the callback's stream when it offered one, else — or when the frame
// could not be written, on an open stream or a fresh one — as a POST, in
// the same attempt. A stream that fails after the frame left fails the
// envelope as a failed POST does.
func (n *WebhookNotifier) exchange(ctx context.Context, callback string, l *link, body []byte) (CallbackResponse, error) {
	if l.offered && !l.refused {
		resp, written, err := n.stream(ctx, callback, l, body)
		if written {
			n.stats.Streamed.Add(1)
			return resp, err
		}
		body[len(body)-1] = '}' // the envelope again, its frame's tail cut
	}
	var resp CallbackResponse
	_, hdr, err := httpx.DoJSONHeader(ctx, n.client, http.MethodPost, callback, nil, json.RawMessage(body), &resp)
	n.stats.Posts.Add(1)
	if err == nil && strings.EqualFold(hdr.Get("Upgrade"), "websocket") {
		l.offered = true
	}
	return resp, err
}

// stream writes body's frame on l's stream, dialling it within the client's
// timeout when there is none and once more when a kept one has ended or
// fails the write, then waits for the answer within the same timeout.
// written reports whether the frame left; a dial the callback answers with
// anything but 101 refuses l the stream for good.
func (n *WebhookNotifier) stream(ctx context.Context, callback string, l *link, body []byte) (resp CallbackResponse, written bool, err error) {
	var deadline time.Time
	if n.client.Timeout > 0 {
		deadline = time.Now().Add(n.client.Timeout)
	}
	tp := ""
	if sc, ok := obs.SpanFromContext(ctx); ok {
		tp = sc.Child().Traceparent()
	}
	l.sent++
	frame := appendEnvelopeFrame(body, l.sent, tp)
	for !written {
		fresh := l.s == nil
		if fresh {
			if l.s, err = n.dial(callback); err != nil {
				l.refused = errors.Is(err, wsock.ErrRejected)
				return resp, false, err
			}
		} else if l.s.ended() {
			l.drop()
			continue
		}
		_ = l.s.conn.SetWriteDeadline(deadline)
		_ = l.s.conn.SetReadDeadline(deadline)
		if err = l.s.conn.WriteMessage(wsock.OpText, frame); err == nil {
			written = true
			continue
		}
		l.drop()
		if fresh {
			return resp, false, err
		}
	}
	var msg []byte
	select {
	case msg = <-l.s.answers:
	case <-l.s.done:
		select {
		case msg = <-l.s.answers: // answered, then ended
		default:
			err = l.s.err
		}
	}
	var re int64
	if err == nil {
		_ = l.s.conn.SetReadDeadline(time.Time{}) // idle until the next envelope
		if resp, re, err = ParseCallbackReply(msg); err == nil && re != l.sent {
			err = fmt.Errorf("answered envelope %d, want %d", re, l.sent)
		}
	}
	if err != nil {
		l.drop()
		err = fmt.Errorf("bdms: callback stream %s: %w", callback, err)
	}
	return resp, true, err
}

// dial opens a callback stream and starts its reader. An answer nobody is
// waiting for ends the stream.
func (n *WebhookNotifier) dial(callback string) (*stream, error) {
	conn, err := wsock.Dial(callback, n.client.Timeout)
	if err != nil {
		return nil, err
	}
	s := &stream{conn: conn, answers: make(chan []byte, 1), done: make(chan struct{})}
	n.readers.Add(1)
	go func() {
		defer n.readers.Done()
		defer close(s.done)
		for {
			_, msg, err := conn.ReadMessage()
			if err != nil {
				s.err = err
				return
			}
			select {
			case s.answers <- msg:
			default:
				s.err = errors.New("answer without an envelope")
				return
			}
		}
	}()
	return s, nil
}

// ended reports whether the stream's reader has stopped.
func (s *stream) ended() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// drop closes l's stream, if any; the next envelope dials a fresh one.
func (l *link) drop() {
	if l.s != nil {
		_ = l.s.conn.Close()
		l.s = nil
	}
}

// retry settles the entries of a failed attempt. Those with attempts left
// sit their backoff out of the outbox — no worker waits and the callback's
// other envelopes keep moving — then return to it. The others go together to the
// callback the resolver (if any) names, once per entry, or are abandoned.
func (n *WebhookNotifier) retry(ctx context.Context, callback string, failed []*entry, cause error) {
	var again, moved, lost []*entry
	for _, e := range failed {
		n.stats.Failed.Add(e.count)
		switch e.attempts++; {
		case e.attempts < n.maxAttempts:
			again = append(again, e)
		case e.rerouted || n.resolver == nil:
			lost = append(lost, e)
		default:
			moved = append(moved, e)
		}
	}
	warn := func(msg string, entries []*entry, args ...any) {
		n.logger.WarnContext(ctx, msg, append(args, "callback", callback, "subscription_id", entries[0].sub,
			"entries", len(entries), "attempts", entries[0].attempts, "error", cause)...)
	}
	if len(moved) > 0 {
		if next, err := n.resolver(callback); err != nil || next == "" || next == callback {
			lost = append(lost, moved...)
		} else {
			warn("webhook callback dead; rerouting to re-resolved broker", moved, "new_callback", next)
			for _, e := range moved {
				e.attempts, e.rerouted = 0, true
			}
			n.requeue(next, moved, &n.stats.Rerouted)
		}
	}
	if len(lost) > 0 {
		warn("webhook delivery abandoned", lost)
		n.mu.Lock()
		n.pending -= len(lost)
		n.mu.Unlock()
		for _, e := range lost {
			n.stats.Lost.Add(e.count)
			n.stats.Abandoned.Add(e.count)
		}
	}
	if len(again) > 0 {
		warn("webhook delivery failed; redelivering", again)
		n.wg.Add(1) // on a drain goroutine, itself counted: Close is still waiting
		go func() {
			defer n.wg.Done()
			_ = n.sleep(n.ctx, n.backoff(again[0].attempts)) // cut short by Close, which requeue sees
			n.requeue(callback, again, &n.stats.Redelivered)
		}()
	}
}

// requeue puts entries into callback's outbox, counting their notifications
// in tally; once Close has begun they are lost instead.
func (n *WebhookNotifier) requeue(callback string, entries []*entry, tally *atomic.Uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, e := range entries {
		if n.closed {
			n.pending--
			n.stats.Lost.Add(e.count)
			continue
		}
		tally.Add(e.count)
		n.add(callback, e)
	}
}

// Stats returns the notifier's delivery tallies.
func (n *WebhookNotifier) Stats() *NotifierStats { return n.stats }

// Close stops accepting notifications, lets every outbox drain (entries
// that fail now, or were backing off, are counted lost rather than
// retried), waits for the envelopes in flight and closes the streams.
func (n *WebhookNotifier) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.stop()
	n.wg.Wait()
	n.mu.Lock()
	for _, l := range n.links {
		l.drop()
	}
	n.mu.Unlock()
	n.readers.Wait()
}

// backoff is the delay before redelivery attempt k+1: min(maxDelay,
// base<<(k-1)).
func (n *WebhookNotifier) backoff(attempts int) time.Duration {
	d := n.baseDelay << uint(attempts-1)
	if d > n.maxDelay || d <= 0 {
		d = n.maxDelay
	}
	return d
}

// Interface compliance.
var _ PushNotifier = (*WebhookNotifier)(nil)
