package bdms

import (
	"context"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gobad/internal/httpx"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// NotificationPayload is the JSON body POSTed to a subscription's callback
// URL (the WebHook of Section III): "the data cluster invokes [it] to
// notify the broker when results against that subscription are available".
// PUSH versus PULL is a property of the payload, not a second protocol:
// under the PULL model it carries only a resource handle (the latest result
// timestamp) and the broker fetches the results it wants; under the PUSH
// model Results carries the result objects themselves.
type NotificationPayload struct {
	SubscriptionID string `json:"subscription_id"`
	LatestNS       int64  `json:"latest_ns"`
	// Results carries the pushed result objects, oldest first — one for an
	// immediate push, several when the notifier coalesced a flush window;
	// empty under the PULL model.
	Results []ResultObject `json:"results,omitempty"`
}

// NotifierStats tallies a WebhookNotifier's delivery outcomes. At-least-once
// accounting: every accepted notification ends as exactly one of Delivered,
// or Lost (abandoned after the attempt budget / shed on shutdown); Dropped
// counts notifications never accepted — the intake queue was full, or they
// arrived (or flushed) after shutdown began.
type NotifierStats struct {
	// Delivered counts successful callback POSTs.
	Delivered atomic.Uint64
	// Failed counts individual failed delivery attempts (one notification
	// may fail several times before succeeding or being abandoned).
	Failed atomic.Uint64
	// Redelivered counts re-enqueues after a failed attempt.
	Redelivered atomic.Uint64
	// Dropped counts notifications shed at intake (full queue, or
	// arriving/flushing after shutdown began).
	Dropped atomic.Uint64
	// Lost counts notifications abandoned after exhausting the attempt
	// budget or because the notifier shut down with redeliveries pending.
	Lost atomic.Uint64
	// Coalesced counts notifications merged into a pending batch instead
	// of being POSTed individually (batching enabled).
	Coalesced atomic.Uint64
	// Rerouted counts notifications whose dead callback was re-resolved to
	// a live broker (fresh attempt budget) instead of being abandoned.
	Rerouted atomic.Uint64
	// Abandoned counts the subset of Lost that exhausted the attempt
	// budget with no reroute possible — the callback is dead for good.
	Abandoned atomic.Uint64
}

// Collector exports the delivery tallies as counter families.
func (s *NotifierStats) Collector() obs.Collector {
	return obs.CollectorFunc(func(emit func(obs.Family)) {
		counter := func(name, help string, v uint64) {
			emit(obs.Family{Name: name, Help: help, Type: obs.CounterType,
				Points: []obs.Point{{Value: float64(v)}}})
		}
		counter("bad_webhook_delivered_total", "Webhook notifications delivered.", s.Delivered.Load())
		counter("bad_webhook_failed_total", "Failed webhook delivery attempts.", s.Failed.Load())
		counter("bad_webhook_redelivered_total", "Webhook notifications re-enqueued after a failed attempt.", s.Redelivered.Load())
		counter("bad_webhook_dropped_total", "Webhook notifications shed at intake (full queue).", s.Dropped.Load())
		counter("bad_webhook_lost_total", "Webhook notifications abandoned after the attempt budget.", s.Lost.Load())
		counter("bad_webhook_coalesced_total", "Webhook notifications merged into a pending batch.", s.Coalesced.Load())
		counter("bad_webhook_rerouted_total", "Webhook notifications rerouted to a re-resolved broker callback.", s.Rerouted.Load())
		counter("bad_webhook_abandoned_total", "Webhook notifications abandoned after the attempt budget with no reroute.", s.Abandoned.Load())
	})
}

// queueItem is one in-flight delivery: the payload plus its attempt count
// and the trace span minted at enqueue, so every retry of one notification
// logs (and propagates) the same trace ID.
type queueItem struct {
	callback string
	payload  NotificationPayload
	attempts int
	span     obs.SpanContext
	// rerouted marks an item already re-resolved once; a second dead
	// callback abandons it instead of bouncing between brokers forever.
	rerouted bool
}

// WebhookNotifier delivers notifications by POSTing to each subscription's
// callback URL with at-least-once semantics. Deliveries run on a fixed
// worker pool fed by a bounded queue; a failed attempt is logged at WARN
// (with its trace ID), counted, and re-enqueued after a capped exponential
// backoff until the attempt budget is exhausted, at which point the
// notification is counted as lost. Intake still sheds when the queue is
// full — that is safe for the protocol: PULL notifications are cumulative
// (only the latest timestamp matters) and a dropped PUSH is recovered by
// the broker's next pull, because its backend marker still lags the
// dropped object.
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

	mu     sync.Mutex
	queue  chan queueItem
	wg     sync.WaitGroup
	closed bool

	// batchWindow > 0 coalesces notifications per (subscription, callback)
	// for that long before one combined POST goes out; 0 keeps the
	// immediate per-notification form.
	batchWindow time.Duration
	batchMu     sync.Mutex
	batches     map[batchKey]*pendingBatch
	// batchClosed stops addToBatch from opening new buckets; Close sets it
	// (under batchMu) before the final flush so no batch can appear — and
	// leak a live timer — after shutdown.
	batchClosed bool
}

// batchKey identifies a coalescing bucket: one subscription's deliveries to
// one callback URL.
type batchKey struct {
	subID    string
	callback string
}

// pendingBatch accumulates one bucket's notifications during the flush
// window. PULL notifications only advance latest (they are cumulative);
// PUSH notifications also collect their result objects, oldest first.
type pendingBatch struct {
	latest  int64
	results []ResultObject
	span    obs.SpanContext
	timer   *time.Timer
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

// WithNotifierBatchWindow coalesces notifications per (subscription,
// callback) for the given window before one combined POST goes out: PULL
// notifications collapse to the latest timestamp, PUSH notifications
// accumulate into one Results batch the receiver ingests in a single
// call. d <= 0 keeps immediate per-notification delivery.
func WithNotifierBatchWindow(d time.Duration) NotifierOption {
	return func(n *WebhookNotifier) {
		if d > 0 {
			n.batchWindow = d
		}
	}
}

// CallbackResolver re-resolves a dead callback URL — one that exhausted
// the delivery attempt budget — to a live replacement. Returning an error
// (or the same URL) abandons the notification instead.
type CallbackResolver func(deadCallback string) (string, error)

// WithNotifierResolver installs a dead-callback resolver: when a
// notification exhausts its attempt budget, the notifier asks the resolver
// for a replacement callback once and retries there with a fresh budget
// (counted as rerouted) before giving up (counted as abandoned). Without a
// resolver, exhaustion abandons immediately.
func WithNotifierResolver(r CallbackResolver) NotifierOption {
	return func(n *WebhookNotifier) {
		n.resolver = r
	}
}

// WithNotifierStages wires the per-stage delivery histogram: every webhook
// POST round-trip is observed as the webhook_delivery stage.
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

// NewWebhookNotifier starts a notifier with the given number of delivery
// workers (min 1) and queue capacity (min 16). Close must be called to
// release the workers.
func NewWebhookNotifier(workers, queueCap int, client *http.Client, opts ...NotifierOption) *WebhookNotifier {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 16 {
		queueCap = 16
	}
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	n := &WebhookNotifier{
		client:      client,
		logger:      obs.NopLogger(),
		maxAttempts: 8,
		baseDelay:   100 * time.Millisecond,
		maxDelay:    5 * time.Second,
		stats:       &NotifierStats{},
		queue:       make(chan queueItem, queueCap),
		batches:     make(map[batchKey]*pendingBatch),
	}
	n.sleep = realSleep
	for _, opt := range opts {
		opt(n)
	}
	n.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go n.worker()
	}
	return n
}

func realSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// NotifyContext implements Notifier (PULL model): it enqueues the delivery
// (or folds it into the pending batch when coalescing is on), dropping it
// when the queue is full. The delivery (and every retry of it) runs under
// the publication trace carried by ctx, minting a fresh root only when ctx
// has none.
func (n *WebhookNotifier) NotifyContext(ctx context.Context, subID, callback string, latest time.Duration) {
	n.accept(ctx, subID, callback, int64(latest), nil)
}

// NotifyPushContext implements PushNotifier: the payload carries the result
// object itself; with coalescing on, results accumulate into one batched
// POST per flush window.
func (n *WebhookNotifier) NotifyPushContext(ctx context.Context, subID, callback string, obj ResultObject) {
	n.accept(ctx, subID, callback, int64(obj.Timestamp), []ResultObject{obj})
}

// accept is the one intake: batch when coalescing is on, enqueue otherwise.
func (n *WebhookNotifier) accept(ctx context.Context, subID, callback string, latest int64, results []ResultObject) {
	if callback == "" {
		return
	}
	sc := originSpan(ctx)
	if n.batchWindow > 0 {
		n.addToBatch(sc, subID, callback, latest, results)
		return
	}
	n.enqueue(queueItem{
		callback: callback,
		payload:  NotificationPayload{SubscriptionID: subID, LatestNS: latest, Results: results},
		span:     sc,
	})
}

// originSpan derives the delivery's span from the originating context: a
// child of the publication's span when there is one (so the webhook POST
// and all its retries carry that publication's trace ID), a fresh root
// otherwise.
func originSpan(ctx context.Context) obs.SpanContext {
	if sc, ok := obs.SpanFromContext(ctx); ok {
		return sc.Child()
	}
	return obs.NewSpan()
}

// addToBatch folds one notification into its (subscription, callback)
// bucket, opening the bucket — and arming its flush timer — on first use.
// The bucket adopts the first contributor's span: a coalesced batch is
// attributed to the publication that opened it, so batch ingest at the
// broker still joins a real publication trace.
func (n *WebhookNotifier) addToBatch(sc obs.SpanContext, subID, callback string, latest int64, results []ResultObject) {
	key := batchKey{subID: subID, callback: callback}
	n.batchMu.Lock()
	if n.batchClosed {
		n.batchMu.Unlock()
		n.stats.Dropped.Add(1)
		return
	}
	b, ok := n.batches[key]
	if !ok {
		b = &pendingBatch{span: sc}
		b.timer = time.AfterFunc(n.batchWindow, func() { n.flushBatch(key) })
		n.batches[key] = b
	} else {
		n.stats.Coalesced.Add(1)
	}
	if latest > b.latest {
		b.latest = latest
	}
	b.results = append(b.results, results...)
	n.batchMu.Unlock()
}

// flushBatch turns a bucket into one queued delivery: the pushed results it
// collected, or for a PULL-only bucket just the (latest-wins) timestamp.
func (n *WebhookNotifier) flushBatch(key batchKey) {
	n.batchMu.Lock()
	b, ok := n.batches[key]
	if !ok {
		n.batchMu.Unlock()
		return
	}
	delete(n.batches, key)
	n.batchMu.Unlock()

	n.enqueue(queueItem{
		callback: key.callback,
		payload:  NotificationPayload{SubscriptionID: key.subID, LatestNS: b.latest, Results: b.results},
		span:     b.span,
	})
}

// flushAllBatches drains every pending bucket immediately (shutdown path).
func (n *WebhookNotifier) flushAllBatches() {
	n.batchMu.Lock()
	keys := make([]batchKey, 0, len(n.batches))
	for key, b := range n.batches {
		b.timer.Stop()
		keys = append(keys, key)
	}
	n.batchMu.Unlock()
	for _, key := range keys {
		n.flushBatch(key)
	}
}

func (n *WebhookNotifier) enqueue(item queueItem) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		// A flush racing shutdown lands here; the notification is shed,
		// not silently vanished.
		n.stats.Dropped.Add(1)
		return
	}
	select {
	case n.queue <- item:
	default:
		n.stats.Dropped.Add(1)
	}
}

// requeue puts a failed item back for another attempt; when the queue is
// full or the notifier is shutting down the notification is lost instead.
func (n *WebhookNotifier) requeue(item queueItem) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		n.stats.Lost.Add(1)
		return
	}
	select {
	case n.queue <- item:
		n.stats.Redelivered.Add(1)
	default:
		n.stats.Lost.Add(1)
	}
}

// isClosed reports whether Close has begun (workers skip backoff sleeps so
// shutdown drains promptly).
func (n *WebhookNotifier) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// Stats returns the notifier's delivery tallies.
func (n *WebhookNotifier) Stats() *NotifierStats { return n.stats }

// Close flushes any pending batches, stops accepting notifications, drains
// the queue (redeliveries pending at shutdown are counted lost rather than
// retried) and waits for the workers to finish. Batch intake is closed
// before the final flush, so a Notify racing Close either lands in a batch
// that gets flushed here or is counted as dropped — never parked in a
// bucket whose timer outlives the notifier.
func (n *WebhookNotifier) Close() {
	n.batchMu.Lock()
	n.batchClosed = true
	n.batchMu.Unlock()
	n.flushAllBatches()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.queue)
	n.mu.Unlock()
	n.wg.Wait()
}

func (n *WebhookNotifier) worker() {
	defer n.wg.Done()
	for item := range n.queue {
		ctx := obs.ContextWithSpan(context.Background(), item.span)
		post := time.Now()
		err := httpx.DoJSONContext(ctx, n.client, http.MethodPost, item.callback, item.payload, nil)
		n.stages.Observe(ctx, span.StageWebhook, span.OutcomeNone, time.Since(post))
		if err == nil {
			n.stats.Delivered.Add(1)
			continue
		}
		n.stats.Failed.Add(1)
		item.attempts++
		if item.attempts >= n.maxAttempts {
			if next, ok := n.reroute(&item); ok {
				n.logger.WarnContext(ctx, "webhook callback dead; rerouting to re-resolved broker",
					"callback", item.callback,
					"new_callback", next,
					"subscription_id", item.payload.SubscriptionID,
					"attempts", item.attempts,
					"error", err)
				item.callback = next
				item.attempts = 0
				item.rerouted = true
				n.stats.Rerouted.Add(1)
				n.requeue(item)
				continue
			}
			n.stats.Lost.Add(1)
			n.stats.Abandoned.Add(1)
			n.logger.WarnContext(ctx, "webhook delivery abandoned",
				"callback", item.callback,
				"subscription_id", item.payload.SubscriptionID,
				"attempts", item.attempts,
				"error", err)
			continue
		}
		n.logger.WarnContext(ctx, "webhook delivery failed; redelivering",
			"callback", item.callback,
			"subscription_id", item.payload.SubscriptionID,
			"attempt", item.attempts,
			"error", err)
		if !n.isClosed() {
			_ = n.sleep(ctx, n.backoff(item.attempts))
		}
		n.requeue(item)
	}
}

// reroute asks the resolver (if any) for a live replacement callback once
// per item. It reports the replacement and whether the item should retry
// there instead of being abandoned.
func (n *WebhookNotifier) reroute(item *queueItem) (string, bool) {
	if n.resolver == nil || item.rerouted {
		return "", false
	}
	next, err := n.resolver(item.callback)
	if err != nil || next == "" || next == item.callback {
		return "", false
	}
	return next, true
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
