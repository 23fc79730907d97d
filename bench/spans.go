package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gobad/internal/bdms"
)

// Outside-in tracing. Every span is recorded by the benchmark around a
// public seam of the program (an http.Handler, an http.RoundTripper, the
// bdms.Notifier and broker.Backend interfaces, the client calls the load
// generator makes); nothing inside the program is edited. Spans live in
// memory and are written out when the run ends.

// Span names; the self-time of each is printed as span.<name>_self_p50_ms.
const (
	spanPublishCall    = "publish.call"
	spanIngestHandler  = "bdms.ingest.handler"
	spanWebhookQueue   = "bdms.webhook.queue"
	spanCallback       = "broker.callback.handler"
	spanBackendPull    = "broker.backend.pull"
	spanPushFanout     = "broker.push.fanout"
	spanPoolWait       = "loadgen.pool_wait"
	spanGetResults     = "client.get_results"
	spanResultsHandler = "broker.results.handler"
	spanAckHandler     = "broker.ack.handler"
	// Not on the delivery path, timed for their own metrics.
	spanBdmsResults   = "bdms.results.handler"
	spanBdmsSubscribe = "bdms.subscribe.handler"
	spanClientGet     = "client.get"
	spanClientAck     = "client.ack"
)

// blockingPath lists the spans whose self-times add up to one delivery,
// from the publisher's call to the subscriber's ack.
var blockingPath = []string{
	spanPublishCall, spanIngestHandler, spanWebhookQueue, spanCallback,
	spanBackendPull, spanPushFanout, spanPoolWait, spanGetResults,
	spanResultsHandler, spanAckHandler,
}

type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Key is the delivery id "(backend_sub, latest_ns)" where the seam sees
	// one, else the frontend subscription or publication the span served.
	Key     string `json:"key,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type ctxKey struct{}

const spanHeader = "X-Bench-Span"

// tracer owns the span buffer and the seams' counters. Recording is
// switched on for the traced half of a traced run only; with it off every
// seam is a pass-through behind one atomic load.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []spanRec
	// notifyAt and callbackExit correlate the two ends of the webhook queue
	// and of the push fan-out by delivery id.
	notifyAt     map[string]time.Duration
	callbackExit map[string]time.Duration

	roundTrips    atomic.Int64
	wireBytes     atomic.Int64
	backendPulls  atomic.Int64
	resultsBytes  atomic.Int64
	resultsFetchs atomic.Int64
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{
		epoch:        epoch,
		notifyAt:     make(map[string]time.Duration),
		callbackExit: make(map[string]time.Duration),
	}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func deliveryKey(backendSub string, latestNS int64) string {
	return backendSub + "@" + strconv.FormatInt(latestNS, 10)
}

// add records one finished span and returns its id.
func (t *tracer) add(name, key string, parent int64, start, end time.Duration) int64 {
	id := t.reserve()
	t.addWithID(id, name, key, parent, start, end)
	return id
}

// reserve hands out an id before the span ends, so children can name it.
func (t *tracer) reserve() int64 { return t.ids.Add(1) }

func (t *tracer) addWithID(id int64, name, key string, parent int64, start, end time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Name: name, Key: key,
		StartNS: int64(start), EndNS: int64(end)})
	t.mu.Unlock()
}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(ctxKey{}).(int64)
	return id
}

// --- seam: http.Handler --------------------------------------------------

// route names the span a request belongs to, or "" for untraced routes.
type route func(r *http.Request) string

func clusterRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && strings.HasPrefix(p, "/v1/datasets/") &&
		(strings.HasSuffix(p, "/records") || strings.HasSuffix(p, "/records:batch")):
		return spanIngestHandler
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/subscriptions/") && strings.HasSuffix(p, "/results"):
		return spanBdmsResults
	case r.Method == http.MethodPost && p == "/v1/subscriptions":
		return spanBdmsSubscribe
	}
	return ""
}

func brokerRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/callbacks/results":
		return spanCallback
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/subscriptions/") && strings.HasSuffix(p, "/results"):
		return spanResultsHandler
	case r.Method == http.MethodPost && strings.HasPrefix(p, "/v1/subscriptions/") && strings.HasSuffix(p, "/ack"):
		return spanAckHandler
	}
	return ""
}

// subscriptionOf extracts {id} from /v1/subscriptions/{id}/...
func subscriptionOf(path string) string {
	rest := strings.TrimPrefix(path, "/v1/subscriptions/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i]
	}
	return rest
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// wrapHandler times the routes classify names. The span id travels down
// the request context, so a backend pull made while serving the request
// records this span as its parent.
func (t *tracer) wrapHandler(next http.Handler, classify route) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := ""
		if t.on.Load() {
			name = classify(r)
		}
		if name == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		id := t.reserve()
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		key := ""
		switch name {
		case spanCallback:
			// The webhook body names the delivery: it closes the webhook
			// queue span opened by the notifier seam.
			body, err := io.ReadAll(r.Body)
			if err == nil {
				r.Body = io.NopCloser(bytes.NewReader(body))
				var p bdms.NotificationPayload
				if json.Unmarshal(body, &p) == nil {
					key = deliveryKey(p.SubscriptionID, p.LatestNS)
				}
			}
			t.mu.Lock()
			queued, ok := t.notifyAt[key]
			delete(t.notifyAt, key)
			t.mu.Unlock()
			if ok {
				t.add(spanWebhookQueue, key, 0, queued, start)
			}
		case spanResultsHandler, spanAckHandler, spanBdmsResults:
			key = subscriptionOf(r.URL.Path)
		}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), id)))
		end := t.now()
		t.addWithID(id, name, key, parent, start, end)
		switch name {
		case spanCallback:
			t.mu.Lock()
			t.callbackExit[key] = end
			t.mu.Unlock()
		case spanBdmsResults:
			t.resultsBytes.Add(cw.n)
			t.resultsFetchs.Add(1)
		}
	})
}

// --- seam: bdms.Notifier -------------------------------------------------

// stampingNotifier stamps the moment the cluster hands a notification to
// the webhook notifier; the broker's callback handler seam stamps the
// other end.
type stampingNotifier struct {
	t     *tracer
	inner *bdms.WebhookNotifier
}

func (n stampingNotifier) Notify(subID, callback string, latest time.Duration) {
	n.NotifyContext(context.Background(), subID, callback, latest)
}

func (n stampingNotifier) NotifyContext(ctx context.Context, subID, callback string, latest time.Duration) {
	if n.t.on.Load() {
		at := n.t.now()
		n.t.mu.Lock()
		n.t.notifyAt[deliveryKey(subID, int64(latest))] = at
		n.t.mu.Unlock()
	}
	n.inner.NotifyContext(ctx, subID, callback, latest)
}

// --- seam: broker.Backend ------------------------------------------------

// timedBackend times every results pull the broker makes from the cluster.
type timedBackend struct {
	*bdms.Client
	t *tracer
}

func (b timedBackend) Results(subID string, from, to time.Duration, inclusiveTo bool) ([]bdms.ResultObject, error) {
	return b.ResultsContext(context.Background(), subID, from, to, inclusiveTo)
}

func (b timedBackend) ResultsContext(ctx context.Context, subID string, from, to time.Duration, inclusiveTo bool) ([]bdms.ResultObject, error) {
	if !b.t.on.Load() {
		return b.Client.ResultsContext(ctx, subID, from, to, inclusiveTo)
	}
	start := b.t.now()
	out, err := b.Client.ResultsContext(ctx, subID, from, to, inclusiveTo)
	b.t.add(spanBackendPull, subID, spanFrom(ctx), start, b.t.now())
	b.t.backendPulls.Add(1)
	return out, err
}

// --- seam: http.RoundTripper ---------------------------------------------

// countingTransport counts round trips and body bytes of one HTTP client
// of the stack; on the subscriber side it also times the GET and the ack.
type countingTransport struct {
	base http.RoundTripper
	t    *tracer
	// subscriber marks the transport client.GetResults uses.
	subscriber bool
}

type countingBody struct {
	io.ReadCloser
	done func(n int64)
	n    int64
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !c.t.on.Load() {
		return c.base.RoundTrip(req)
	}
	if id := spanFrom(req.Context()); id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	name := ""
	if c.subscriber {
		switch brokerRoute(req) {
		case spanResultsHandler:
			name = spanClientGet
		case spanAckHandler:
			name = spanClientAck
		}
	}
	start := c.t.now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	sent := req.ContentLength
	if sent < 0 {
		sent = 0
	}
	key := subscriptionOf(req.URL.Path)
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		c.t.roundTrips.Add(1)
		c.t.wireBytes.Add(sent + n)
		if name != "" {
			c.t.add(name, key, 0, start, c.t.now())
		}
	}}
	return resp, nil
}

// --- analysis ------------------------------------------------------------

// spanStats is what the traced run prints for one span name.
type spanStats struct {
	count             int
	p50, p99, selfP50 float64 // milliseconds
}

// analyse links client-side spans to the handler spans they caused (the
// client library builds its own request context, so the link is made
// afterwards: same subscription, handler interval inside the call — unique
// because the harness never runs two GetResults of one subscription at
// once), then computes duration and self-time percentiles per name.
func (t *tracer) analyse() (map[string]spanStats, []spanRec) {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()

	calls := make(map[string][]int) // key -> indices of client.get_results spans
	for i, s := range spans {
		if s.Name == spanGetResults {
			calls[s.Key] = append(calls[s.Key], i)
		}
	}
	for _, idx := range calls {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].StartNS < spans[idx[b]].StartNS })
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || (s.Name != spanResultsHandler && s.Name != spanAckHandler) {
			continue
		}
		idx := calls[s.Key]
		// Last call that started at or before the handler did.
		j := sort.Search(len(idx), func(k int) bool { return spans[idx[k]].StartNS > s.StartNS }) - 1
		if j >= 0 && spans[idx[j]].EndNS >= s.EndNS {
			s.Parent = spans[idx[j]].ID
		}
	}

	children := make(map[int64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	dur := make(map[string][]float64)
	self := make(map[string][]float64)
	for _, s := range spans {
		d := s.EndNS - s.StartNS
		if d < 0 {
			d = 0 // the push frame can be read before the callback handler returns
		}
		covered := coveredNS(spans, children[s.ID], s.StartNS, s.EndNS)
		dur[s.Name] = append(dur[s.Name], float64(d)/1e6)
		self[s.Name] = append(self[s.Name], float64(d-covered)/1e6)
	}
	out := make(map[string]spanStats, len(dur))
	for name, d := range dur {
		sort.Float64s(d)
		sf := self[name]
		sort.Float64s(sf)
		p99, _ := tailPercentile(d)
		out[name] = spanStats{count: len(d), p50: percentile(d, 0.5), p99: p99, selfP50: percentile(sf, 0.5)}
	}
	return out, spans
}

// coveredNS is the length of the union of the child intervals, clipped to
// [start, end]: the part of a span its children account for.
func coveredNS(spans []spanRec, kids []int, start, end int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].StartNS, spans[k].EndNS
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi int64
	hi = start
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			total += v.b - hi
			hi = v.b
		}
	}
	return total
}

// dump writes the spans as one JSON document.
func dumpSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
