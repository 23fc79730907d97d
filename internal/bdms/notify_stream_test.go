package bdms_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/faults"
	"gobad/internal/httpx"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
	"gobad/internal/wsock"
)

// arrival is one envelope as a receiver saw it: how it came ("POST" or
// "WS"), its entries and its traceparent.
type arrival struct {
	via     string
	entries []bdms.NotificationPayload
	tp      string
}

// streamReceiver is a callback endpoint that speaks both transports as a
// broker does: a POST is answered with the upgrade offer, a GET is upgraded
// to a callback stream whose envelope frames are answered one at a time.
// Every envelope is reported on arrived and answered with what answer
// returns (nil answers {}). Served on a KillableListener, so a test can
// cut every connection, streams included, and serve again on the address.
type streamReceiver struct {
	t       testing.TB
	addr    string
	arrived chan arrival
	answer  func(arrival) bdms.CallbackResponse
	// refuse answers the upgrade 405, as a receiver without streams would.
	refuse bool

	gets    atomic.Int32 // upgrade requests
	mu      sync.Mutex
	kl      *faults.KillableListener
	srv     *http.Server
	streams sync.WaitGroup   // stream read loops running
	opened  chan *wsock.Conn // every stream, as it opens
}

func newStreamReceiver(t testing.TB) *streamReceiver {
	t.Helper()
	r := &streamReceiver{t: t, arrived: make(chan arrival, 64), opened: make(chan *wsock.Conn, 16)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = ln.Addr().String()
	r.serve(ln)
	t.Cleanup(func() { r.kill(); r.streams.Wait() })
	return r
}

func (r *streamReceiver) URL() string { return "http://" + r.addr + "/v1/callbacks/results" }

func (r *streamReceiver) serve(ln net.Listener) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kl = faults.NewKillableListener(ln)
	r.srv = &http.Server{Handler: http.HandlerFunc(r.handle)}
	go func() { _ = r.srv.Serve(r.kl) }()
}

// kill severs the receiver at once, open streams included.
func (r *streamReceiver) kill() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kl.Kill()
	_ = r.srv.Close()
}

// restart serves again on the address a kill freed.
func (r *streamReceiver) restart() {
	ln, err := net.Listen("tcp", r.addr)
	if err != nil {
		r.t.Fatal(err)
	}
	r.serve(ln)
}

func (r *streamReceiver) respond(a arrival) bdms.CallbackResponse {
	r.arrived <- a
	if r.answer == nil {
		return bdms.CallbackResponse{}
	}
	return r.answer(a)
}

func (r *streamReceiver) handle(w http.ResponseWriter, req *http.Request) {
	if req.Method == http.MethodPost {
		entries, err := bdms.ReadCallback(req)
		if err != nil {
			httpx.WriteReadError(w, err)
			return
		}
		bdms.OfferStream(w.Header())
		httpx.WriteJSON(w, http.StatusOK, r.respond(arrival{"POST", entries, req.Header.Get(obs.TraceparentHeader)}))
		return
	}
	r.gets.Add(1)
	if r.refuse {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	conn, err := wsock.Upgrade(w, req)
	if err != nil {
		return
	}
	r.streams.Add(1)
	defer r.streams.Done()
	defer conn.Close()
	r.opened <- conn
	for {
		_, msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		entries, id, tp, err := bdms.ParseEnvelopeFrame(msg)
		if err != nil {
			r.t.Errorf("envelope frame %q: %v", msg, err)
			return
		}
		if conn.WriteMessage(wsock.OpText, bdms.AppendCallbackReply(nil, r.respond(arrival{"WS", entries, tp}), id)) != nil {
			return
		}
	}
}

// next waits for the next envelope.
func (r *streamReceiver) next(t testing.TB) arrival {
	t.Helper()
	select {
	case a := <-r.arrived:
		return a
	case <-time.After(5 * time.Second):
		t.Fatal("no envelope reached the receiver")
		return arrival{}
	}
}

func subsOf(a arrival) []string {
	var ids []string
	for _, e := range a.entries {
		ids = append(ids, e.SubscriptionID)
	}
	return ids
}

// TestWebhookStreamCarriesEnvelopes: a callback that offers the stream gets
// its first envelope by POST and every later one as a frame on one stream,
// under the originating trace, each observed in both delivery stages and
// counted by transport; Close closes the stream.
func TestWebhookStreamCarriesEnvelopes(t *testing.T) {
	r := newStreamReceiver(t)
	stages := span.NewStages(0, nil)
	stats := &bdms.NotifierStats{}
	n := bdms.NewWebhookNotifier(1, 16, nil, bdms.WithNotifierStages(stages), bdms.WithNotifierStats(stats))
	origin := obs.NewSpan()
	ctx := obs.ContextWithSpan(context.Background(), origin)
	const k = 6
	for i := 0; i < k; i++ {
		n.NotifyPushContext(ctx, fmt.Sprintf("sub-%d", i), r.URL(), pushObj(fmt.Sprintf("r%d", i), time.Duration(i+1)*time.Second))
		a := r.next(t)
		want := "WS"
		if i == 0 {
			want = "POST"
		}
		if a.via != want || len(a.entries) != 1 || a.entries[0].SubscriptionID != fmt.Sprintf("sub-%d", i) || len(a.entries[0].Results) != 1 {
			t.Fatalf("envelope %d = %+v, want sub-%d with its result by %s", i, a, i, want)
		}
		if sc, ok := obs.ParseTraceparent(a.tp); !ok || sc.TraceIDString() != origin.TraceIDString() {
			t.Errorf("envelope %d carried traceparent %q, want one of trace %s", i, a.tp, origin.TraceIDString())
		}
		waitFor(t, "the delivery", func() bool { return stats.Delivered.Load() == uint64(i+1) })
	}
	if got := r.gets.Load(); got != 1 {
		t.Errorf("receiver saw %d upgrades, want 1: one stream for every envelope", got)
	}
	if stats.Posts.Load() != 1 || stats.Streamed.Load() != k-1 || stats.Entries.Load() != k || stats.Failed.Load() != 0 {
		t.Errorf("posts %d streamed %d entries %d failed %d, want 1/%d/%d/0",
			stats.Posts.Load(), stats.Streamed.Load(), stats.Entries.Load(), stats.Failed.Load(), k-1, k)
	}
	for _, stage := range []string{span.StageWebhookQueue, span.StageWebhook} {
		if got := stages.Histogram().With(stage, span.OutcomeNone).Snapshot().Count; got != k {
			t.Errorf("stage %s observed %d times, want %d: once per envelope on either transport", stage, got, k)
		}
	}
	byTransport := map[string]float64{}
	stats.Collector().Collect(func(f obs.Family) {
		if f.Name == "bad_webhook_envelopes_total" {
			for _, p := range f.Points {
				byTransport[p.Labels[0].Value] = p.Value
			}
		}
	})
	if byTransport["post"] != 1 || byTransport["stream"] != k-1 {
		t.Errorf("bad_webhook_envelopes_total = %v, want post 1, stream %d", byTransport, k-1)
	}
	n.Close()
	done := make(chan struct{})
	go func() { r.streams.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the stream open")
	}
}

// TestWebhookStreamRedeliversOnlyRefused: entries the callback refuses in a
// stream answer come back alone, in a later frame; the others are
// delivered once.
func TestWebhookStreamRedeliversOnlyRefused(t *testing.T) {
	r := newStreamReceiver(t)
	hold := make(chan struct{})
	refused := false
	r.answer = func(a arrival) bdms.CallbackResponse {
		switch {
		case a.entries[0].SubscriptionID == "gate":
			<-hold
		case !refused && a.via == "WS" && len(a.entries) == 3:
			refused = true
			return bdms.CallbackResponse{Failed: []bdms.FailedEntry{{SubscriptionID: "sub-b", Code: httpx.CodeInternal}}}
		}
		return bdms.CallbackResponse{}
	}
	n := bdms.NewWebhookNotifier(1, 16, nil, bdms.WithNotifierSleep(func(context.Context, time.Duration) error { return nil }))
	defer n.Close()
	ctx := context.Background()
	n.NotifyContext(ctx, "gate", r.URL(), time.Second)
	r.next(t)
	for i, sub := range []string{"sub-a", "sub-b", "sub-c"} {
		n.NotifyContext(ctx, sub, r.URL(), time.Duration(i+2)*time.Second)
	}
	close(hold)
	got := [][]string{subsOf(r.next(t)), subsOf(r.next(t))}
	if want := [][]string{{"sub-a", "sub-b", "sub-c"}, {"sub-b"}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("stream frames carried %v, want %v", got, want)
	}
	s := n.Stats()
	waitFor(t, "the redelivery", func() bool { return s.Delivered.Load() == 4 })
	if s.Failed.Load() != 1 || s.Redelivered.Load() != 1 || s.Posts.Load() != 1 || s.Streamed.Load() != 2 {
		t.Errorf("failed %d redelivered %d posts %d streamed %d, want 1/1/1/2",
			s.Failed.Load(), s.Redelivered.Load(), s.Posts.Load(), s.Streamed.Load())
	}
}

// TestWebhookStreamKilledMidEnvelope: a callback killed with an envelope
// on its stream — frame read, no answer — fails that envelope as a failed
// POST would; while it is down a retry dials in vain and falls back to a
// POST in the same attempt; once it serves again it is redialled. Every
// notification arrives, and only the killed envelope's twice.
func TestWebhookStreamKilledMidEnvelope(t *testing.T) {
	r := newStreamReceiver(t)
	killed := make(chan struct{})
	r.answer = func(a arrival) bdms.CallbackResponse {
		if a.entries[0].SubscriptionID == "sub-2" && a.via == "WS" && r.gets.Load() == 1 {
			<-killed // the test kills the receiver: this answer goes nowhere
		}
		return bdms.CallbackResponse{}
	}
	backoff := &gatedSleep{entered: make(chan struct{}, 1), leave: make(chan struct{})}
	n := bdms.NewWebhookNotifier(1, 16, &http.Client{Timeout: 5 * time.Second}, bdms.WithNotifierSleep(backoff.sleep))
	defer n.Close()
	ctx := context.Background()
	seen := map[string]int{}
	note := func(a arrival) {
		for _, e := range a.entries {
			seen[fmt.Sprintf("%s@%d", e.SubscriptionID, e.LatestNS)]++
		}
	}
	for i := 0; i < 2; i++ {
		n.NotifyContext(ctx, fmt.Sprintf("sub-%d", i), r.URL(), time.Second)
		note(r.next(t))
	}
	n.NotifyContext(ctx, "sub-2", r.URL(), time.Second)
	note(r.next(t))
	r.kill()
	close(killed)
	<-backoff.entered // the envelope failed: out for its backoff
	backoff.leave <- struct{}{}
	<-backoff.entered // and again: no stream, and the POST in its place was refused
	s := n.Stats()
	if s.Failed.Load() != 2 || s.Posts.Load() != 2 {
		t.Errorf("while down: failed %d posts %d, want 2 (the killed frame, the refused dial and POST) and 2", s.Failed.Load(), s.Posts.Load())
	}
	r.restart()
	backoff.leave <- struct{}{}
	a := r.next(t)
	note(a)
	if a.via != "WS" || r.gets.Load() != 2 {
		t.Errorf("redelivery came by %s after %d upgrades, want a frame on a redialled stream (2)", a.via, r.gets.Load())
	}
	n.NotifyContext(ctx, "sub-3", r.URL(), time.Second)
	note(r.next(t))
	waitFor(t, "every delivery", func() bool { return s.Delivered.Load() == 4 })
	want := map[string]int{"sub-0@1000000000": 1, "sub-1@1000000000": 1, "sub-2@1000000000": 2, "sub-3@1000000000": 1}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("arrivals %v, want %v: all once, the killed envelope twice", seen, want)
	}
	if s.Lost.Load() != 0 || s.Redelivered.Load() != 2 {
		t.Errorf("lost %d redelivered %d, want 0/2", s.Lost.Load(), s.Redelivered.Load())
	}
}

// TestWebhookStreamClosedWhileIdle: a stream the callback closed between
// envelopes is not written to; the next envelope dials a fresh one within
// its attempt, and nothing is counted failed.
func TestWebhookStreamClosedWhileIdle(t *testing.T) {
	r := newStreamReceiver(t)
	n := bdms.NewWebhookNotifier(1, 16, nil, bdms.WithNotifierSleep(func(context.Context, time.Duration) error { return nil }))
	defer n.Close()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		n.NotifyContext(ctx, fmt.Sprintf("sub-%d", i), r.URL(), time.Second)
		r.next(t)
	}
	s := n.Stats()
	waitFor(t, "the frame's answer", func() bool { return s.Delivered.Load() == 2 })
	_ = (<-r.opened).Close()
	time.Sleep(50 * time.Millisecond) // the notifier's reader sees the close
	n.NotifyContext(ctx, "sub-2", r.URL(), time.Second)
	if a := r.next(t); a.via != "WS" {
		t.Errorf("envelope after the close came by %s, want a frame on a fresh stream", a.via)
	}
	waitFor(t, "the delivery", func() bool { return s.Delivered.Load() == 3 })
	if s.Failed.Load() != 0 || r.gets.Load() != 2 || s.Streamed.Load() != 2 {
		t.Errorf("failed %d upgrades %d streamed %d, want 0/2/2", s.Failed.Load(), r.gets.Load(), s.Streamed.Load())
	}
}

// TestWebhookStreamRefusedUpgradeKeepsPosting: a callback that offers the
// stream but answers the upgrade with anything but 101 is asked once and
// gets every envelope by POST, none failed.
func TestWebhookStreamRefusedUpgradeKeepsPosting(t *testing.T) {
	r := newStreamReceiver(t)
	r.refuse = true
	n := bdms.NewWebhookNotifier(1, 16, nil)
	defer n.Close()
	for i := 0; i < 4; i++ {
		n.NotifyContext(context.Background(), fmt.Sprintf("sub-%d", i), r.URL(), time.Second)
		if a := r.next(t); a.via != "POST" {
			t.Fatalf("envelope %d came by %s, want POST", i, a.via)
		}
	}
	s := n.Stats()
	waitFor(t, "every delivery", func() bool { return s.Delivered.Load() == 4 })
	if r.gets.Load() != 1 || s.Posts.Load() != 4 || s.Streamed.Load() != 0 || s.Failed.Load() != 0 {
		t.Errorf("upgrades %d posts %d streamed %d failed %d, want 1/4/0/0", r.gets.Load(), s.Posts.Load(), s.Streamed.Load(), s.Failed.Load())
	}
}

// TestWebhookPostOnlyReceiverNeverAsked: a callback that never offers the
// stream — the paper's WebHook — sees nothing but POSTs.
func TestWebhookPostOnlyReceiverNeverAsked(t *testing.T) {
	var others atomic.Int32
	cb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			others.Add(1)
		}
		httpx.WriteJSON(w, http.StatusOK, bdms.CallbackResponse{})
	}))
	defer cb.Close()
	n := bdms.NewWebhookNotifier(1, 16, cb.Client())
	defer n.Close()
	for i := 0; i < 3; i++ {
		n.NotifyContext(context.Background(), fmt.Sprintf("sub-%d", i), cb.URL, time.Second)
		waitFor(t, "the delivery", func() bool { return n.Stats().Delivered.Load() == uint64(i+1) })
	}
	if s := n.Stats(); others.Load() != 0 || s.Posts.Load() != 3 || s.Streamed.Load() != 0 {
		t.Errorf("other requests %d posts %d streamed %d, want 0/3/0", others.Load(), s.Posts.Load(), s.Streamed.Load())
	}
}

// TestWebhookStreamReroute: entries out of attempts at a dead stream's
// callback are rerouted to the callback the resolver names, which gets
// them on its own link.
func TestWebhookStreamReroute(t *testing.T) {
	dead, live := newStreamReceiver(t), newStreamReceiver(t)
	n := bdms.NewWebhookNotifier(1, 16, nil,
		bdms.WithNotifierSleep(func(context.Context, time.Duration) error { return nil }),
		bdms.WithNotifierMaxAttempts(2),
		bdms.WithNotifierResolver(func(string) (string, error) { return live.URL(), nil }))
	defer n.Close()
	ctx := context.Background()
	for i := 0; i < 2; i++ { // the POST, then a frame on the stream
		n.NotifyContext(ctx, "sub-1", dead.URL(), time.Duration(i+1)*time.Second)
		dead.next(t)
	}
	waitFor(t, "the stream delivery", func() bool { return n.Stats().Delivered.Load() == 2 })
	dead.kill()
	n.NotifyContext(ctx, "sub-1", dead.URL(), 3*time.Second)
	if a := live.next(t); a.via != "POST" || a.entries[0].LatestNS != int64(3*time.Second) {
		t.Errorf("rerouted envelope = %+v, want sub-1@3s by POST", a)
	}
	s := n.Stats()
	waitFor(t, "the rerouted delivery", func() bool { return s.Delivered.Load() == 3 })
	if s.Rerouted.Load() != 1 || s.Lost.Load() != 0 {
		t.Errorf("rerouted %d lost %d, want 1/0", s.Rerouted.Load(), s.Lost.Load())
	}
}

// BenchmarkWebhookExchange is one envelope of one PUSH entry, handed to the
// notifier and awaited at the receiver, by POST (the receiver refuses the
// stream) and as a frame on a kept stream: allocs/op and ns/op cover both
// sides of the loopback exchange. Each envelope is handed over once the one
// before it has arrived, so it leaves as that one's answer is read.
func BenchmarkWebhookExchange(b *testing.B) {
	for _, transport := range []string{"post", "stream"} {
		b.Run(transport, func(b *testing.B) {
			r := newStreamReceiver(b)
			r.refuse = transport == "post"
			n := bdms.NewWebhookNotifier(1, 16, nil)
			defer n.Close()
			ctx := context.Background()
			obj := pushObj("r", time.Second)
			n.NotifyPushContext(ctx, "sub-1", r.URL(), obj) // the POST that offers the stream
			r.next(b)
			delivered := n.Stats().Delivered.Load
			for delivered() != 1 {
				time.Sleep(time.Millisecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				obj.Timestamp = time.Duration(i+1) * time.Second
				n.NotifyPushContext(ctx, "sub-1", r.URL(), obj)
				r.next(b)
			}
			for delivered() != uint64(b.N+1) {
				time.Sleep(time.Millisecond)
			}
			b.StopTimer()
			if s := n.Stats(); s.Entries.Load() != uint64(b.N+1) || (transport == "stream") != (s.Streamed.Load() == uint64(b.N)) {
				b.Fatalf("entries %d posts %d streamed %d, want one entry per envelope, each by %s", s.Entries.Load(), s.Posts.Load(), s.Streamed.Load(), transport)
			}
		})
	}
}
