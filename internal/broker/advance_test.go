package broker

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/faults"
	"gobad/internal/httpx"
)

// arrivalEnv is a broker whose cluster notifier is muted: alice subscribes,
// n results are produced at the cluster, and the test decides how (and
// whether) the broker hears about each one. Webhook arrivals are POSTed to
// the broker's real callback handler.
type arrivalEnv struct {
	t      *testing.T
	b      *Broker
	srv    *httptest.Server
	bs     *backendSub
	fs     string
	r      []bdms.ResultObject // the n results, oldest first
	pushes atomic.Int32        // notifications pushed to alice
}

func newArrivalEnv(t *testing.T, n int) *arrivalEnv {
	t.Helper()
	te := newTestEnv(t, core.LSC{}, 1<<30)
	e := &arrivalEnv{t: t, b: te.broker}
	te.broker = nil // mutes the notifier
	e.b.SetPushFunc(func(string, PushNotification) bool { e.pushes.Add(1); return true })
	e.srv = httptest.NewServer(NewServer(e.b).Handler())
	t.Cleanup(e.srv.Close)
	var err error
	if e.fs, err = e.b.Subscribe("alice", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	e.bs = e.b.backendSubs[subKey("Alerts", []any{"fire"})]
	for i := 0; i < n; i++ {
		te.publish(t, "fire", float64(i))
	}
	if e.r, err = te.cluster.Results(e.bs.id, 0, te.clk.Now(), true); err != nil || len(e.r) != n {
		t.Fatalf("cluster holds %d results (err %v), want %d", len(e.r), err, n)
	}
	return e
}

// post sends one callback body — an envelope of one, unless it carries
// more — and reports what the handler refused, as an error.
func (e *arrivalEnv) post(body any) error {
	var resp bdms.CallbackResponse
	if err := httpx.DoJSON(e.srv.Client(), http.MethodPost, e.srv.URL+"/v1/callbacks/results", body, &resp); err != nil {
		return err
	}
	if len(resp.Failed) > 0 {
		return fmt.Errorf("callback refused %+v", resp.Failed)
	}
	return nil
}

func (e *arrivalEnv) must(err error) {
	if err != nil {
		e.t.Error(err)
	}
}

// pull sends one PULL notification per index.
func (e *arrivalEnv) pull(idx ...int) {
	for _, i := range idx {
		e.must(e.post(bdms.NotificationPayload{SubscriptionID: e.bs.id, LatestNS: int64(e.r[i].Timestamp)}))
	}
}

// push sends r[lo:hi], stamped, as one PUSH notification, in a seeded
// random order.
func (e *arrivalEnv) push(seed int64, lo, hi int) { e.pushAll(seed, e.stamped(lo, hi)) }

// pushAll sends rs, shuffled, as one PUSH notification for the newest of
// them.
func (e *arrivalEnv) pushAll(seed int64, rs []bdms.ResultObject) {
	latest := rs[0].Timestamp
	for _, r := range rs {
		latest = max(latest, r.Timestamp)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	e.must(e.post(bdms.NotificationPayload{SubscriptionID: e.bs.id, LatestNS: int64(latest), Results: rs}))
}

// stamped is r[lo:hi] as the cluster pushes them: each naming its
// predecessor, r[0] none (the subscription's first result).
func (e *arrivalEnv) stamped(lo, hi int) []bdms.ResultObject {
	var prev time.Duration
	if lo > 0 {
		prev = e.r[lo-1].Timestamp
	}
	return stamp(prev, e.r[lo:hi])
}

// pulls runs fn against a counting backend and requires it to have called
// the cluster for results want times.
func (e *arrivalEnv) pulls(want int64, fn func()) {
	e.t.Helper()
	counted := faults.Count(e.b.backend)
	e.b.backend = counted
	fn()
	if got := counted.ResultFetches(); got != want {
		e.t.Errorf("backend pulls = %d, want %d", got, want)
	}
}

// entry is one envelope entry for the env's subscription: a PULL for
// r[hi-1], or with push the results r[lo:hi] themselves, stamped.
func (e *arrivalEnv) entry(push bool, lo, hi int) bdms.NotificationPayload {
	p := bdms.NotificationPayload{SubscriptionID: e.bs.id, LatestNS: int64(e.r[hi-1].Timestamp)}
	if push {
		p.Results = e.stamped(lo, hi)
	}
	return p
}

// envelope sends entries as one callback POST and returns the subscriptions
// the handler reports failed (by a failed pull: no row names an unknown one).
func (e *arrivalEnv) envelope(entries ...bdms.NotificationPayload) []string {
	body := entries[0]
	body.More = entries[1:]
	var resp bdms.CallbackResponse
	e.must(httpx.DoJSON(e.srv.Client(), http.MethodPost, e.srv.URL+"/v1/callbacks/results", body, &resp))
	failed := make([]string, len(resp.Failed))
	for i, f := range resp.Failed {
		if failed[i] = f.SubscriptionID; f.Code != httpx.CodeInternal {
			e.t.Errorf("failed entry %+v, want code internal (a failed pull)", f)
		}
	}
	return failed
}

func (e *arrivalEnv) resume() {
	_, err := e.b.SubscribeResume(context.Background(), "alice", "Alerts", []any{"fire"}, 0)
	e.must(err)
}

func (e *arrivalEnv) marker() time.Duration {
	e.b.mu.Lock()
	defer e.b.mu.Unlock()
	return e.bs.bts
}

// check asserts what every arrival route must leave behind: all n results
// cached once, oldest first, the marker on the newest, VolumeBytes counting
// every object but the first warm (shipped in a warm snapshot).
func (e *arrivalEnv) check(warm int) {
	e.t.Helper()
	if got, want := e.marker(), e.r[len(e.r)-1].Timestamp; got != want {
		e.t.Errorf("backend marker = %v, want %v", got, want)
	}
	objs, _ := e.b.Manager().Peek(e.bs.id, 0, e.marker(), true)
	if len(objs) != len(e.r) {
		e.t.Fatalf("cached %d objects, want %d", len(objs), len(e.r))
	}
	for i, o := range objs {
		if o.ID != e.r[i].ID {
			e.t.Errorf("cached[%d] = %s, want %s (each result once, oldest first)", i, o.ID, e.r[i].ID)
		}
	}
	if got, want := e.b.Stats().VolumeBytes.Value(), bytesOf(e.r[warm:]); got != want {
		e.t.Errorf("VolumeBytes = %v, want %v", got, want)
	}
}

func bytesOf(rs []bdms.ResultObject) float64 {
	var n int64
	for _, r := range rs {
		n += r.Size
	}
	return float64(n)
}

// TestArrivalRoutesAreEquivalent: the same six results reach one backend
// subscription by every route the broker has, and the cache, the marker,
// the byte accounting and the subscriber's retrieval cannot tell which.
// Pushes — each result naming its predecessor, as the cluster stamps them,
// the first result none — make no call to the cluster once the marker has
// reached the predecessor of the oldest; everything they cannot prove
// pulls its gap once.
func TestArrivalRoutesAreEquivalent(t *testing.T) {
	type env = *arrivalEnv
	routes := []struct {
		name string
		run  func(e env)
		// warm counts the oldest results shipped warm (outside VolumeBytes),
		// pulled the results the broker had to fetch (FetchBytes; every
		// result is the same size), pushes the notifications alice gets.
		warm, pulled, pushes int
	}{
		{"six pulls", func(e env) { e.pull(0, 1, 2, 3, 4, 5) }, 0, 6, 6},
		{"one pull for the newest", func(e env) { e.pull(5) }, 0, 6, 1},
		{"one shuffled pushed batch", func(e env) { e.pulls(0, func() { e.push(7, 0, 6) }) }, 0, 0, 1},
		{"pushes 1, 4 and 6 only", func(e env) { // shed pushes become gap pulls
			e.push(0, 0, 1)
			e.push(0, 3, 4)
			e.push(0, 5, 6)
		}, 0, 3, 3},
		{"resume backfill", env.resume, 0, 6, 1},
		{"warm 1-3 then a pull for 6", func(e env) {
			entry := bdms.CacheWarmEntry{FabricKey: e.bs.fkey, BTSNS: int64(e.r[2].Timestamp),
				Objects: e.r[:3]}
			resp := e.b.InstallWarmup(context.Background(), bdms.CacheSnapshot{Version: bdms.CacheSnapshotVersion,
				TakenUnixNS: time.Now().UnixNano(), Entries: []bdms.CacheWarmEntry{entry}})
			if loaded := e.b.WarmupStats().ObjectsLoaded.Value(); resp.Applied != 1 || loaded != 3 {
				e.t.Errorf("warm intake = %+v with %v objects loaded, want 1 applied, 3 loaded", resp, loaded)
			}
			e.pull(5)
		}, 3, 3, 1},
		// A cluster from before the "results"-only wire form: the unknown
		// "result" field is ignored and the notification is the PULL its
		// latest_ns already is — one extra fetch, nothing lost.
		{"old-shape body with result", func(e env) {
			e.must(e.post(map[string]any{"subscription_id": e.bs.id, "latest_ns": e.r[5].Timestamp, "result": e.r[5]}))
		}, 0, 6, 1},
		// A failed cluster pull is answered as a refused entry (internal, not
		// the not_found of an unknown subscription) and leaves the marker
		// behind; the redelivery, and a duplicate of it, admit the range
		// exactly once.
		{"failed pull, then redeliveries", func(e env) {
			e.b.backend = faults.WrapBackend(faults.NewInjector(faults.Plan{Rules: []faults.Rule{
				{Target: "cluster.results", Kind: faults.KindError, FromCall: 1, ToCall: 1},
			}}), "cluster", e.b.backend)
			if failed := e.envelope(e.entry(false, 5, 6)); len(failed) != 1 || failed[0] != e.bs.id {
				e.t.Errorf("failed pull refused %v, want %s", failed, e.bs.id)
			}
			if m := e.marker(); m != 0 {
				e.t.Errorf("failed pull moved the marker to %v", m)
			}
			e.pull(5, 5)
		}, 0, 6, 1},
		// Envelopes: one POST, one entry per notification, each handled as
		// that notification alone would be.
		{"envelope of six pull entries", func(e env) {
			var entries []bdms.NotificationPayload
			for i := range e.r {
				entries = append(entries, e.entry(false, i, i+1))
			}
			e.envelope(entries...)
		}, 0, 6, 6},
		{"envelope of pushes 1, 4 and 6 with gaps", func(e env) {
			e.envelope(e.entry(true, 0, 1), e.entry(true, 3, 4), e.entry(true, 5, 6))
		}, 0, 3, 3},
		// Stamped pushes. The first result names no predecessor: nothing
		// precedes it, so nothing is asked of the cluster.
		{"stamped single pushes", func(e env) {
			e.pulls(0, func() {
				for i := range e.r {
					e.push(0, i, i+1)
				}
			})
		}, 0, 0, 6},
		{"stamped single pushes after the first", func(e env) {
			e.pull(0)
			e.pulls(0, func() {
				for i := 1; i < len(e.r); i++ {
					e.push(0, i, i+1)
				}
			})
		}, 0, 1, 6},
		{"stamped pushes merged in one entry", func(e env) { // as the outbox merges them, shuffled
			e.pull(0)
			e.pulls(0, func() { e.push(3, 1, 6) })
		}, 0, 1, 2},
		{"stamped entries in one envelope", func(e env) {
			e.pull(0)
			e.pulls(0, func() { e.envelope(e.entry(true, 1, 3), e.entry(true, 3, 6)) })
		}, 0, 1, 3},
		// What a stamped push cannot prove is pulled, once.
		{"stamped pushes around one shed at intake", func(e env) {
			e.pull(0)
			e.pulls(1, func() {
				for _, i := range []int{1, 2, 4, 5} { // r[3]'s notification was shed
					e.push(0, i, i+1)
				}
			})
		}, 0, 2, 5},
		{"stamped entry with a hole in the middle", func(e env) {
			e.pull(0)
			e.pulls(1, func() { // r[4] names r[3], which is not there: r[1:4] is pulled
				e.pushAll(5, append(e.stamped(1, 3), e.stamped(4, 6)...))
			})
		}, 0, 4, 2},
		{"stamped entry beside a handle-only one past the byte budget", func(e env) {
			e.pull(0)
			e.pulls(1, func() { // the notifier shed the objects of r[3:6]: the handle pulls them
				e.envelope(e.entry(true, 1, 3), e.entry(false, 3, 6))
			})
		}, 0, 4, 3},
		{"envelope whose pulls fail, then its redelivery", func(e env) {
			e.b.backend = faults.WrapBackend(faults.NewInjector(faults.Plan{Rules: []faults.Rule{
				{Target: "cluster.results", Kind: faults.KindError, FromCall: 1, ToCall: 2},
			}}), "cluster", e.b.backend)
			entries := []bdms.NotificationPayload{e.entry(false, 0, 3), e.entry(false, 0, 6)}
			if failed := e.envelope(entries...); len(failed) != 2 {
				t.Errorf("failed entries = %v, want both: neither holds anything without its range", failed)
			}
			if m := e.marker(); m != 0 {
				t.Errorf("failed pulls moved the marker to %v", m)
			}
			if failed := e.envelope(entries...); len(failed) != 0 {
				t.Errorf("redelivery failed entries %v", failed)
			}
		}, 0, 6, 2},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			e := newArrivalEnv(t, 6)
			rt.run(e)
			e.check(rt.warm)
			if got, want := e.b.Stats().FetchBytes.Value(), bytesOf(e.r[:rt.pulled]); got != want {
				t.Errorf("FetchBytes = %v, want %v (%d results pulled)", got, want, rt.pulled)
			}
			if got := int(e.pushes.Load()); got != rt.pushes {
				t.Errorf("alice was pushed %d notifications, want %d", got, rt.pushes)
			}
			ret, err := e.b.RetrieveContext(context.Background(), "alice", e.fs, 0)
			if err != nil || len(ret.Items) != 6 || ret.Latest != e.r[5].Timestamp {
				t.Fatalf("retrieval = %+v, %v; want six results up to %v", ret, err, e.r[5].Timestamp)
			}
			for i, it := range ret.Items {
				if it.ID != e.r[i].ID || !it.FromCache {
					t.Errorf("item %d = %s (from cache %v), want %s from the cache", i, it.ID, it.FromCache, e.r[i].ID)
				}
			}
		})
	}
}

// TestConcurrentArrivals races every arrival route on one backend
// subscription: whatever the interleaving, each object is cached exactly
// once, in timestamp order, and counted once.
func TestConcurrentArrivals(t *testing.T) {
	const n = 240
	e := newArrivalEnv(t, n)
	routes := []func(i int){
		func(i int) { e.pull(i) },
		func(i int) { e.push(0, i, i+1) },
		func(i int) { // overlapping windows, each shuffled
			if i%8 == 0 && i+16 <= n {
				e.push(int64(i), i, i+16)
			}
		},
		func(i int) {
			if i%30 == 0 {
				e.resume()
			}
		},
		func(i int) { // overlapping envelopes: pulls and a gapped push
			if i%6 == 0 && i+12 <= n {
				e.envelope(e.entry(false, i, i+4), e.entry(true, i+6, i+8), e.entry(false, i, i+12))
			}
		},
		func(i int) { // overlapping envelopes of stamped entries, one with a hole
			if i%7 == 0 && i+12 <= n {
				second := e.entry(true, i+4, i+12)
				second.Results = append(e.stamped(i+4, i+6), e.stamped(i+7, i+12)...)
				e.envelope(e.entry(true, i, i+4), second)
			}
		},
	}
	var wg sync.WaitGroup
	for _, route := range routes {
		wg.Add(1)
		go func(route func(int)) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				route(i)
			}
		}(route)
	}
	wg.Wait()
	e.check(0)
}

// envelopeEnv is a broker holding one backend subscription per etype, each
// with one result at the cluster and none at the broker; the cluster's own
// notifier is muted.
type envelopeEnv struct {
	te      *testEnv
	b       *Broker
	counted *faults.CountingBackend
	subs    []*backendSub
	latest  []time.Duration
	pushes  atomic.Int32
}

func newEnvelopeEnv(t testing.TB, etypes ...string) *envelopeEnv {
	t.Helper()
	te := newTestEnv(t, core.LSC{}, 1<<30)
	e := &envelopeEnv{te: te, b: te.broker}
	te.broker = nil // mutes the notifier
	e.counted = faults.Count(e.b.backend)
	e.b.backend = e.counted
	e.b.SetPushFunc(func(string, PushNotification) bool { e.pushes.Add(1); return true })
	for _, etype := range etypes {
		if _, err := e.b.Subscribe("alice", "Alerts", []any{etype}); err != nil {
			t.Fatal(err)
		}
		e.subs = append(e.subs, e.b.backendSubs[subKey("Alerts", []any{etype})])
		te.publish(t, etype, 1)
		e.latest = append(e.latest, te.clk.Now())
	}
	return e
}

// checkMarkers asserts which subscriptions advanced to their result.
func (e *envelopeEnv) checkMarkers(t *testing.T, advanced func(i int) bool) {
	t.Helper()
	e.b.mu.Lock()
	defer e.b.mu.Unlock()
	for i, bs := range e.subs {
		want := time.Duration(0)
		if advanced(i) {
			want = e.latest[i]
		}
		if bs.bts != want {
			t.Errorf("marker of subscription %d (%s) = %v, want %v", i, bs.id, bs.bts, want)
		}
	}
}

// TestEnvelopeRedeliversOnlyFailedEntries drives the real notifier against
// the real callback handler. An envelope carrying two good entries, one for
// a subscription the broker does not hold and a handle-only one whose range
// the cluster refuses is answered per entry: the good ones advance once,
// and only the other two are redelivered — as a pair, until their budget is
// spent.
func TestEnvelopeRedeliversOnlyFailedEntries(t *testing.T) {
	e := newEnvelopeEnv(t, "gate", "fire", "flood", "quake")
	if err := e.te.cluster.Unsubscribe(e.subs[3].id); err != nil { // the cluster forgets "quake"
		t.Fatal(err)
	}
	var mu sync.Mutex
	var posts [][]string // the subscriptions of every POST's entries
	arrived, gate := make(chan struct{}), make(chan struct{})
	callback := NewServer(e.b).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost { // refuse the callback stream the broker offers: every envelope is a POST
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		raw, err := io.ReadAll(r.Body)
		var entries []bdms.NotificationPayload
		if err == nil {
			entries, err = bdms.ReadCallback(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(raw)))
		}
		if err != nil {
			t.Error(err)
		}
		var ids []string
		for _, entry := range entries {
			ids = append(ids, entry.SubscriptionID)
		}
		mu.Lock()
		posts = append(posts, ids)
		first := len(posts) == 1
		mu.Unlock()
		if first { // held open while the envelope gathers behind it
			close(arrived)
			<-gate
		}
		r.Body = io.NopCloser(bytes.NewReader(raw))
		callback.ServeHTTP(w, r)
	}))
	defer srv.Close()

	n := bdms.NewWebhookNotifier(2, 16, srv.Client(), bdms.WithNotifierMaxAttempts(2),
		bdms.WithNotifierSleep(func(context.Context, time.Duration) error { return nil }))
	ctx := context.Background()
	n.NotifyContext(ctx, e.subs[0].id, srv.URL+"/v1/callbacks/results", e.latest[0])
	<-arrived
	for i, id := range []string{e.subs[1].id, e.subs[2].id, "ghost", e.subs[3].id} {
		n.NotifyContext(ctx, id, srv.URL+"/v1/callbacks/results", e.latest[min(i+1, 3)])
	}
	close(gate)
	for deadline := time.Now().Add(5 * time.Second); n.Stats().Lost.Load() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	n.Close()

	pair := []string{"ghost", e.subs[3].id}
	want := [][]string{{e.subs[0].id}, {e.subs[1].id, e.subs[2].id, "ghost", e.subs[3].id}, pair}
	if !reflect.DeepEqual(posts, want) {
		t.Errorf("POSTs carried %v, want %v", posts, want)
	}
	e.checkMarkers(t, func(i int) bool { return i < 3 })
	if got := e.pushes.Load(); got != 3 {
		t.Errorf("alice was pushed %d notifications, want 3: each good entry once", got)
	}
	if got := e.counted.ResultFetches(); got != 5 {
		t.Errorf("backend pulls = %d, want 5: the gate's, fire's, flood's, quake's and the redelivered quake's", got)
	}
	s := n.Stats()
	if s.Delivered.Load() != 3 || s.Failed.Load() != 4 || s.Redelivered.Load() != 2 || s.Abandoned.Load() != 2 || s.Posts.Load() != 3 {
		t.Errorf("delivered %d failed %d redelivered %d abandoned %d posts %d, want 3/4/2/2/3",
			s.Delivered.Load(), s.Failed.Load(), s.Redelivered.Load(), s.Abandoned.Load(), s.Posts.Load())
	}
}
