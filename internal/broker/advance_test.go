package broker

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

// post sends one callback body and reports the handler's error, if any.
func (e *arrivalEnv) post(body any) error {
	return httpx.DoJSON(e.srv.Client(), http.MethodPost, e.srv.URL+"/v1/callbacks/results", body, nil)
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

// push sends r[lo:hi] as one PUSH notification, in a seeded random order.
func (e *arrivalEnv) push(seed int64, lo, hi int) {
	rs := append([]bdms.ResultObject(nil), e.r[lo:hi]...)
	rand.New(rand.NewSource(seed)).Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	e.must(e.post(bdms.NotificationPayload{SubscriptionID: e.bs.id, LatestNS: int64(e.r[hi-1].Timestamp), Results: rs}))
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
		{"six single pushes", func(e env) {
			for i := range e.r {
				e.push(0, i, i+1)
			}
		}, 0, 0, 6},
		{"one shuffled pushed batch", func(e env) { e.push(7, 0, 6) }, 0, 0, 1},
		{"pushes 1, 4 and 6 only", func(e env) { // shed pushes become gap pulls
			e.push(0, 0, 1)
			e.push(0, 3, 4)
			e.push(0, 5, 6)
		}, 0, 3, 3},
		{"resume backfill", env.resume, 0, 6, 1},
		{"warm 1-3 then a pull for 6", func(e env) {
			entry := bdms.CacheWarmEntry{FabricKey: e.bs.fkey, BTSNS: int64(e.r[2].Timestamp)}
			for _, o := range e.r[:3] {
				entry.Objects = append(entry.Objects, bdms.CacheWarmObject{
					ID: o.ID, TimestampNS: int64(o.Timestamp), Size: o.Size, Rows: o.Rows})
			}
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
		// A failed cluster pull answers 502 retryable (not the 404 of an
		// unknown subscription) and leaves the marker behind; the
		// redelivery, and a duplicate of it, admit the range exactly once.
		{"failed pull, then redeliveries", func(e env) {
			e.b.backend = faults.WrapBackend(faults.NewInjector(faults.Plan{Rules: []faults.Rule{
				{Target: "cluster.results", Kind: faults.KindError, FromCall: 1, ToCall: 1},
			}}), "cluster", e.b.backend)
			var se *httpx.StatusError
			err := e.post(bdms.NotificationPayload{SubscriptionID: e.bs.id, LatestNS: int64(e.r[5].Timestamp)})
			if !errors.As(err, &se) || se.Status != http.StatusBadGateway || !se.Retryable {
				e.t.Errorf("failed pull answered %v, want 502 retryable", err)
			}
			if m := e.marker(); m != 0 {
				e.t.Errorf("failed pull moved the marker to %v", m)
			}
			e.pull(5, 5)
		}, 0, 6, 1},
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
			ret, err := e.b.RetrieveContext(context.Background(), "alice", e.fs)
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
