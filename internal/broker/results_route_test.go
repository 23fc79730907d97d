package broker

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"gobad/internal/core"
	"gobad/internal/faults"
	"gobad/internal/httpx"
)

// cachedObjects sums the objects held across the broker's caches.
func cachedObjects(b *Broker) int {
	n := 0
	for _, c := range b.Manager().CacheInfos() {
		n += c.Objects
	}
	return n
}

// TestResultsRouteStatuses: the results route tells an unknown subscription
// (404) from a data-cluster outage (retryable 502) from a malformed ack
// (400), and none of the three moves the marker or touches the cache.
func TestResultsRouteStatuses(t *testing.T) {
	// A budget of one and a half objects: the second result evicts the
	// first, so a retrieval from alice's marker has a cached part and a
	// part to fetch.
	probe := newTestEnv(t, core.LSC{}, 1<<20)
	if _, err := probe.broker.Subscribe("alice", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	probe.publish(t, "fire", 1)
	env := newTestEnv(t, core.LSC{}, probe.broker.Manager().TotalSize()*3/2)
	srv := httptest.NewServer(NewServer(env.broker).Handler())
	t.Cleanup(srv.Close)
	b := env.broker
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	// bob shares the backend subscription, so what alice's failed retrieval
	// marks retrieved stays cached for him and object counts compare.
	if _, err := b.Subscribe("bob", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 1)
	env.publish(t, "fire", 2)
	if got := cachedObjects(b); got != 1 {
		t.Fatalf("cached objects = %d, want 1 (the older result evicted)", got)
	}
	b.backend = faults.WrapBackend(faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Target: "cluster.results", Kind: faults.KindError},
	}}), "cluster", b.backend)

	cases := []struct {
		name, path string
		status     int
		code       string
		retryable  bool
	}{
		{"unknown subscription", "/v1/subscriptions/nope/results?subscriber=alice", http.StatusNotFound, httpx.CodeNotFound, false},
		{"another subscriber's subscription", "/v1/subscriptions/" + fs + "/results?subscriber=mallory", http.StatusNotFound, httpx.CodeNotFound, false},
		{"backend fetch failure", "/v1/subscriptions/" + fs + "/results?subscriber=alice", http.StatusBadGateway, httpx.CodeInternal, true},
		{"malformed ack", "/v1/subscriptions/" + fs + "/results?subscriber=alice&ack=soon", http.StatusBadRequest, httpx.CodeBadRequest, false},
		{"negative ack", "/v1/subscriptions/" + fs + "/results?subscriber=alice&ack=-5", http.StatusBadRequest, httpx.CodeBadRequest, false},
		{"ack for an unknown subscription", "/v1/subscriptions/nope/results?subscriber=alice&ack=5", http.StatusNotFound, httpx.CodeNotFound, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			requests := b.Stats().Requests.Value()
			resp, err := srv.Client().Get(srv.URL + c.path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var env httpx.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("body %q is not the error envelope: %v", body, err)
			}
			if resp.StatusCode != c.status || env.Error.Code != c.code || env.Error.Retryable != c.retryable {
				t.Errorf("answer = %d %+v, want %d %s retryable=%v", resp.StatusCode, env.Error, c.status, c.code, c.retryable)
			}
			if m, err := b.Marker("alice", fs); err != nil || m != 0 {
				t.Errorf("marker = %v, %v; want 0: a refused retrieval acknowledges nothing", m, err)
			}
			if got := cachedObjects(b); got != 1 {
				t.Errorf("cached objects = %d, want 1", got)
			}
			// Only the backend failure got as far as the cache.
			wantReq := requests
			if c.status == http.StatusBadGateway {
				wantReq++
			}
			if got := b.Stats().Requests.Value(); got != wantReq {
				t.Errorf("objects requested from the cache = %v, want %v", got, wantReq)
			}
		})
	}
}

// TestAckRoutesAreEquivalent: Algorithm 1's ACK reaches the broker either
// as its own POST after each retrieval or as ack= on the next GET. The
// markers trail by one retrieval on the second route and by none on the
// first; what every GET returns, what the cache holds after it and the
// hit/byte accounting cannot tell the two apart — a retrieval whose
// response the subscriber never saw included, whether another subscriber
// still has its results pending or the lost response was their last
// consumer's (then the retry re-fetches them from the cluster on either
// route).
func TestAckRoutesAreEquivalent(t *testing.T) {
	type step struct {
		Items   []string // result ids the GET returned
		Latest  int64
		Objects int
		Hits    float64
		Bytes   float64
	}
	routes := []struct {
		name string
		// get performs one retrieval given the watermark the last
		// retrieval the subscriber saw returned, acknowledging by this
		// row's route; a lost retrieval's response is never seen, so
		// nothing can be acknowledged from it.
		get func(t *testing.T, srv *httptest.Server, fs string, prev int64, lost bool) ResultsResponse
	}{
		{"explicit POST /ack", func(t *testing.T, srv *httptest.Server, fs string, _ int64, lost bool) ResultsResponse {
			var out ResultsResponse
			u := srv.URL + "/v1/subscriptions/" + fs
			if err := httpx.DoJSON(srv.Client(), http.MethodGet, u+"/results?subscriber=alice", nil, &out); err != nil {
				t.Fatal(err)
			}
			if out.LatestNS > 0 && !lost {
				if err := httpx.DoJSON(srv.Client(), http.MethodPost, u+"/ack",
					AckRequest{Subscriber: "alice", TimestampNS: out.LatestNS}, nil); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}},
		{"ack= on the next GET", func(t *testing.T, srv *httptest.Server, fs string, prev int64, _ bool) ResultsResponse {
			var out ResultsResponse
			u := fmt.Sprintf("%s/v1/subscriptions/%s/results?subscriber=alice&ack=%d", srv.URL, fs, prev)
			if err := httpx.DoJSON(srv.Client(), http.MethodGet, u, nil, &out); err != nil {
				t.Fatal(err)
			}
			return out
		}},
	}
	// Retrievals of two results, one, none (an empty GET), one whose
	// response is lost, its retry, then one more.
	steps := []struct {
		publishes int
		lost      bool
	}{{2, false}, {1, false}, {0, false}, {1, true}, {0, false}, {1, false}}
	for _, shared := range []bool{true, false} {
		var seqs [][]step
		var markers [][]time.Duration
		for _, r := range routes {
			env, srv := newHTTPEnv(t)
			b := env.broker
			fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
			if err != nil {
				t.Fatal(err)
			}
			if shared {
				// bob never retrieves: alice's objects stay cached.
				if _, err := b.Subscribe("bob", "Alerts", []any{"fire"}); err != nil {
					t.Fatal(err)
				}
			}
			var seq []step
			var marks []time.Duration
			prev := int64(0)
			for _, s := range steps {
				for i := 0; i < s.publishes; i++ {
					env.publish(t, "fire", float64(len(seq)))
				}
				out := r.get(t, srv, fs, prev, s.lost)
				if !s.lost {
					prev = out.LatestNS
				}
				st := step{Latest: out.LatestNS, Objects: cachedObjects(b),
					Hits: b.Stats().Hits.Value(), Bytes: b.Stats().HitBytes.Value()}
				// Only the retry of a lost retrieval alice alone had pending
				// misses: the lost GET consumed it.
				refetch := len(seq) == 4 && !shared
				for _, it := range out.Results {
					if it.FromCache == refetch {
						t.Errorf("%s: %s served from the cache: %v, want %v", r.name, it.ID, it.FromCache, !refetch)
					}
					st.Items = append(st.Items, it.ID)
				}
				seq = append(seq, st)
				m, _ := b.Marker("alice", fs)
				marks = append(marks, m)
			}
			seqs = append(seqs, seq)
			markers = append(markers, marks)
		}
		if !reflect.DeepEqual(seqs[0], seqs[1]) {
			t.Errorf("shared=%v: retrieval sequences differ:\n%s: %+v\n%s: %+v",
				shared, routes[0].name, seqs[0], routes[1].name, seqs[1])
		}
		// The retry of the lost retrieval serves its result again, from the
		// cache while bob has it pending, from the cluster otherwise.
		if got := len(seqs[0][4].Items); got != 1 {
			t.Errorf("shared=%v: retry of the lost retrieval returned %d results, want 1", shared, got)
		}
		// Marker sequence: the POST route acknowledges a retrieval at once
		// (a lost one never), the GET route with the next request — the
		// same values, one step later.
		for k := range steps {
			want := time.Duration(seqs[0][k].Latest)
			if steps[k].lost {
				want = markers[0][k-1]
			}
			if got := markers[0][k]; got != want {
				t.Errorf("shared=%v POST route: marker after retrieval %d = %v, want %v", shared, k, got, want)
			}
			want = 0
			if k > 0 {
				want = markers[0][k-1]
			}
			if got := markers[1][k]; got != want {
				t.Errorf("shared=%v GET route: marker after retrieval %d = %v, want the POST route's after %d, %v",
					shared, k, got, k-1, want)
			}
		}
		if markers[0][2] != markers[0][1] || seqs[0][2].Latest == 0 {
			t.Errorf("shared=%v: the empty retrieval must return the standing marker: %+v", shared, seqs[0][2])
		}
	}
}

// hitEnv is a broker holding one cached result object of about 700 bytes
// for alice and bob — bob's pending retrieval keeps it cached, so alice
// can retrieve it again and again, each time a hit — and the path of
// alice's retrieval.
func hitEnv(t *testing.T) (*Broker, string) {
	t.Helper()
	env := newTestEnv(t, core.LSC{}, 1<<20)
	fs, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.broker.Subscribe("bob", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	env.clk.Advance(time.Second)
	if _, err := env.cluster.Ingest("EmergencyReports", map[string]any{
		"etype": "fire", "severity": 3.0, "location": map[string]any{"lat": 33.64, "lon": -117.84},
		"message": strings.Repeat("structure fire near campus; ", 22),
	}); err != nil {
		t.Fatal(err)
	}
	if size := env.broker.Manager().TotalSize(); size < 650 || size > 750 {
		t.Fatalf("cached object is %d bytes, want about 700", size)
	}
	return env.broker, "/v1/subscriptions/" + fs + "/results?subscriber=alice"
}

// raceBuild reports a -race test binary, whose instrumentation allocates
// on its own.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestResultsRouteHitAllocs bounds what the results route costs to serve
// one cached ~700-byte object, middleware included.
func TestResultsRouteHitAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates on its own")
	}
	b, path := hitEnv(t)
	h := NewServer(b).Handler()
	get := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"from_cache":true`) {
			t.Fatalf("retrieval = %d %s, want a cache hit", w.Code, w.Body)
		}
	}
	get()
	allocs := testing.AllocsPerRun(100, get)
	// 34, the httptest request and recorder included. The parent spent 68:
	// its middleware's 20 against 7 now (TestWrapAllocs), the query map,
	// the span name, and the cached rows decoded into maps and encoded
	// again through encoding/json.
	if allocs > 35 {
		t.Errorf("results route hit = %v allocs, want at most 35", allocs)
	}
}
