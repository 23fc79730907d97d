package broker

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"gobad/internal/core"
	"gobad/internal/faults"
	"gobad/internal/httpx"
	"gobad/internal/wsock"
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
// (400), and none of the three moves the marker or touches the cache —
// asked over HTTP or as a frame on the subscriber's notification socket,
// whose reply carries the same status and envelope.
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
	sockets := map[string]*wsock.Conn{"alice": dialSession(t, srv, "alice"), "mallory": dialSession(t, srv, "mallory")}

	cases := []struct {
		name, subscriber, fs, ack string // ack: the query's ack=, "" for none
		status                    int
		code                      string
		retryable                 bool
	}{
		{"unknown subscription", "alice", "nope", "", http.StatusNotFound, httpx.CodeNotFound, false},
		{"another subscriber's subscription", "mallory", fs, "", http.StatusNotFound, httpx.CodeNotFound, false},
		{"backend fetch failure", "alice", fs, "", http.StatusBadGateway, httpx.CodeInternal, true},
		{"malformed ack", "alice", fs, "soon", http.StatusBadRequest, httpx.CodeBadRequest, false},
		{"negative ack", "alice", fs, "-5", http.StatusBadRequest, httpx.CodeBadRequest, false},
		{"ack for an unknown subscription", "alice", "nope", "5", http.StatusNotFound, httpx.CodeNotFound, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, socket := range []bool{false, true} {
				requests := b.Stats().Requests.Value()
				var reply struct {
					Status int             `json:"status"`
					Error  httpx.ErrorInfo `json:"error"`
				}
				if socket {
					ack := ""
					if c.ack != "" {
						ack = `,"ack":` + c.ack
						if _, err := strconv.Atoi(c.ack); err != nil {
							ack = `,"ack":` + strconv.Quote(c.ack)
						}
					}
					body := socketGet(t, sockets[c.subscriber], fmt.Sprintf(`{"get":%q,"id":1%s}`, c.fs, ack))
					if err := json.Unmarshal(body, &reply); err != nil || !strings.HasPrefix(string(body), `{"re":1,`) {
						t.Fatalf("socket reply %q is not the error reply: %v", body, err)
					}
				} else {
					path := "/v1/subscriptions/" + c.fs + "/results?subscriber=" + c.subscriber
					if c.ack != "" {
						path += "&ack=" + c.ack
					}
					resp, err := srv.Client().Get(srv.URL + path)
					if err != nil {
						t.Fatal(err)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err := json.Unmarshal(body, &reply); err != nil {
						t.Fatalf("body %q is not the error envelope: %v", body, err)
					}
					reply.Status = resp.StatusCode
				}
				if reply.Status != c.status || reply.Error.Code != c.code || reply.Error.Retryable != c.retryable {
					t.Errorf("socket=%v: answer = %d %+v, want %d %s retryable=%v", socket, reply.Status, reply.Error, c.status, c.code, c.retryable)
				}
				if m, err := b.Marker("alice", fs); err != nil || m != 0 {
					t.Errorf("socket=%v: marker = %v, %v; want 0: a refused retrieval acknowledges nothing", socket, m, err)
				}
				if got := cachedObjects(b); got != 1 {
					t.Errorf("socket=%v: cached objects = %d, want 1", socket, got)
				}
				// Only the backend failure got as far as the cache.
				wantReq := requests
				if c.status == http.StatusBadGateway {
					wantReq++
				}
				if got := b.Stats().Requests.Value(); got != wantReq {
					t.Errorf("socket=%v: objects requested from the cache = %v, want %v", socket, got, wantReq)
				}
			}
		})
	}
}

// TestAckRoutesAreEquivalent: Algorithm 1's ACK rides the next retrieval,
// as ack= on the GET, as the ack of a retrieval frame on the notification
// socket, or as RetrieveContext's ack in process. What every retrieval
// returns, what the cache holds after it, the hit/byte accounting and the
// markers — trailing by one retrieval — cannot tell the three apart: a
// retrieval whose response the subscriber never saw included, whether
// another subscriber still has its results pending or the lost response was
// their last consumer's (then the retry re-fetches them from the cluster on
// every route).
func TestAckRoutesAreEquivalent(t *testing.T) {
	type step struct {
		Items   []string // result ids the retrieval returned
		Latest  int64
		Objects int
		Hits    float64
		Bytes   float64
	}
	sockets := map[string]*wsock.Conn{} // alice's, by broker
	routes := []struct {
		name string
		// get performs one retrieval carrying ack, the watermark the last
		// retrieval the subscriber saw returned.
		get func(t *testing.T, b *Broker, srv *httptest.Server, fs string, ack int64) ResultsResponse
	}{
		{"ack= on the GET", func(t *testing.T, _ *Broker, srv *httptest.Server, fs string, ack int64) ResultsResponse {
			var out ResultsResponse
			u := fmt.Sprintf("%s/v1/subscriptions/%s/results?subscriber=alice&ack=%d", srv.URL, fs, ack)
			if err := httpx.DoJSON(srv.Client(), http.MethodGet, u, nil, &out); err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"socket frame", func(t *testing.T, _ *Broker, srv *httptest.Server, fs string, ack int64) ResultsResponse {
			if sockets[srv.URL] == nil {
				sockets[srv.URL] = dialSession(t, srv, "alice")
			}
			var out ResultsResponse
			body := socketGet(t, sockets[srv.URL], fmt.Sprintf(`{"get":%q,"id":1,"ack":%d}`, fs, ack))
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("reply %q: %v", body, err)
			}
			return out
		}},
		{"RetrieveContext in process", func(t *testing.T, b *Broker, _ *httptest.Server, fs string, ack int64) ResultsResponse {
			ret, err := b.RetrieveContext(context.Background(), "alice", fs, time.Duration(ack))
			if err != nil {
				t.Fatal(err)
			}
			var out ResultsResponse
			if err := json.Unmarshal(appendResults(nil, ret), &out); err != nil {
				t.Fatal(err)
			}
			return out
		}},
	}
	// Retrievals of two results, one, none (an empty retrieval), one whose
	// response is lost, its retry, then one more.
	steps := []struct {
		publishes int
		lost      bool
	}{{2, false}, {1, false}, {0, false}, {1, true}, {0, false}, {1, false}}
	for _, shared := range []bool{true, false} {
		var seqs [][]step
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
			ack := int64(0)
			for _, s := range steps {
				for i := 0; i < s.publishes; i++ {
					env.publish(t, "fire", float64(len(seq)))
				}
				out := r.get(t, b, srv, fs, ack)
				st := step{Latest: out.LatestNS, Objects: cachedObjects(b),
					Hits: b.Stats().Hits.Value(), Bytes: b.Stats().HitBytes.Value()}
				// Only the retry of a lost retrieval alice alone had pending
				// misses: the lost one consumed it.
				refetch := len(seq) == 4 && !shared
				for _, it := range out.Results {
					if it.FromCache == refetch {
						t.Errorf("%s: %s served from the cache: %v, want %v", r.name, it.ID, it.FromCache, !refetch)
					}
					st.Items = append(st.Items, it.ID)
				}
				seq = append(seq, st)
				// The marker is the ack this retrieval carried.
				if m, _ := b.Marker("alice", fs); m != time.Duration(ack) {
					t.Errorf("shared=%v %s: marker after retrieval %d = %v, want its ack %v", shared, r.name, len(seq)-1, m, ack)
				}
				// A lost response is never seen: nothing can be acknowledged
				// from it.
				if !s.lost {
					ack = out.LatestNS
				}
			}
			seqs = append(seqs, seq)
		}
		for r := 1; r < len(routes); r++ {
			if !reflect.DeepEqual(seqs[0], seqs[r]) {
				t.Errorf("shared=%v: retrieval sequences differ:\n%s: %+v\n%s: %+v",
					shared, routes[0].name, seqs[0], routes[r].name, seqs[r])
			}
		}
		// The retry of the lost retrieval serves its result again, from the
		// cache while bob has it pending, from the cluster otherwise.
		if got := len(seqs[0][4].Items); got != 1 {
			t.Errorf("shared=%v: retry of the lost retrieval returned %d results, want 1", shared, got)
		}
		if seqs[0][2].Latest != seqs[0][1].Latest || seqs[0][2].Latest == 0 {
			t.Errorf("shared=%v: the empty retrieval must return the standing marker: %+v", shared, seqs[0][2])
		}
	}
}

// hitEnv is a broker holding one cached result object of about 700 bytes
// for alice and bob — bob's pending retrieval keeps it cached, so alice
// can retrieve it again and again, each time a hit — and alice's
// subscription.
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
	return env.broker, fs
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
	b, fs := hitEnv(t)
	path := "/v1/subscriptions/" + fs + "/results?subscriber=alice"
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
