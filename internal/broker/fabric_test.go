package broker

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/core"
)

// countingBackend wraps the in-process cluster and counts result pulls.
type countingBackend struct {
	*bdms.Cluster
	calls atomic.Int64
}

func (c *countingBackend) ResultsContext(ctx context.Context, subID string, from, to time.Duration, inclusiveTo bool) ([]bdms.ResultObject, error) {
	c.calls.Add(1)
	return c.Cluster.ResultsContext(ctx, subID, from, to, inclusiveTo)
}

// fabricEnv is a two-broker fabric over one in-process cluster: "owner" is
// the HRW owner of every fabric key (it is the only ring member) and serves
// peer lookups over real HTTP; "edge" runs the NC policy so every retrieval
// is a miss that exercises the two-tier lookup path.
type fabricEnv struct {
	clk       *testClock
	cluster   *bdms.Cluster
	owner     *Broker
	edge      *Broker
	ownerSrv  *httptest.Server
	ownerHTTP *Server
	edgeCalls *countingBackend
	// peerReqs counts peer-protocol requests arriving at the owner.
	peerReqs atomic.Int64
}

func newFabricEnv(t *testing.T) *fabricEnv {
	t.Helper()
	env := &fabricEnv{clk: &testClock{}}
	var mu sync.Mutex
	var brokers []*Broker
	env.cluster = bdms.NewCluster(
		bdms.WithClock(env.clk.Now),
		bdms.WithNotifier(bdms.NotifierFunc(func(ctx context.Context, subID, _ string, latest time.Duration) {
			mu.Lock()
			bs := append([]*Broker(nil), brokers...)
			mu.Unlock()
			for _, b := range bs {
				_ = b.HandleNotificationContext(ctx, subID, latest, nil) // each broker owns its own sub IDs
			}
		})),
	)
	if err := env.cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := env.cluster.DefineChannel(bdms.ChannelDef{
		Name:   "Alerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}

	owner, err := New(Config{
		ID:          "owner",
		Backend:     env.cluster,
		Policy:      core.LSC{},
		CacheBudget: 1 << 20,
		Clock:       env.clk.Now,
		TTL:         core.TTLConfig{DefaultTTL: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.owner = owner
	// The owner answers peer lookups over real HTTP; count them at the
	// transport so singleflight assertions see exactly what left the edge.
	env.ownerHTTP = NewServer(owner)
	inner := env.ownerHTTP.Handler()
	env.ownerSrv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/peer/") {
			env.peerReqs.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(env.ownerSrv.Close)

	env.edgeCalls = &countingBackend{Cluster: env.cluster}
	edge, err := New(Config{
		ID:      "edge",
		Backend: env.edgeCalls,
		Policy:  core.NC{},
		Clock:   env.clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.edge = edge
	if !edge.SetRing(bcs.RingView{Epoch: 1, Brokers: []bcs.BrokerInfo{
		{ID: "owner", Address: env.ownerSrv.URL},
	}}) {
		t.Fatal("SetRing rejected the initial view")
	}
	mu.Lock()
	brokers = []*Broker{owner, edge}
	mu.Unlock()
	return env
}

func (env *fabricEnv) publish(t *testing.T, etype string, sev float64) {
	t.Helper()
	env.clk.Advance(time.Second)
	if _, err := env.cluster.Ingest("EmergencyReports", map[string]any{
		"etype": etype, "severity": sev,
	}); err != nil {
		t.Fatal(err)
	}
}

// A local miss on the edge is served from the owning sibling's cache: no
// cluster fetch on the miss path, a peer hit in the stats, and the same
// results the cluster would have produced.
func TestPeerLookupServesFromSibling(t *testing.T) {
	env := newFabricEnv(t)
	if _, err := env.owner.Subscribe("olga", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	fs, err := env.edge.Subscribe("edna", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		env.publish(t, "fire", float64(i))
	}

	before := env.edgeCalls.calls.Load()
	ret, err := env.edge.RetrieveContext(context.Background(), "edna", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 3 {
		t.Fatalf("got %d results via peer, want 3", len(ret.Items))
	}
	for i, item := range ret.Items {
		if sev, _ := rowsOf(t, item)[0]["severity"].(float64); sev != float64(i+1) {
			t.Errorf("result %d severity %v, want %d", i, sev, i+1)
		}
	}
	if got := env.edgeCalls.calls.Load(); got != before {
		t.Errorf("miss path pulled from the cluster %d times, want 0 (peer should serve)", got-before)
	}
	if h := env.edge.Stats().PeerHits.Value(); h != 1 {
		t.Errorf("peer hits = %v, want 1", h)
	}
	if m := env.edge.Stats().PeerMisses.Value(); m != 0 {
		t.Errorf("peer misses = %v, want 0", m)
	}
	// Peer-served bytes count as miss volume but NOT fetch bytes — the
	// whole point is that the cluster was not asked.
	if fb := env.edge.Stats().FetchBytes.Value(); fb != 0 {
		t.Errorf("edge FetchBytes = %v after a peer-served miss, want 0", fb)
	}
}

// An owner whose own subscriber consumed a range does not vouch for it:
// the consumption moved its coverage mark, so the edge's lookup is a peer
// miss and the edge pulls the range from the cluster instead of being told
// it is empty.
func TestPeerLookupOverConsumedRange(t *testing.T) {
	env := newFabricEnv(t)
	olga, err := env.owner.Subscribe("olga", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := env.edge.Subscribe("edna", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 1)
	env.publish(t, "fire", 2)
	if ret, err := env.owner.RetrieveContext(context.Background(), "olga", olga, 0); err != nil || len(ret.Items) != 2 {
		t.Fatalf("olga's retrieval = %+v, %v; want both results", ret, err)
	}

	before := env.edgeCalls.calls.Load()
	ret, err := env.edge.RetrieveContext(context.Background(), "edna", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 2 {
		t.Fatalf("edna got %d results, want 2", len(ret.Items))
	}
	if got := env.edgeCalls.calls.Load() - before; got != 1 {
		t.Errorf("miss path pulled from the cluster %d times, want 1", got)
	}
	if h, m := env.edge.Stats().PeerHits.Value(), env.edge.Stats().PeerMisses.Value(); h != 0 || m != 1 {
		t.Errorf("peer hits %v, misses %v; want 0 and 1", h, m)
	}
}

// K concurrent identical misses collapse into exactly one peer request:
// the lookup rides inside the manager's singleflight and the short-TTL
// memo absorbs stragglers.
func TestPeerLookupSingleflight(t *testing.T) {
	env := newFabricEnv(t)
	if _, err := env.owner.Subscribe("olga", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	fs, err := env.edge.Subscribe("edna", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		env.publish(t, "fire", float64(i))
	}

	before := env.edgeCalls.calls.Load()
	const K = 16
	var wg sync.WaitGroup
	errs := make([]error, K)
	counts := make([]int, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ret, err := env.edge.RetrieveContext(context.Background(), "edna", fs, 0)
			errs[i], counts[i] = err, len(ret.Items)
		}(i)
	}
	wg.Wait()
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("retrieval %d: %v", i, errs[i])
		}
		if counts[i] != 5 {
			t.Errorf("retrieval %d got %d results, want 5", i, counts[i])
		}
	}
	if got := env.peerReqs.Load(); got != 1 {
		t.Errorf("%d concurrent misses caused %d peer requests, want exactly 1", K, got)
	}
	if got := env.edgeCalls.calls.Load(); got != before {
		t.Errorf("miss path pulled from the cluster %d times, want 0", got-before)
	}
	// PeerHits counts lookups executed, not callers: the coalesced
	// callers share the one flight's answer.
	if h := env.edge.Stats().PeerHits.Value(); h != 1 {
		t.Errorf("peer hits = %v, want 1 (one coalesced lookup)", h)
	}
}

// The peer failure taxonomy end to end: a draining owner answers 503
// peer_draining, a cold owner 404 peer_cold (and neither stops the edge —
// it falls back to the cluster), and a chained lookup is refused with 400
// peer_loop.
func TestPeerTaxonomy(t *testing.T) {
	env := newFabricEnv(t)
	if _, err := env.owner.Subscribe("olga", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	fs, err := env.edge.Subscribe("edna", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		env.publish(t, "fire", float64(i))
	}

	// Cold: the owner has no subscription under an unknown fabric key.
	pc := bdms.NewPeerClient(nil)
	_, err = pc.Results(context.Background(), env.ownerSrv.URL, "fk-no-such-key", 0, int64(time.Hour), true)
	if !bdms.IsPeerCold(err) {
		t.Errorf("unknown key error = %v, want peer_cold", err)
	}

	// Loop: a request that already carries a hop count is refused.
	req, _ := http.NewRequest(http.MethodGet,
		env.ownerSrv.URL+"/v1/peer/results/fk-x?after_ns=0&before_ns=1&inclusive=true", nil)
	req.Header.Set(bdms.PeerHopHeader, "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("hop-2 lookup = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), bdms.CodePeerLoop) {
		t.Errorf("hop-2 body %q, want code %s", body, bdms.CodePeerLoop)
	}

	// Draining: the owner refuses peer traffic while handing off, and the
	// edge's miss path falls through to the cluster instead of failing.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	env.owner.Drain(ctx, "")
	_, err = pc.Results(context.Background(), env.ownerSrv.URL, "fk-x", 0, int64(time.Hour), true)
	if !bdms.IsPeerDraining(err) {
		t.Errorf("draining owner error = %v, want peer_draining", err)
	}

	before := env.edgeCalls.calls.Load()
	ret, err := env.edge.RetrieveContext(context.Background(), "edna", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 2 {
		t.Fatalf("got %d results, want 2 (cluster fallback)", len(ret.Items))
	}
	if got := env.edgeCalls.calls.Load(); got != before+1 {
		t.Errorf("cluster pulls = %d, want exactly 1 fallback fetch", got-before)
	}
	if m := env.edge.Stats().PeerMisses.Value(); m != 1 {
		t.Errorf("peer misses = %v, want 1", m)
	}
}

// Every broker's peer tier is circuit-broken per owner: a dead owner (5xx
// on every lookup) costs the failure threshold's worth of peer requests,
// then the edge's misses skip the peer and go straight to the cluster,
// and its /metrics shows the owner's circuit open.
func TestPeerBreakerOpensOnFailingOwner(t *testing.T) {
	env := newFabricEnv(t)
	var ownerHits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		ownerHits.Add(1)
		http.Error(w, "owner down", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	if !env.edge.SetRing(bcs.RingView{Epoch: 2, Brokers: []bcs.BrokerInfo{{ID: "owner", Address: dead.URL}}}) {
		t.Fatal("SetRing rejected the view")
	}
	fs, err := env.edge.Subscribe("edna", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 1)

	const threshold = 5 // httpx.BreakerConfig's default
	for i := 0; i < threshold+3; i++ {
		before := env.edgeCalls.calls.Load()
		ret, err := env.edge.RetrieveContext(context.Background(), "edna", fs, 0)
		if err != nil || len(ret.Items) != 1 {
			t.Fatalf("retrieval %d = %d items, %v; want the cluster's one result", i, len(ret.Items), err)
		}
		if env.edgeCalls.calls.Load() != before+1 {
			t.Fatalf("retrieval %d did not fall through to the cluster", i)
		}
	}
	if got := ownerHits.Load(); got != threshold {
		t.Errorf("failing owner saw %d lookups, want %d (then the circuit opens)", got, threshold)
	}
	if m := env.edge.Stats().PeerMisses.Value(); m != threshold+3 {
		t.Errorf("peer misses = %v, want %d", m, threshold+3)
	}
	var buf strings.Builder
	if err := NewServer(env.edge).Observer().Registry.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `bad_breaker_state{target="` + dead.URL + `"} 2`; !strings.Contains(buf.String(), want) {
		t.Errorf("edge /metrics lacks %q", want)
	}
}
