package broker

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/core"
	"gobad/internal/wsock"
)

// swappableHandler lets a test replace the handler behind a stable URL —
// the moral equivalent of restarting the service on the same address.
type swappableHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swappableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (s *swappableHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// TestRegistrationSurvivesBCSRestart is the failover regression for the
// heartbeat loop: when the BCS restarts and loses its registry, heartbeats
// start answering 404 — the loop must re-register the broker so Assign
// serves it again with no operator intervention, and must take the
// restarted BCS's ring although its epoch is the one the broker held.
func TestRegistrationSurvivesBCSRestart(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)

	svc1 := bcs.NewService()
	sw := &swappableHandler{h: bcs.NewServer(svc1).Handler()}
	srv := httptest.NewServer(sw)
	t.Cleanup(srv.Close)

	reg, err := RegisterWithBCS(env.broker, bcs.NewClient(srv.URL, nil), "http://broker-1", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	if _, _, err := svc1.Place(""); err != nil {
		t.Fatalf("Assign before restart: %v", err)
	}

	held := env.broker.Ring()

	// "Restart" the BCS: a fresh service on the same URL, which another
	// broker reaches first.
	svc2 := bcs.NewService()
	if err := svc2.Register("broker-3", "http://broker-3"); err != nil {
		t.Fatal(err)
	}
	sw.swap(bcs.NewServer(svc2).Handler())

	waitFor(t, func() bool { return svc2.Live(env.broker.ID()) }, "re-registration with the restarted BCS")
	if got := svc2.Brokers(); len(got) != 2 || got[0].ID != env.broker.ID() || got[0].Address != "http://broker-1" {
		t.Fatalf("restarted BCS holds %+v, want broker-1 at http://broker-1 beside broker-3", got)
	}
	waitFor(t, func() bool { return env.broker.Ring().Has("broker-3") }, "the restarted BCS's ring")
	if ring := env.broker.Ring(); ring.Epoch != held.Epoch || len(ring.Brokers) != 2 {
		t.Errorf("ring after the restart = %+v; want the restarted BCS's two brokers at epoch %d", ring, held.Epoch)
	}
}

// countingBCS serves a BCS and tallies what registered brokers ask of it:
// heartbeats (numbered in arrival order), the heartbeat answers that
// carried a ring view, and ring fetches.
type countingBCS struct {
	svc        *bcs.Service
	inner      http.Handler
	heartbeats atomic.Int64
	ringGets   atomic.Int64

	mu sync.Mutex
	// viewAt holds, for each heartbeat answer that carried a view, the
	// arrival number of its heartbeat.
	viewAt []int64
}

func newCountingBCS(t *testing.T) (*countingBCS, *bcs.Client) {
	c := &countingBCS{svc: bcs.NewService()}
	c.inner = bcs.NewServer(c.svc).Handler()
	srv := httptest.NewServer(c)
	t.Cleanup(srv.Close)
	return c, bcs.NewClient(srv.URL, srv.Client())
}

func (c *countingBCS) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Path == "/v1/ring" {
		c.ringGets.Add(1)
	}
	if !strings.HasSuffix(r.URL.Path, "/heartbeat") {
		c.inner.ServeHTTP(w, r)
		return
	}
	n := c.heartbeats.Add(1)
	rec := httptest.NewRecorder()
	c.inner.ServeHTTP(rec, r)
	if rec.Code == http.StatusOK && !bytes.Equal(rec.Body.Bytes(), []byte("null\n")) {
		c.mu.Lock()
		c.viewAt = append(c.viewAt, n)
		c.mu.Unlock()
	}
	for k, vs := range rec.Header() {
		w.Header()[k] = vs
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(rec.Body.Bytes())
}

func (c *countingBCS) views() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.viewAt...)
}

// TestRegisterInstallsFirstRing: a broker is in the fabric as soon as
// RegisterWithBCS returns — the ring its first heartbeat received is
// installed, with no ticker beat and no ring fetch in between.
func TestRegisterInstallsFirstRing(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	bcsSrv, client := newCountingBCS(t)
	if err := bcsSrv.svc.Register("broker-2", "http://broker-2"); err != nil {
		t.Fatal(err)
	}
	reg, err := RegisterWithBCS(env.broker, client, "http://broker-1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)

	ring, want := env.broker.Ring(), bcsSrv.svc.Ring()
	if ring.Epoch == 0 || ring.Epoch != want.Epoch || len(ring.Brokers) != 2 ||
		!ring.Has("broker-1") || !ring.Has("broker-2") {
		t.Fatalf("ring after RegisterWithBCS = %+v, want the BCS's %+v", ring, want)
	}
	if got := bcsSrv.views(); len(got) != 1 || got[0] != 1 {
		t.Errorf("heartbeats that carried a view = %v, want [1]", got)
	}
	if n := bcsSrv.ringGets.Load(); n != 0 {
		t.Errorf("registered broker fetched the ring %d times, want 0", n)
	}
}

// TestHeartbeatRebalancesOnJoin: a broker registering at the BCS reaches
// an already-registered broker on that broker's next heartbeat, and the
// broker migrates exactly the sessions the new ring places elsewhere, each
// to its new owner. An unchanged ring is no change: steady heartbeats
// carry no view and move nothing. The broker never asks for the ring.
func TestHeartbeatRebalancesOnJoin(t *testing.T) {
	env, srv := newHTTPEnv(t)
	b := env.broker
	bcsSrv, client := newCountingBCS(t)
	if err := bcsSrv.svc.Register("broker-2", "http://broker-2"); err != nil {
		t.Fatal(err)
	}
	const interval = 20 * time.Millisecond
	reg, err := RegisterWithBCS(b, client, srv.URL, interval)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)

	// Sessions live where placement puts them: pick subscribers the first
	// ring assigns to broker-1.
	first := b.Ring()
	if !first.Has(b.ID()) || !first.Has("broker-2") {
		t.Fatalf("ring after RegisterWithBCS = %+v, want broker-1 and broker-2", first)
	}
	conns := map[string]*wsock.Conn{}
	for i := 0; len(conns) < 30; i++ {
		sub := fmt.Sprintf("sub-%03d", i)
		if first.OwnerID(sub) != b.ID() {
			continue
		}
		if _, err := b.Subscribe(sub, "Alerts", []any{"fire"}); err != nil {
			t.Fatal(err)
		}
		conn, err := wsock.Dial(srv.URL+"/v1/ws?subscriber="+sub, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		conns[sub] = conn
	}

	// Steady state: beats go by, no view rides them, nothing moves.
	steady := bcsSrv.heartbeats.Load()
	waitFor(t, func() bool { return bcsSrv.heartbeats.Load() >= steady+3 }, "three steady heartbeats")
	if got := bcsSrv.views(); len(got) != 1 {
		t.Fatalf("heartbeats that carried a view = %v, want only the first", got)
	}
	if b.Ring().Epoch != first.Epoch || b.Failover().RebalanceMigrated.Load() != 0 {
		t.Fatalf("unchanged ring moved: epoch %d -> %d, migrated %d",
			first.Epoch, b.Ring().Epoch, b.Failover().RebalanceMigrated.Load())
	}

	// broker-3 joins. The next heartbeat to arrive carries the new ring.
	if err := bcsSrv.svc.Register("broker-3", "http://broker-3"); err != nil {
		t.Fatal(err)
	}
	joinedAt := bcsSrv.heartbeats.Load()
	joined := bcsSrv.svc.Ring()
	moved := map[string]bool{}
	for sub := range conns {
		if owner := joined.OwnerID(sub); owner != b.ID() {
			if owner != "broker-3" {
				t.Fatalf("%s moved to %s on broker-3's join", sub, owner)
			}
			moved[sub] = true
		}
	}
	if len(moved) == 0 || len(moved) == len(conns) {
		t.Fatalf("%d of %d sessions move; the test needs some to move and some to stay", len(moved), len(conns))
	}
	waitFor(t, func() bool { return b.Failover().RebalanceMigrated.Load() == uint64(len(moved)) }, "the rebalance")
	if got := bcsSrv.views(); len(got) != 2 || got[1] > joinedAt+1 {
		t.Errorf("heartbeats that carried a view = %v; the join must ride heartbeat %d or earlier", got, joinedAt+1)
	}
	if ring := b.Ring(); ring.Epoch != joined.Epoch || !ring.Has("broker-3") {
		t.Errorf("ring after the join = %+v, want %+v", ring, joined)
	}
	for sub, conn := range conns {
		if b.Online(sub) == moved[sub] {
			t.Errorf("%s online=%v, moved=%v", sub, b.Online(sub), moved[sub])
		}
		if !moved[sub] {
			continue
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := conn.ReadMessage(); err == nil {
			t.Fatalf("%s: socket still open after its migration", sub)
		}
		if code, reason := conn.CloseStatus(); code != wsock.CloseServiceRestart || reason != "http://broker-3" {
			t.Errorf("%s: close = (%d, %q), want a migrate to http://broker-3", sub, code, reason)
		}
	}
	if n := bcsSrv.ringGets.Load(); n != 0 {
		t.Errorf("registered broker fetched the ring %d times, want 0", n)
	}
}

// TestFabricLookupAloneTakesNoLock: a broker alone in its ring, as a
// benchmark or single-broker deployment registered at a BCS is, has no
// sibling to ask, and its miss path returns from the peer tier without
// taking the broker lock.
func TestFabricLookupAloneTakesNoLock(t *testing.T) {
	env := newTestEnv(t, core.NC{}, 0)
	b := env.broker
	if !b.SetRing(bcs.RingView{Epoch: 1, Brokers: []bcs.BrokerInfo{{ID: b.ID(), Address: "http://broker-1"}}}) {
		t.Fatal("SetRing rejected the view")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	done := make(chan bool, 1)
	go func() {
		_, ok := b.fabric.lookup(context.Background(), "bsub-1", 0, time.Second, true)
		done <- ok
	}()
	select {
	case ok := <-done:
		if ok {
			t.Error("a broker alone in its ring served a miss from a peer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the peer tier waited on the broker lock")
	}
}
