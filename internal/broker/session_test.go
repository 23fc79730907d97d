package broker

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/obs"
	"gobad/internal/wsock"
)

// TestPushFrameMatchesMarshal: the hand-appended push frame is the bytes
// json.Marshal writes for the same PushNotification — strings needing
// escapes and invalid UTF-8 included, with and without a traceparent — and
// appending it into a stack buffer allocates nothing.
func TestPushFrameMatchesMarshal(t *testing.T) {
	const traceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	for _, bs := range []string{
		"bsub-000001", `say "hi"`, `back\slash`, "<a>&b", "naïve → ünïcode",
		"bad\xffutf8", "tab\tnl\n", "sep\u2028",
	} {
		for _, tp := range []string{"", traceparent, "<&>"} {
			for _, latest := range []int64{0, 1234567890123, -7} {
				want, err := json.Marshal(PushNotification{Type: "results", BackendSub: bs, LatestNS: latest, Traceparent: tp})
				if err != nil {
					t.Fatal(err)
				}
				if got := appendPushJSON(nil, bs, latest, tp); !bytes.Equal(got, want) {
					t.Errorf("appendPushJSON(%q, %d, %q) = %s, want %s", bs, latest, tp, got, want)
				}
			}
		}
	}
	if raceBuild() {
		return // the race detector allocates on its own
	}
	allocs := testing.AllocsPerRun(100, func() {
		var buf [192]byte
		if len(appendPushJSON(buf[:0], "bsub-000001", 1234567890123, traceparent)) == 0 {
			t.Fatal("empty frame")
		}
	})
	if allocs != 0 {
		t.Errorf("appendPushJSON into a stack buffer = %v allocs, want 0", allocs)
	}
}

// hubConn attaches a fresh in-memory session to the hub, indexed under the
// given interests (backend sub -> frontend sub), and returns the client
// half of the pipe (raw; callers decide whether to drain, parse or stall
// it).
func hubConn(t *testing.T, h *sessionHub, subscriber string, interests map[string]string) net.Conn {
	t.Helper()
	sNC, cNC := net.Pipe()
	h.attach(subscriber, wsock.NewConn(sNC, false), interests)
	t.Cleanup(func() { _ = cNC.Close() })
	return cNC
}

// drainNotifications reads count push notifications off the raw client end.
func drainNotifications(t *testing.T, cNC net.Conn, count int) []PushNotification {
	t.Helper()
	conn := wsock.NewConn(cNC, true)
	_ = cNC.SetReadDeadline(time.Now().Add(5 * time.Second))
	out := make([]PushNotification, 0, count)
	for i := 0; i < count; i++ {
		_, payload, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		var n PushNotification
		if err := json.Unmarshal(payload, &n); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		out = append(out, n)
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func newTestHub(queueCap int) (*sessionHub, *obs.Counter) {
	delivered := &obs.Counter{}
	return newSessionHub(queueCap, delivered, nil), delivered
}

// TestSessionHubStalledReaderDoesNotBlockBroadcast is the tentpole's core
// property: dispatching an event must not wait on any subscriber's socket.
// One subscriber never reads; broadcast must still return promptly and the
// healthy subscriber must still get the notification.
func TestSessionHubStalledReaderDoesNotBlockBroadcast(t *testing.T) {
	hub, _ := newTestHub(0)
	healthy := hubConn(t, hub, "healthy", map[string]string{"bs1": "fs-h"})
	_ = hubConn(t, hub, "stalled", map[string]string{"bs1": "fs-s"}) // no reader: first write blocks

	done := make(chan int, 1)
	go func() {
		done <- hub.broadcast(context.Background(), "bs1", 42)
	}()
	select {
	case accepted := <-done:
		if accepted != 2 {
			t.Errorf("accepted = %d, want 2", accepted)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("broadcast blocked on a stalled subscriber")
	}

	ns := drainNotifications(t, healthy, 1)
	if ns[0].BackendSub != "bs1" || ns[0].LatestNS != 42 {
		t.Errorf("notification = %+v", ns[0])
	}
}

// TestSessionHubCoalescesLatestWins floods one frontend subscription while
// its writer is blocked; queued markers must merge latest-wins so the
// subscriber sees the newest marker, not a backlog.
func TestSessionHubCoalescesLatestWins(t *testing.T) {
	hub, delivered := newTestHub(0)
	// Four backend subscriptions all mapping to the same frontend
	// subscription: coalescing is keyed by the frontend sub, so markers
	// across them must merge.
	cNC := hubConn(t, hub, "alice", map[string]string{
		"ev-first": "fs1", "ev-old": "fs1", "ev-new": "fs1", "ev-stale": "fs1",
	})

	ctx := context.Background()
	// First event: a pool writer pops it immediately and blocks writing to
	// the unread pipe.
	hub.broadcast(ctx, "ev-first", 1)
	waitFor(t, func() bool { return hub.queueDepth() == 0 }, "writer to pop the first marker")

	// Two more for the same frontend sub while the writer is stuck: the
	// second must replace the first in place.
	hub.broadcast(ctx, "ev-old", 2)
	hub.broadcast(ctx, "ev-new", 3)
	// A stale marker (out-of-order fan-out) is discarded, not merged, and
	// must not inflate the coalesce tally.
	hub.broadcast(ctx, "ev-stale", 2)
	if got := hub.snapshot(); got.Coalesced != 1 || got.Dropped != 0 {
		t.Errorf("stats = %+v, want 1 coalesced, 0 dropped", got)
	}

	ns := drainNotifications(t, cNC, 2)
	if ns[0].BackendSub != "ev-first" {
		t.Errorf("first delivery = %+v", ns[0])
	}
	if ns[1].BackendSub != "ev-new" || ns[1].LatestNS != 3 {
		t.Errorf("coalesced delivery = %+v, want ev-new latest 3", ns[1])
	}
	waitFor(t, func() bool { return delivered.Value() == 2 }, "delivered counter")
}

// TestSessionHubOverflowDropsOldest fills a tiny queue with distinct
// frontend subscriptions; the oldest pending marker must be evicted.
func TestSessionHubOverflowDropsOldest(t *testing.T) {
	hub, _ := newTestHub(2)
	cNC := hubConn(t, hub, "alice", map[string]string{
		"ev0": "fs0", "ev1": "fs1", "ev2": "fs2", "ev3": "fs3",
	})

	ctx := context.Background()
	hub.broadcast(ctx, "ev0", 1)
	waitFor(t, func() bool { return hub.queueDepth() == 0 }, "writer to pop the first marker")
	hub.broadcast(ctx, "ev1", 2)
	hub.broadcast(ctx, "ev2", 3)
	hub.broadcast(ctx, "ev3", 4) // evicts ev1
	if got := hub.snapshot(); got.Dropped != 1 || got.QueueDepth != 2 {
		t.Errorf("stats = %+v, want 1 dropped with depth 2", got)
	}

	ns := drainNotifications(t, cNC, 3)
	want := []string{"ev0", "ev2", "ev3"}
	for i, n := range ns {
		if n.BackendSub != want[i] {
			t.Errorf("delivery %d = %+v, want %s", i, n, want[i])
		}
	}
}

// TestSessionHubWriteFailureDropsSession severs the transport under a
// session; the next delivery must fail, count as a push failure and take
// the session offline.
func TestSessionHubWriteFailureDropsSession(t *testing.T) {
	hub, _ := newTestHub(0)
	cNC := hubConn(t, hub, "alice", map[string]string{"bs1": "fs1"})
	_ = cNC.Close()

	hub.broadcast(context.Background(), "bs1", 1)
	waitFor(t, func() bool { return !hub.online("alice") }, "session teardown")
	if got := hub.snapshot(); got.Failures == 0 {
		t.Errorf("stats = %+v, want a recorded failure", got)
	}
	// The dropped session must also leave the interest index, or future
	// broadcasts would enqueue onto a corpse.
	waitFor(t, func() bool { return hub.audienceSize("bs1") == 0 }, "interest index cleanup")
}

// TestSessionHubRegisterWhileOnline exercises the subscribe-while-connected
// path: an interest registered after attach must route subsequent
// broadcasts, and deregister must stop them.
func TestSessionHubRegisterWhileOnline(t *testing.T) {
	hub, _ := newTestHub(0)
	cNC := hubConn(t, hub, "alice", nil)

	ctx := context.Background()
	if got := hub.broadcast(ctx, "bs1", 1); got != 0 {
		t.Errorf("broadcast before register accepted %d, want 0", got)
	}
	hub.register("alice", "bs1", "fs1")
	if got := hub.broadcast(ctx, "bs1", 2); got != 1 {
		t.Errorf("broadcast after register accepted %d, want 1", got)
	}
	ns := drainNotifications(t, cNC, 1)
	if ns[0].BackendSub != "bs1" || ns[0].LatestNS != 2 {
		t.Errorf("notification = %+v", ns[0])
	}
	hub.deregister("alice", "bs1")
	if got := hub.broadcast(ctx, "bs1", 3); got != 0 {
		t.Errorf("broadcast after deregister accepted %d, want 0", got)
	}
}

// TestSessionEnqueueCloseRace hammers enqueue against close on the same
// session. broadcast holds session pointers under the hub's read lock, so
// an enqueue can race the close that an attach-replace or drop triggers;
// no marker may be accepted after close.
func TestSessionEnqueueCloseRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		hub, _ := newTestHub(0)
		cNC := hubConn(t, hub, "alice", nil)
		go func() { _, _ = io.Copy(io.Discard, cNC) }()
		hub.mu.Lock()
		s := hub.sessions["alice"]
		hub.mu.Unlock()

		ev := &pushEvent{latest: 1}
		if err := ev.pm.Encode(wsock.OpText, []byte(`{"type":"results"}`)); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 200; j++ {
				s.enqueue("fs1", ev)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			s.close()
		}()
		close(start)
		wg.Wait()
		if s.enqueue("fs1", ev) {
			t.Fatal("enqueue accepted a marker after close")
		}
		hub.stop()
	}
}

// TestSessionHubChurn runs every way a session enters and leaves the hub
// — attach, replace by a re-attach of the same subscriber, detach,
// write-failure drop, rebalance — against broadcast, broadcastTo and stats
// scrapes, all concurrently, and checks what a lifecycle bug would break:
// a conn only ever receives frames enqueued for its own subscriber,
// markers per frontend sub never go backwards, and every enqueued marker
// ends exactly one way. The hub does not count markers discarded when a
// session closes, so that last term is bounded rather than equated.
func TestSessionHubChurn(t *testing.T) {
	const (
		nSubs, nShared = 6, 3
		rounds, quota  = 40, 300 // sessions per subscriber, events per producer (9 producers: 2700 events)
		queueCap       = 2       // below the 3 interests, so overflow evicts
	)
	hub, delivered := newTestHub(queueCap)
	ctx := context.Background()
	name := func(kind string, i int) string { return kind + itoa(i) }
	// Subscriber i follows its own backend sub and every shared one but
	// i%nShared, so each shared audience leaves someone out. One more
	// subscriber never reads: its queue backs up, so markers coalesce,
	// overflow evicts, and its pending write fails when the pipe closes.
	interests, stalled := make([]map[string]string, nSubs), map[string]string{}
	for k := 0; k < nShared; k++ {
		stalled[name("bs-shared", k)] = name("fs-stalled", k)
	}
	for i := range interests {
		interests[i] = map[string]string{name("bs-own", i): name("fs-own", i)}
		for k := 0; k < nShared; k++ {
			if k != i%nShared {
				interests[i][name("bs-shared", k)] = name("fs-shared", k) + "-" + itoa(i)
			}
		}
	}
	stalledNC := hubConn(t, hub, "stalled", stalled)

	var received, accepted, moved atomic.Int64
	var readers, churners, spinners sync.WaitGroup
	read := func(i int, cNC net.Conn) {
		defer readers.Done()
		conn, last := wsock.NewConn(cNC, true), map[string]int64{}
		for {
			var n PushNotification
			_, payload, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if err := json.Unmarshal(payload, &n); err != nil {
				t.Errorf("sub%d: undecodable frame %q: %v", i, payload, err)
			}
			if _, ok := interests[i][n.BackendSub]; !ok {
				t.Errorf("sub%d received a frame for %q, which it never followed", i, n.BackendSub)
			}
			if n.LatestNS < last[n.BackendSub] {
				t.Errorf("sub%d %s: marker went back from %d to %d", i, n.BackendSub, last[n.BackendSub], n.LatestNS)
			}
			last[n.BackendSub] = n.LatestNS
			received.Add(1)
		}
	}
	for i := 0; i < nSubs; i++ {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for r := 0; r < rounds; r++ {
				sNC, cNC := net.Pipe()
				readers.Add(1)
				go read(i, cNC)
				conn := wsock.NewConn(sNC, false)
				hub.attach(name("sub", i), conn, interests[i]) // replaces any live session
				runtime.Gosched()
				switch r % 4 {
				case 0:
					hub.detach(name("sub", i), conn)
				case 1:
					_ = cNC.Close() // the next write fails and drops the session
				} // 2, 3: left for the next attach or the rebalancer
			}
		}()
	}

	// spin repeats step until the churn is over, and at least quota times.
	done := make(chan struct{})
	spin := func(step func(n int64)) {
		spinners.Add(1)
		go func() {
			defer spinners.Done()
			for n := int64(1); ; n++ {
				select {
				case <-done:
					if n > quota {
						return
					}
				default:
				}
				step(n)
				runtime.Gosched() // let writers and readers in, or everything coalesces
			}
		}()
	}
	for i := 0; i < nSubs+nShared; i++ { // one producer per backend sub keeps its markers monotone
		bs, sub := name("bs-shared", i-nSubs), ""
		if i < nSubs {
			bs, sub = name("bs-own", i), name("sub", i)
		}
		spin(func(n int64) {
			if sub == "" || n%3 != 0 {
				accepted.Add(int64(hub.broadcast(ctx, bs, n)))
			} else if hub.broadcastTo(ctx, bs, sub, interests[i][bs], n) {
				accepted.Add(1)
			}
		})
	}
	spin(func(n int64) { // rebalancer
		mctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		defer cancel()
		moved.Add(int64(hub.rebalance(mctx, func(sub string) (string, bool) {
			return "http://successor", sub == name("sub", int(n)%nSubs)
		})))
	})
	spin(func(int64) { _ = hub.snapshot() }) // a /metrics scrape

	churners.Wait()
	close(done)
	spinners.Wait()
	_ = stalledNC.Close()
	hub.rebalance(ctx, func(string) (string, bool) { return "", true }) // flush and close what is left
	readers.Wait()
	waitFor(t, func() bool { return int64(delivered.Value()) == received.Load() }, "delivered counter to settle")
	hub.stop()

	st := hub.snapshot()
	if got := int64(st.Enqueued + st.Coalesced); got != accepted.Load() {
		t.Errorf("enqueued %d + coalesced %d = %d, but the hub accepted %d markers", st.Enqueued, st.Coalesced, got, accepted.Load())
	}
	// Only the churned sessions and the stalled one ever hold markers.
	discarded, most := int64(st.Enqueued)-received.Load()-int64(st.Failures)-int64(st.Dropped), int64((nSubs*rounds+1)*queueCap)
	if discarded < 0 || discarded > most {
		t.Errorf("enqueued %d != written %d + failed %d + evicted %d + discarded at close (%d outside [0, %d])",
			st.Enqueued, received.Load(), st.Failures, st.Dropped, discarded, most)
	}
	t.Logf("paths taken: %+v, rebalanced %d", st, moved.Load())
}
