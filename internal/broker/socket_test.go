package broker

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/core"
	"gobad/internal/wsock"
)

// dialSession opens subscriber's notification socket on srv.
func dialSession(t *testing.T, srv *httptest.Server, subscriber string) *wsock.Conn {
	t.Helper()
	conn, err := wsock.Dial(srv.URL+"/v1/ws?subscriber="+subscriber, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// socketGet sends one retrieval request frame and returns its reply,
// skipping the push notifications that arrive before it (they carry no
// "re").
func socketGet(t *testing.T, conn *wsock.Conn, frame string) []byte {
	t.Helper()
	if err := conn.WriteMessage(wsock.OpText, []byte(frame)); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for {
		_, msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("no reply to %s: %v", frame, err)
		}
		if bytes.Contains(msg, []byte(`"re":`)) {
			return msg
		}
	}
}

// slowListener hands out connections whose every write first sleeps — a
// subscriber that reads slowly, as the broker's writers see it — and,
// while hold is set, waits for release before that.
type slowListener struct {
	net.Listener
	delay   time.Duration
	hold    *atomic.Bool
	release chan struct{}
}

// open lets held writes through, once.
func (l slowListener) open() {
	if l.hold.Swap(false) {
		close(l.release)
	}
}

func (l slowListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowConn{c, l}, nil
}

type slowConn struct {
	net.Conn
	l slowListener
}

func (c slowConn) Write(p []byte) (int, error) {
	if c.l.hold.Load() {
		<-c.l.release
	}
	time.Sleep(c.l.delay)
	return c.Conn.Write(p)
}

// inFlight is the broker's in-flight request gauge: its notification
// sockets plus the retrievals being served on them.
func inFlight(s *Server) float64 {
	for _, f := range s.Observer().Registry.Gather() {
		if f.Name == "http_requests_in_flight" {
			return f.Points[0].Value
		}
	}
	return 0
}

// TestSocketReplyLane: a retrieval's reply skips the session's marker ring.
// With the ring full of 128 pending markers and every frame write taking
// 20 ms, the reply is written after the write in progress and at most one
// more — the pool writer may take the socket's write lock once more before
// sync.Mutex hands it to the reply, which has waited over a millisecond —
// not after the 128 queued frames. Writes wait until the broker is serving
// the request, so every push frame counted was written after it arrived.
func TestSocketReplyLane(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	fs, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 1)
	s := NewServer(env.broker)
	srv := httptest.NewUnstartedServer(s.Handler())
	sl := slowListener{srv.Listener, 20 * time.Millisecond, new(atomic.Bool), make(chan struct{})}
	srv.Listener = sl
	srv.Start()
	t.Cleanup(srv.Close)
	conn := dialSession(t, srv, "alice")
	sl.hold.Store(true)
	t.Cleanup(sl.open)

	// One marker in the writer's hands, held at the gate, then
	// DefaultPushQueue more in the ring.
	h := env.broker.sessions
	for i := 0; i <= DefaultPushQueue; i++ {
		bs := fmt.Sprintf("bs-%03d", i)
		h.register("alice", bs, fmt.Sprintf("fs-%03d", i))
		if h.broadcast(context.Background(), bs, int64(i+1)) != 1 {
			t.Fatalf("marker %d not queued", i)
		}
		for deadline := time.Now().Add(10 * time.Second); i == 0 && h.queueDepth() != 0; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("no writer took the first marker")
			}
		}
	}
	if depth := h.queueDepth(); depth != DefaultPushQueue {
		t.Fatalf("ring holds %d markers, want %d", depth, DefaultPushQueue)
	}
	sockets := inFlight(s)
	if err := conn.WriteMessage(wsock.OpText, []byte(fmt.Sprintf(`{"get":%q,"id":1,"ack":0}`, fs))); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); inFlight(s) == sockets; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the broker never began serving the request")
		}
	}
	sl.open()
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	pushes := 0
	for {
		_, msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("no reply after %d push frames: %v", pushes, err)
		}
		if bytes.Contains(msg, []byte(`"re":1`)) {
			if !bytes.Contains(msg, []byte(`"from_cache":true`)) {
				t.Errorf("reply %s, want the cached result", msg)
			}
			break
		}
		pushes++
	}
	if pushes > 2 {
		t.Errorf("the reply waited behind %d push frames, want at most 2", pushes)
	}
}

// TestSocketInboundFrameBound: a message over the inbound cap closes that
// subscriber's socket, and every other session keeps receiving.
func TestSocketInboundFrameBound(t *testing.T) {
	env, srv := newHTTPEnv(t)
	for _, sub := range []string{"alice", "bob"} {
		if _, err := env.broker.Subscribe(sub, "Alerts", []any{"fire"}); err != nil {
			t.Fatal(err)
		}
	}
	alice, bob := dialSession(t, srv, "alice"), dialSession(t, srv, "bob")
	// The broker stops reading at the header, so the write may fail.
	_ = alice.WriteMessage(wsock.OpText, make([]byte, 64<<10+1))
	if err := alice.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := alice.ReadMessage(); err == nil {
		t.Fatal("an oversize message left the socket open")
	}
	for deadline := time.Now().Add(5 * time.Second); env.broker.Online("alice"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("alice's session outlived its socket")
		}
	}
	env.publish(t, "fire", 1)
	if err := bob.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, msg, err := bob.ReadMessage(); err != nil || !bytes.Contains(msg, []byte(`"type":"results"`)) {
		t.Fatalf("bob's session after alice's was closed: %s, %v; want a push", msg, err)
	}
	if !env.broker.Online("bob") {
		t.Error("bob went offline")
	}
}

// TestSocketHitAllocs bounds one retrieval over the notification socket
// that the cache answers with a ~700-byte object: both ends of the socket,
// the request frame's write to the reply frame's read, the broker's span,
// series and access line included.
func TestSocketHitAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates on its own")
	}
	b, fs := hitEnv(t)
	srv := httptest.NewServer(NewServer(b).Handler())
	t.Cleanup(srv.Close)
	conn := dialSession(t, srv, "alice")
	frame := fmt.Sprintf(`{"get":%q,"id":1,"ack":0}`, fs)
	get := func() {
		if reply := socketGet(t, conn, frame); !bytes.Contains(reply, []byte(`"from_cache":true`)) {
			t.Fatalf("reply %s, want a cache hit", reply)
		}
	}
	get()
	allocs := testing.AllocsPerRun(100, get)
	// 12, both ends and this test's frame included: the three spans, each
	// its own context node, the request's decode (one, the frame's
	// string), and a request ID that nothing reads costs nothing. With a
	// node per span, the request ID's node and string and the frame
	// headers' reads moved to the heap it spent 22. Over HTTP the broker's
	// handler alone spends 31 on the same hit (TestResultsRouteHitAllocs),
	// before net/http's request and response.
	if allocs > 12 {
		t.Errorf("socket hit = %v allocs, want at most 12", allocs)
	}
}
