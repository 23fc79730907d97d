package broker

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
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

// slowListener hands out connections whose every write first sleeps: a
// subscriber that reads slowly, as the broker's writers see it.
type slowListener struct {
	net.Listener
	delay time.Duration
}

func (l slowListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowConn{c, l.delay}, nil
}

type slowConn struct {
	net.Conn
	delay time.Duration
}

func (c slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// TestSocketReplyLane: a retrieval's reply skips the session's marker ring.
// With the ring full of 128 pending markers and every frame write taking
// 20 ms, the reply is written after the write in progress and at most one
// more — the pool writer may take the socket's write lock once more before
// sync.Mutex hands it to the reply, which has waited over a millisecond —
// not after the 128 queued frames.
func TestSocketReplyLane(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	fs, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 1)
	srv := httptest.NewUnstartedServer(NewServer(env.broker).Handler())
	srv.Listener = slowListener{srv.Listener, 20 * time.Millisecond}
	srv.Start()
	t.Cleanup(srv.Close)
	conn := dialSession(t, srv, "alice")

	// One marker in the writer's hands, DefaultPushQueue more in the ring.
	h := env.broker.sessions
	for i := 0; i <= DefaultPushQueue; i++ {
		bs := fmt.Sprintf("bs-%03d", i)
		h.register("alice", bs, fmt.Sprintf("fs-%03d", i))
		if h.broadcast(context.Background(), bs, int64(i+1)) != 1 {
			t.Fatalf("marker %d not queued", i)
		}
	}
	if depth := h.queueDepth(); depth != DefaultPushQueue {
		t.Fatalf("ring holds %d markers, want %d", depth, DefaultPushQueue)
	}
	if err := conn.WriteMessage(wsock.OpText, []byte(fmt.Sprintf(`{"get":%q,"id":1,"ack":0}`, fs))); err != nil {
		t.Fatal(err)
	}
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
	// 26, both ends and this test's frame included; the largest shares are
	// the three spans with their contexts (6) and the request's decode (5).
	// Over HTTP the broker's handler alone spends 34 on the same hit
	// (TestResultsRouteHitAllocs), before net/http's request and response.
	if allocs > 27 {
		t.Errorf("socket hit = %v allocs, want at most 27", allocs)
	}
}
