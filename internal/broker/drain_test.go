package broker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"gobad/internal/wsock"
)

// TestDrainMigratesAllSessions is the graceful-drain acceptance test: with
// well over a hundred live WebSocket sessions, each holding a queued push,
// a drain must flush every queue, close every socket with a migrate frame
// naming the successor, count every session, and refuse new work.
func TestDrainMigratesAllSessions(t *testing.T) {
	env, srv := newHTTPEnv(t)
	const nSessions = 120
	const successor = "http://successor-broker:18080"

	conns := make([]*wsock.Conn, nSessions)
	for i := 0; i < nSessions; i++ {
		sub := fmt.Sprintf("sub-%03d", i)
		if _, err := env.broker.Subscribe(sub, "Alerts", []any{"fire"}); err != nil {
			t.Fatal(err)
		}
		conn, err := wsock.Dial(srv.URL+"/v1/ws?subscriber="+sub, 5*time.Second)
		if err != nil {
			t.Fatalf("dial session %d: %v", i, err)
		}
		conns[i] = conn
		t.Cleanup(func() { _ = conn.Close() })
	}
	if got := env.broker.sessions.count(); got != nSessions {
		t.Fatalf("online sessions = %d, want %d", got, nSessions)
	}

	// One publication fans a push marker into every session's queue; the
	// drain must put each marker on the wire before the migrate frame.
	env.publish(t, "fire", 7)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if got := env.broker.Drain(ctx, successor); got != nSessions {
		t.Fatalf("Drain migrated %d sessions, want %d", got, nSessions)
	}
	if got := env.broker.Failover().DrainMigrated.Load(); got != nSessions {
		t.Errorf("bad_drain_migrated_sessions_total = %d, want %d", got, nSessions)
	}

	for i, conn := range conns {
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		// The queued push arrives first — nothing in-queue is lost...
		_, payload, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("session %d: queued push lost to the drain: %v", i, err)
		}
		var n PushNotification
		if err := json.Unmarshal(payload, &n); err != nil {
			t.Fatalf("session %d: bad push payload: %v", i, err)
		}
		// ...then the socket closes with the migrate frame.
		if _, _, err := conn.ReadMessage(); err == nil {
			t.Fatalf("session %d: socket still open after drain", i)
		}
		code, reason := conn.CloseStatus()
		if code != wsock.CloseServiceRestart || reason != successor {
			t.Fatalf("session %d: close = (%d, %q), want (%d, %q)",
				i, code, reason, wsock.CloseServiceRestart, successor)
		}
	}

	// A draining broker refuses new subscriptions (503 on the wire maps to
	// ErrDraining in-process) and new sessions.
	_, err := env.broker.SubscribeResume(context.Background(), "late", "Alerts", []any{"fire"}, NoResume)
	if !errors.Is(err, ErrDraining) {
		t.Errorf("SubscribeResume during drain = %v, want ErrDraining", err)
	}
	if _, err := wsock.Dial(srv.URL+"/v1/ws?subscriber=late", 2*time.Second); err == nil {
		t.Error("WebSocket attach during drain must be refused")
	}
}
