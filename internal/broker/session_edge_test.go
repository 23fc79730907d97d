package broker

import (
	"context"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"gobad/internal/wsock"
)

// newTestEvent builds a standalone event for direct-queue tests.
func newTestEvent(t *testing.T, h *sessionHub, bs string, latest int64) *pushEvent {
	t.Helper()
	ev, ok := h.newEvent(context.Background(), bs, latest)
	if !ok {
		t.Fatalf("newEvent(%s, %d) failed", bs, latest)
	}
	return ev
}

// unscheduledSession builds a session outside the hub's writer pool (never
// attached, writers never started), so queued markers stay queued and the
// tests can assert on exact queue contents.
func unscheduledSession(h *sessionHub) (*session, net.Conn) {
	sNC, cNC := net.Pipe()
	return newSession(h, "edge", wsock.NewConn(sNC, false)), cNC
}

// TestSessionWriteQueueEdgeCases drives the session write queue through
// its boundary conditions: configuration floors, eviction at capacity one,
// enqueue racing close, and coalescing against a draining session. Run
// under the race tier.
func TestSessionWriteQueueEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"ZeroCapacityQueueSelectsDefault", func(t *testing.T) {
			// A zero (or negative) queue capacity must never mean "drop
			// everything": the hub floors it to DefaultPushQueue.
			for _, capacity := range []int{0, -5} {
				hub, _ := newTestHub(capacity)
				if hub.queueCap != DefaultPushQueue {
					t.Fatalf("queueCap(%d) = %d, want %d", capacity, hub.queueCap, DefaultPushQueue)
				}
				s, cNC := unscheduledSession(hub)
				defer cNC.Close()
				if !s.enqueue("fs1", newTestEvent(t, hub, "bs", 1)) {
					t.Fatal("enqueue on floored queue rejected a marker")
				}
				if got := s.queuedLen(); got != 1 {
					t.Fatalf("queuedLen = %d, want 1", got)
				}
			}
		}},
		{"CapacityOneEvictsOldestDistinct", func(t *testing.T) {
			// At capacity one every distinct frontend subscription evicts
			// the previous pending marker; only the newest survives.
			hub, _ := newTestHub(1)
			s, cNC := unscheduledSession(hub)
			defer cNC.Close()
			for i, fs := range []string{"fs1", "fs2", "fs3"} {
				if !s.enqueue(fs, newTestEvent(t, hub, "bs", int64(i+1))) {
					t.Fatalf("enqueue %s rejected", fs)
				}
			}
			if got := s.queuedLen(); got != 1 {
				t.Fatalf("queuedLen = %d, want 1", got)
			}
			if got := hub.stats.dropped.Load(); got != 2 {
				t.Fatalf("dropped = %d, want 2", got)
			}
			fs, ev, ok := s.pop()
			if !ok || fs != "fs3" || ev.latest != 3 {
				t.Fatalf("surviving marker = (%q, %v, %v), want fs3/3", fs, ev, ok)
			}
			s.wrote()
		}},
		{"SameSubCoalescesAtCapacityOne", func(t *testing.T) {
			// Same frontend subscription at capacity one: latest-wins
			// replacement, no eviction, stale markers discarded.
			hub, _ := newTestHub(1)
			s, cNC := unscheduledSession(hub)
			defer cNC.Close()
			s.enqueue("fs1", newTestEvent(t, hub, "bs", 5))
			s.enqueue("fs1", newTestEvent(t, hub, "bs", 9))
			s.enqueue("fs1", newTestEvent(t, hub, "bs", 7)) // stale: discarded
			if got := hub.stats.dropped.Load(); got != 0 {
				t.Fatalf("dropped = %d, want 0", got)
			}
			if got := hub.stats.coalesced.Load(); got != 1 {
				t.Fatalf("coalesced = %d, want 1 (stale replay must not count)", got)
			}
			_, ev, ok := s.pop()
			if !ok || ev.latest != 9 {
				t.Fatalf("surviving marker latest = %v, want 9", ev.latest)
			}
			s.wrote()
		}},
		{"EnqueueRacingClose", func(t *testing.T) {
			// Concurrent enqueues against close: no panic, no marker
			// accepted after close wins, and the queue is left empty.
			hub, _ := newTestHub(0)
			s, cNC := unscheduledSession(hub)
			defer cNC.Close()
			var wg sync.WaitGroup
			start := make(chan struct{})
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 500; j++ {
					s.enqueue("fs1", newTestEvent(t, hub, "bs", int64(j)))
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				s.close()
			}()
			close(start)
			wg.Wait()
			if s.enqueue("fs1", newTestEvent(t, hub, "bs", 999)) {
				t.Fatal("enqueue accepted a marker after close")
			}
			if got := s.queuedLen(); got != 0 {
				t.Fatalf("closed session still queues %d markers", got)
			}
		}},
		{"CoalesceAcrossDrainingSession", func(t *testing.T) {
			// Markers enqueued while the session drains must coalesce
			// latest-wins and flush before the migrate close frame.
			hub, _ := newTestHub(0)
			cNC := hubConn(t, hub, "alice", map[string]string{"bs1": "fs1"})

			ctx := context.Background()
			// First marker: a pool writer pops it and blocks on the unread
			// pipe, holding the session mid-flush.
			hub.broadcast(ctx, "bs1", 1)
			waitFor(t, func() bool { return hub.queueDepth() == 0 }, "writer to pop the first marker")
			// Queue two more while blocked: they must merge to one.
			hub.broadcast(ctx, "bs1", 2)
			hub.broadcast(ctx, "bs1", 3)

			drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			done := make(chan int, 1)
			go func() { done <- hub.drain(drainCtx, "ws://successor") }()

			// The subscriber must see marker 1, the coalesced marker 3,
			// and then the migrate close frame naming the successor.
			conn := wsock.NewConn(cNC, true)
			_ = cNC.SetReadDeadline(time.Now().Add(5 * time.Second))
			var latests []int64
			for {
				_, payload, err := conn.ReadMessage()
				if err != nil {
					break
				}
				var n PushNotification
				if err := json.Unmarshal(payload, &n); err != nil {
					t.Fatalf("bad push payload: %v", err)
				}
				latests = append(latests, n.LatestNS)
			}
			if len(latests) != 2 || latests[0] != 1 || latests[1] != 3 {
				t.Fatalf("delivered markers = %v, want [1 3]", latests)
			}
			if code, reason := conn.CloseStatus(); code != wsock.CloseServiceRestart || reason != "ws://successor" {
				t.Fatalf("close frame = (%d, %q), want (%d, ws://successor)", code, reason, wsock.CloseServiceRestart)
			}
			if n := <-done; n != 1 {
				t.Fatalf("drain migrated %d sessions, want 1", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
