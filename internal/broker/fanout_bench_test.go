package broker

import (
	"context"
	"io"
	"net"
	"sort"
	"testing"
	"time"

	"gobad/internal/wsock"
)

const benchSubscribers = 1000

// benchHub builds a hub with the given number of drained in-memory
// sessions plus one whose peer never reads — the pathological slow
// subscriber the async pipeline must not wait on.
func benchHub(b *testing.B, drained int) *sessionHub {
	b.Helper()
	hub, _ := newTestHub(0)
	for i := 0; i < drained; i++ {
		sub := "sub" + itoa(i)
		sNC, cNC := net.Pipe()
		go func() { _, _ = io.Copy(io.Discard, cNC) }()
		hub.attach(sub, wsock.NewConn(sNC, false), map[string]string{"bs-bench": "fs-" + sub})
		b.Cleanup(func() { _ = cNC.Close() })
	}
	sNC, cNC := net.Pipe()
	hub.attach("stalled", wsock.NewConn(sNC, false), map[string]string{"bs-bench": "fs-stalled"})
	b.Cleanup(func() { _ = cNC.Close() })
	return hub
}

// itoa avoids fmt in the hot setup loop.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkFanout measures dispatching one backend-subscription event to
// 1000 drained subscribers plus one stalled one through the async
// pipeline: encode once, enqueue per session, never block on a socket.
// p99-dispatch-ns reports the 99th-percentile latency of a full dispatch
// call — with a stalled subscriber in the set, it must stay in the same
// range as the drained-only case, because enqueueing does no I/O.
func BenchmarkFanout(b *testing.B) {
	hub := benchHub(b, benchSubscribers)
	ctx := context.Background()
	lat := make([]time.Duration, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		hub.broadcast(ctx, "bs-bench", int64(i+1))
		lat[i] = time.Since(start)
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-dispatch-ns")
}
