package broker

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/workload"
	"gobad/internal/wsock"
)

// The session-hub soak behind `make soak`: N simulated WebSocket sessions
// (in-process fake conns, no kernel sockets) with Zipf-skewed subscription
// interest, a tenth of them churned, then b.N dispatch events — measuring
// memory per session, dispatch latency and allocations. BENCH_soak.json
// records it and `make bench-guard` gates the 10k row, the same way
// BENCH_fanout.json gates BenchmarkFanout. The scales in committed use are
// the two rows of soakSessions; another scale is one more entry there.
var soakSessions = []int{10000, 100000}

const (
	soakBackendSubs = 1000 // pool the sessions draw their interest from
	soakZipfS       = 0.9  // skew of interest and event traffic: head-heavy, like the BAD workload
	soakChurn       = 0.1  // fraction of sessions re-attached before dispatch
	soakSeed        = 1
)

// soakConn is a net.Conn standing in for a subscriber that always keeps
// up: writes are counted and discarded, reads block until close. No
// kernel socket and no reader goroutine, so a 100k-session soak measures
// the hub, not the test scaffolding.
type soakConn struct {
	closed chan struct{}
	frames *atomic.Int64
}

func (c *soakConn) Read(b []byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *soakConn) Write(b []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	c.frames.Add(1)
	return len(b), nil
}

func (c *soakConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

func (c *soakConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *soakConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *soakConn) SetDeadline(t time.Time) error      { return nil }
func (c *soakConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *soakConn) SetWriteDeadline(t time.Time) error { return nil }

// readRSS returns the process resident set size in bytes (0 when
// /proc/self/status is unavailable, e.g. non-Linux).
func readRSS() int64 {
	data, _ := os.ReadFile("/proc/self/status")
	_, rest, _ := strings.Cut(string(data), "VmRSS:")
	var kb int64
	_, _ = fmt.Sscanf(rest, "%d kB", &kb)
	return kb << 10
}

// BenchmarkSoak is one soak per session count: attach, churn, dispatch
// b.N events, drain. ns/op and allocs/op are per dispatch event
// (process-wide, so the concurrent writer drain is included);
// p50/p99-dispatch-ns are percentiles of one broadcast call — resolving
// the Zipf-drawn audience and enqueueing every marker, no socket I/O.
func BenchmarkSoak(b *testing.B) {
	for _, sessions := range soakSessions {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			if testing.Short() && sessions > soakSessions[0] {
				b.Skip("the smoke run soaks the smallest scale only")
			}
			soak(b, sessions)
		})
	}
}

func soak(b *testing.B, sessions int) {
	zipf, err := workload.NewZipf(soakBackendSubs, soakZipfS)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(soakSeed))
	hub, _ := newTestHub(0)
	defer hub.stop()
	var frames atomic.Int64
	newConn := func() *wsock.Conn {
		return wsock.NewConn(&soakConn{closed: make(chan struct{}), frames: &frames}, false)
	}
	bsName := make([]string, soakBackendSubs)
	for i := range bsName {
		bsName[i] = fmt.Sprintf("bs-%04d", i)
	}

	// The testing package calls this function more than once per process
	// (a b.N=1 probe, the other scales), so what earlier calls freed goes
	// back to the OS first: the RSS delta below is then this call's
	// sessions, as it was when each soak had a process of its own.
	debug.FreeOSMemory()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rss0 := readRSS()

	subs := make([]string, sessions)
	for i := range subs {
		subs[i] = fmt.Sprintf("sub-%06d", i)
		bs := bsName[zipf.Sample(rng)]
		hub.attach(subs[i], newConn(), map[string]string{bs: "fs-" + subs[i]})
	}

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	rssPerSession := float64(readRSS()-rss0) / float64(sessions)
	heapPerSession := float64(int64(m1.HeapInuse)-int64(m0.HeapInuse)) / float64(sessions)
	goroutines := runtime.NumGoroutine()

	// Churn: disconnect and re-attach a fraction of sessions with fresh
	// interests, exercising detach/attach-replace under load before
	// anything is measured hot.
	for i := 0; i < int(float64(sessions)*soakChurn); i++ {
		sub := subs[rng.Intn(len(subs))]
		bs := bsName[zipf.Sample(rng)]
		hub.attach(sub, newConn(), map[string]string{bs: "fs-" + sub})
	}

	ctx := context.Background()
	lat := make([]time.Duration, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for e := 0; e < b.N; e++ {
		bs := bsName[zipf.Sample(rng)]
		start := time.Now()
		hub.broadcast(ctx, bs, int64(e+1))
		lat[e] = time.Since(start)
	}
	b.StopTimer()

	// Let the writer pool flush every queue so frames reflects the full
	// run; bounded so a wedged pool fails loudly instead of hanging.
	deadline := time.Now().Add(2 * time.Minute)
	for hub.queueDepth() > 0 {
		if time.Now().After(deadline) {
			b.Fatalf("writer pool failed to drain (%d markers stuck)", hub.queueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-dispatch-ns")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-dispatch-ns")
	b.ReportMetric(rssPerSession, "rss-bytes/session")
	b.ReportMetric(heapPerSession, "heap-bytes/session")
	b.ReportMetric(float64(goroutines), "goroutines")
	b.ReportMetric(float64(frames.Load()), "frames")
}
