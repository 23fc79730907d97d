package broker

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"gobad/internal/metrics"
	"gobad/internal/workload"
	"gobad/internal/wsock"
)

// This file is the session-hub soak harness behind `make soak` and
// cmd/badsoak: it stands up N simulated WebSocket sessions (in-process
// fake conns, no kernel sockets) with Zipf-skewed subscription interest,
// churns a fraction of them, then measures dispatch latency, allocations
// and memory per session. The committed BENCH_soak.json records its
// output and cmd/benchguard gates regressions against it, the same way
// BENCH_fanout.json gates the fan-out microbenchmark.

// SoakConfig parameterizes one soak run.
type SoakConfig struct {
	// Sessions is the number of simulated WebSocket sessions.
	Sessions int
	// BackendSubs is the size of the backend-subscription pool sessions
	// draw their interest from; <= 0 selects 1000.
	BackendSubs int
	// ZipfS is the Zipf skew of interest assignment and event traffic
	// (>1 is steeper; the BAD workload is head-heavy); <= 0 selects 0.9.
	ZipfS float64
	// Events is the number of dispatch events measured; <= 0 selects 2000.
	Events int
	// ChurnFraction is the fraction of sessions disconnected and
	// re-attached (with a fresh interest) before the dispatch phase,
	// modeling subscriber churn; negative selects 0.1.
	ChurnFraction float64
	// QueueCap bounds each session's push queue; <= 0 selects the
	// broker default.
	QueueCap int
	// Seed fixes the run's randomness (interest assignment, churn picks,
	// event traffic); 0 selects 1.
	Seed int64
	// Progress, when non-nil, receives coarse phase updates.
	Progress func(format string, args ...any)
}

// SoakResult is one soak run's measurements.
type SoakResult struct {
	Sessions    int   `json:"sessions"`
	BackendSubs int   `json:"backend_subs"`
	Events      int   `json:"events"`
	Churned     int   `json:"churned"`
	Goroutines  int   `json:"goroutines"`
	PushWriters int   `json:"push_writers"`
	RSSBytes    int64 `json:"rss_bytes"`
	// RSSPerSession is the resident-set growth per attached session
	// (process RSS after attach minus before, over sessions).
	RSSPerSession float64 `json:"rss_bytes_per_session"`
	// HeapPerSession is the post-GC heap-in-use growth per session.
	HeapPerSession float64 `json:"heap_bytes_per_session"`
	// DispatchP50/P99 are percentiles of one broadcast call's latency —
	// resolving the Zipf-drawn audience and enqueueing every marker, no
	// socket I/O.
	DispatchP50 time.Duration `json:"dispatch_p50_ns"`
	DispatchP99 time.Duration `json:"dispatch_p99_ns"`
	// AllocsPerOp is the process-wide allocation count over the dispatch
	// phase divided by events (includes the concurrent writer drain).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Frames/Bytes count what the writer pool actually put on the wire.
	Frames int64 `json:"frames"`
	Bytes  int64 `json:"bytes"`
	// DrainWait is how long after the last dispatch the writer pool
	// needed to empty every session queue.
	DrainWait time.Duration `json:"drain_wait_ns"`
}

// soakConn is a net.Conn standing in for a subscriber that always keeps
// up: writes are counted and discarded, reads block until close. No
// kernel socket and no reader goroutine, so a 100k-session soak measures
// the hub, not the test scaffolding.
type soakConn struct {
	closed chan struct{}
	bytes  *atomic.Int64
	frames *atomic.Int64
}

func newSoakConn(bytes, frames *atomic.Int64) *soakConn {
	return &soakConn{closed: make(chan struct{}), bytes: bytes, frames: frames}
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
	c.bytes.Add(int64(len(b)))
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
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	s := string(data)
	for start := 0; start < len(s); {
		end := start
		for end < len(s) && s[end] != '\n' {
			end++
		}
		var kb int64
		if n, _ := fmt.Sscanf(s[start:end], "VmRSS: %d kB", &kb); n == 1 {
			return kb << 10
		}
		start = end + 1
	}
	return 0
}

// RunSoak executes one soak run against a fresh session hub: attach,
// churn, dispatch, drain — measuring as it goes.
func RunSoak(cfg SoakConfig) (SoakResult, error) {
	if cfg.Sessions <= 0 {
		return SoakResult{}, fmt.Errorf("soak: Sessions must be positive, got %d", cfg.Sessions)
	}
	if cfg.BackendSubs <= 0 {
		cfg.BackendSubs = 1000
	}
	if cfg.ZipfS <= 0 {
		cfg.ZipfS = 0.9
	}
	if cfg.Events <= 0 {
		cfg.Events = 2000
	}
	if cfg.ChurnFraction < 0 {
		cfg.ChurnFraction = 0.1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}

	zipf, err := workload.NewZipf(cfg.BackendSubs, cfg.ZipfS)
	if err != nil {
		return SoakResult{}, fmt.Errorf("soak: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	hub := newSessionHub(cfg.QueueCap, &metrics.Counter{}, nil)
	defer hub.stop()

	var bytes, frames atomic.Int64
	bsName := make([]string, cfg.BackendSubs)
	for i := range bsName {
		bsName[i] = fmt.Sprintf("bs-%04d", i)
	}

	res := SoakResult{
		Sessions:    cfg.Sessions,
		BackendSubs: cfg.BackendSubs,
		Events:      cfg.Events,
		PushWriters: hub.writers,
	}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rss0 := readRSS()

	progress("attaching %d sessions (%d backend subs, zipf s=%.2f)",
		cfg.Sessions, cfg.BackendSubs, cfg.ZipfS)
	subs := make([]string, cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		subs[i] = fmt.Sprintf("sub-%06d", i)
		bs := bsName[zipf.Sample(rng)]
		hub.attach(subs[i], wsock.NewConn(newSoakConn(&bytes, &frames), false),
			map[string]string{bs: "fs-" + subs[i]})
	}

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	rss1 := readRSS()
	res.RSSBytes = rss1
	res.RSSPerSession = float64(rss1-rss0) / float64(cfg.Sessions)
	res.HeapPerSession = float64(int64(m1.HeapInuse)-int64(m0.HeapInuse)) / float64(cfg.Sessions)
	res.Goroutines = runtime.NumGoroutine()

	// Churn: disconnect and re-attach a fraction of sessions with fresh
	// interests, exercising detach/attach-replace under load before
	// anything is measured hot.
	churn := int(float64(cfg.Sessions) * cfg.ChurnFraction)
	if churn > 0 {
		progress("churning %d sessions", churn)
		for i := 0; i < churn; i++ {
			sub := subs[rng.Intn(len(subs))]
			bs := bsName[zipf.Sample(rng)]
			conn := wsock.NewConn(newSoakConn(&bytes, &frames), false)
			hub.attach(sub, conn, map[string]string{bs: "fs-" + sub})
		}
		res.Churned = churn
	}

	progress("dispatching %d events", cfg.Events)
	ctx := context.Background()
	lat := make([]time.Duration, cfg.Events)
	var ma, mb runtime.MemStats
	runtime.ReadMemStats(&ma)
	for e := 0; e < cfg.Events; e++ {
		bs := bsName[zipf.Sample(rng)]
		start := time.Now()
		hub.broadcast(ctx, bs, int64(e+1))
		lat[e] = time.Since(start)
	}
	runtime.ReadMemStats(&mb)
	res.AllocsPerOp = float64(mb.Mallocs-ma.Mallocs) / float64(cfg.Events)

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.DispatchP50 = lat[len(lat)/2]
	res.DispatchP99 = lat[len(lat)*99/100]

	// Let the writer pool flush every queue so Frames/Bytes reflect the
	// full run; bounded so a wedged pool fails loudly instead of hanging.
	drainStart := time.Now()
	deadline := drainStart.Add(2 * time.Minute)
	for hub.queueDepth() > 0 {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("soak: writer pool failed to drain (%d markers stuck)", hub.queueDepth())
		}
		time.Sleep(time.Millisecond)
	}
	res.DrainWait = time.Since(drainStart)
	res.Frames = frames.Load()
	res.Bytes = bytes.Load()
	progress("drained in %v: %d frames, %d bytes", res.DrainWait, res.Frames, res.Bytes)
	return res, nil
}
