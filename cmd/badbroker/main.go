// Command badbroker runs a BAD broker node: it subscribes to the data
// cluster on its clients' behalf, caches channel results under the chosen
// policy, serves the client-facing REST+WebSocket API and (optionally)
// registers with a Broker Coordination Service.
//
// Usage:
//
//	badbroker -addr :18080 -cluster http://127.0.0.1:19002 \
//	          -policy lsc -budget 64MB \
//	          [-bcs http://127.0.0.1:18000] [-public http://myhost:18080]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/cliutil"
	"gobad/internal/core"
	"gobad/internal/httpx"
)

func main() {
	addr := flag.String("addr", ":18080", "listen address")
	public := flag.String("public", "", "public base URL (default http://127.0.0.1<addr>)")
	clusterURL := flag.String("cluster", "http://127.0.0.1:19002", "data cluster base URL")
	bcsURL := flag.String("bcs", "", "BCS base URL (optional)")
	id := flag.String("id", "broker-1", "broker id")
	policyName := flag.String("policy", "lsc", "caching policy: lru|lsc|lscz|lsd|exp|ttl|nc")
	budgetStr := flag.String("budget", "64MB", "cache budget")
	ttlInterval := flag.Duration("ttl-interval", time.Minute, "TTL recompute interval")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful drain deadline on SIGTERM: queued pushes are flushed and sessions migrated within this bound")
	cacheSnapshot := flag.String("cache-snapshot", "", "warm cache snapshot path: written on graceful shutdown and restored (readiness-gated) on the next start (empty = off)")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	debugAddr := flag.String("debug-addr", "", "debug listen address for pprof and /debug/runtime (empty = off)")
	traceOut := flag.String("trace-out", "", "write retained traces as JSON to this path on shutdown (\"-\" = stdout, empty = off)")
	res := resilienceFlags{}
	flag.IntVar(&res.retries, "cluster-retries", 4, "max attempts per cluster call (1 = no retries)")
	flag.DurationVar(&res.retryBase, "retry-base", 100*time.Millisecond, "base backoff between cluster retries")
	flag.DurationVar(&res.retryMax, "retry-max", 2*time.Second, "backoff cap between cluster retries")
	flag.IntVar(&res.breakerFailures, "breaker-failures", 5, "consecutive cluster failures that trip the circuit open (0 = no breaker)")
	flag.DurationVar(&res.breakerOpen, "breaker-open", 10*time.Second, "how long a tripped circuit stays open before probing")
	flag.BoolVar(&res.staleServe, "stale-serve", true, "serve cached results stale (zero ack marker) when a cluster fetch fails")
	flag.Parse()

	if err := run(*addr, *public, *clusterURL, *bcsURL, *id, *policyName, *budgetStr, *ttlInterval, *drainTimeout, *cacheSnapshot, *logLevel, *debugAddr, *traceOut, res); err != nil {
		fmt.Fprintln(os.Stderr, "badbroker:", err)
		os.Exit(1)
	}
}

// resilienceFlags groups the cluster-facing fault-tolerance knobs: the
// retry schedule and circuit breaker on the bdms client, and stale-serve on
// the broker cache.
type resilienceFlags struct {
	retries         int
	retryBase       time.Duration
	retryMax        time.Duration
	breakerFailures int
	breakerOpen     time.Duration
	staleServe      bool
}

func run(addr, public, clusterURL, bcsURL, id, policyName, budgetStr string, ttlInterval, drainTimeout time.Duration, cacheSnapshot string, logLevel, debugAddr, traceOut string, res resilienceFlags) error {
	observer, err := cliutil.NewObserver("badbroker", logLevel)
	if err != nil {
		return err
	}
	stopDebug := cliutil.StartDebug(debugAddr, observer.Logger)
	defer stopDebug()
	policy, err := core.PolicyByName(policyName)
	if err != nil {
		return err
	}
	budget, err := cliutil.ParseBytes(budgetStr)
	if err != nil {
		return err
	}
	if public == "" {
		public = "http://127.0.0.1" + addr
		if !strings.HasPrefix(addr, ":") {
			public = "http://" + addr
		}
	}

	// The cluster client runs retry-around-breaker; both surfaces export
	// their counters on this broker's /metrics.
	retryStats := &httpx.RetryStats{}
	var clientOpts []bdms.ClientOption
	if res.retries > 1 {
		clientOpts = append(clientOpts, bdms.WithClientRetryer(&httpx.Retryer{
			MaxAttempts: res.retries,
			BaseDelay:   res.retryBase,
			MaxDelay:    res.retryMax,
			Stats:       retryStats,
		}))
		observer.Registry.MustRegister(retryStats.Collector())
	}
	if res.breakerFailures > 0 {
		breakers := httpx.NewBreakerSet(httpx.BreakerConfig{
			FailureThreshold: res.breakerFailures,
			OpenTimeout:      res.breakerOpen,
		})
		clientOpts = append(clientOpts, bdms.WithClientBreaker(breakers.For("cluster")))
		observer.Registry.MustRegister(breakers.Collector())
	}

	b, err := broker.New(broker.Config{
		ID:          id,
		Backend:     bdms.NewClient(clusterURL, nil, clientOpts...),
		CallbackURL: public + "/v1/callbacks/results",
		Policy:      policy,
		CacheBudget: budget,
		TTL:         core.TTLConfig{RecomputeInterval: ttlInterval},
		Logger:      observer.Logger,
		StaleServe:  res.staleServe,
	})
	if err != nil {
		return err
	}

	// TTL machinery (no-op for non-TTL policies).
	if policy.StampTTL() {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			ticker := time.NewTicker(ttlInterval)
			defer ticker.Stop()
			expire := time.NewTicker(time.Second)
			defer expire.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					b.DriveTTL()
				case <-expire.C:
					b.ExpireDue()
				}
			}
		}()
	}

	// Cold-start restore: a warm cache snapshot from the previous run gates
	// readiness — the broker registers "warming" (excluded from BCS
	// placement) until the snapshot is installed.
	var restoreSnap *bdms.CacheSnapshot
	if cacheSnapshot != "" {
		snap, rerr := readCacheSnapshot(cacheSnapshot)
		switch {
		case rerr == nil:
			restoreSnap = snap
			b.SetWarming(true)
		case !errors.Is(rerr, fs.ErrNotExist):
			observer.Logger.Warn("cache snapshot unreadable; starting cold",
				"path", cacheSnapshot, "err", rerr)
		}
	}

	// With a BCS configured, the broker joins the cooperative fabric: its
	// heartbeat answers carry the membership ring, and HRW rebalance
	// migrates sessions whenever membership changes.
	var bcsClient *bcs.Client
	var reg *broker.Registration
	if bcsURL != "" {
		bcsClient = bcs.NewClient(bcsURL, nil)
		reg, err = broker.RegisterWithBCS(b, bcsClient, public, 5*time.Second)
		if err != nil {
			return err
		}
		defer reg.Close()
		log.Printf("registered with BCS at %s as %s", bcsURL, id)
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           broker.NewServer(b, broker.WithObserver(observer)).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	log.Printf("badbroker %s listening on %s (policy %s, budget %s, cluster %s)",
		id, addr, policy.Name(), budgetStr, clusterURL)

	if restoreSnap != nil {
		go func() {
			resp := b.InstallWarmup(context.Background(), *restoreSnap)
			b.SetWarming(false)
			log.Printf("badbroker %s: warm snapshot restored (applied %d, stashed %d, dropped %d)",
				id, resp.Applied, resp.Stashed, resp.Dropped)
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigCh)
	select {
	case err := <-serveErr:
		cliutil.DumpTraces(traceOut, observer.Traces, observer.Logger)
		return err
	case sig := <-sigCh:
		log.Printf("badbroker %s: %v received; draining sessions", id, sig)
	}
	defer cliutil.DumpTraces(traceOut, observer.Traces, observer.Logger)

	// Warm handoff: serialize the result caches' warm entries BEFORE the
	// drain touches anything, keep a local copy for this broker's own
	// restart, and ship the snapshot to the successor below.
	var handoff *bdms.CacheSnapshot
	if cacheSnapshot != "" || bcsClient != nil {
		snap := b.SnapshotCache()
		handoff = &snap
		if cacheSnapshot != "" {
			if werr := writeCacheSnapshot(cacheSnapshot, snap); werr != nil {
				log.Printf("badbroker %s: cache snapshot write failed: %v", id, werr)
			} else {
				log.Printf("badbroker %s: cache snapshot written to %s (%d entries)",
					id, cacheSnapshot, len(snap.Entries))
			}
		}
	}

	// Graceful drain: leave the BCS first so no new subscribers are routed
	// here (and the successor placement below cannot pick this broker), then
	// flush every session's queue and hand the sessions a migrate frame
	// naming a live successor, all within the drain deadline.
	if reg != nil {
		reg.Close()
	}
	successor := ""
	if bcsClient != nil {
		if resp, aerr := bcsClient.Place("", ""); aerr == nil {
			successor = resp.Broker.Address
		} else {
			log.Printf("badbroker %s: no successor from BCS (clients will rediscover): %v", id, aerr)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if handoff != nil && successor != "" && len(handoff.Entries) > 0 {
		if resp, werr := bdms.NewPeerClient(nil).Warmup(ctx, successor, *handoff); werr != nil {
			log.Printf("badbroker %s: warm handoff to %s failed: %v", id, successor, werr)
		} else {
			log.Printf("badbroker %s: warm handoff to %s (applied %d, stashed %d, dropped %d)",
				id, successor, resp.Applied, resp.Stashed, resp.Dropped)
		}
	}
	migrated := b.Drain(ctx, successor)
	log.Printf("badbroker %s: migrated %d sessions (successor %q)", id, migrated, successor)
	if err := srv.Shutdown(ctx); err != nil {
		return srv.Close()
	}
	return nil
}

// readCacheSnapshot loads a warm cache snapshot written by a previous run.
func readCacheSnapshot(path string) (*bdms.CacheSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap bdms.CacheSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &snap, nil
}

// writeCacheSnapshot persists the warm cache snapshot atomically (tmp +
// fsync + rename) so a crash mid-write cannot corrupt the previous one; on
// any failure the temp file is removed.
func writeCacheSnapshot(path string, snap bdms.CacheSnapshot) error {
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
