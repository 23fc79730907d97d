// Command badcluster runs a standalone BAD data cluster node: the
// mini-AsterixDB substrate with datasets, parameterized channels, backend
// subscriptions and webhook notifications, served over REST.
//
// Usage:
//
//	badcluster -addr :19002 [-emergency] [-wal-dir DIR]
//
// -emergency preloads the city-emergency catalog (datasets + Table III
// channels) so brokers and clients can subscribe immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/cliutil"
	"gobad/internal/obs/span"
	"gobad/internal/workload"
)

func main() {
	addr := flag.String("addr", ":19002", "listen address")
	emergency := flag.Bool("emergency", true, "preload the city-emergency catalog (Table III)")
	repTick := flag.Duration("repetitive-tick", time.Second, "how often repetitive channels are polled")
	webhookAttempts := flag.Int("webhook-attempts", 8, "delivery attempts per webhook notification before it is abandoned")
	walDir := flag.String("wal-dir", "", "durability directory: WAL segments + periodic snapshots with log compaction (empty = in-memory only)")
	walSync := flag.String("wal-sync", "interval", "WAL fsync policy: always (fsync per append) or interval (periodic fsync)")
	snapshotInterval := flag.Duration("snapshot-interval", time.Minute, "how often -wal-dir state is snapshotted and the log compacted (0 = never)")
	bcsURL := flag.String("bcs", "", "BCS base URL for rerouting webhooks whose broker died (empty = abandon after the attempt budget)")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	debugAddr := flag.String("debug-addr", "", "debug listen address for pprof and /debug/runtime (empty = off)")
	traceOut := flag.String("trace-out", "", "write retained traces as JSON to this path on shutdown (\"-\" = stdout, empty = off)")
	flag.Parse()

	if err := run(*addr, *emergency, *repTick, *webhookAttempts, *walDir, *walSync, *snapshotInterval, *bcsURL, *logLevel, *debugAddr, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "badcluster:", err)
		os.Exit(1)
	}
}

func run(addr string, emergency bool, repTick time.Duration, webhookAttempts int, walDir, walSync string, snapshotInterval time.Duration, bcsURL, logLevel, debugAddr, traceOut string) error {
	observer, err := cliutil.NewObserver("badcluster", logLevel)
	if err != nil {
		return err
	}
	stopDebug := cliutil.StartDebug(debugAddr, observer.Logger)
	defer stopDebug()
	// Webhook deliveries are at-least-once: failures are WARN-logged with
	// their trace ID, redelivered with backoff and tallied on /metrics; the
	// notifier's queue wait and POST round trip are stages of the server's
	// delivery-latency histogram.
	notifierStats := &bdms.NotifierStats{}
	stages := span.NewStages(span.DefaultSlowThreshold, observer.Logger)
	notifierOpts := []bdms.NotifierOption{
		bdms.WithNotifierLogger(observer.Logger),
		bdms.WithNotifierMaxAttempts(webhookAttempts),
		bdms.WithNotifierStats(notifierStats),
		bdms.WithNotifierStages(stages),
	}
	if bcsURL != "" {
		// A dead broker's webhook callback is re-resolved through the BCS
		// once before the notification is abandoned.
		notifierOpts = append(notifierOpts,
			bdms.WithNotifierResolver(bdms.BCSCallbackResolver(bcs.NewClient(bcsURL, nil))))
	}
	notifier := bdms.NewWebhookNotifier(4, 1024, nil, notifierOpts...)
	defer notifier.Close()
	observer.Registry.MustRegister(notifierStats.Collector())
	opts := []bdms.Option{bdms.WithNotifier(notifier)}
	var cluster *bdms.Cluster
	var store *bdms.Store
	if walDir != "" {
		policy, err := bdms.ParseSyncPolicy(walSync)
		if err != nil {
			return err
		}
		store, err = bdms.OpenStore(walDir, bdms.StoreConfig{
			Sync:            policy,
			CompactInterval: snapshotInterval,
			Logger:          observer.Logger,
			Traces:          observer.Traces,
		}, opts...)
		if err != nil {
			return err
		}
		defer store.Close()
		cluster = store.Cluster()
		log.Printf("recovered store %s (sync=%s): datasets %v, %d subscriptions",
			walDir, policy, cluster.DatasetNames(), cluster.NumSubscriptions())
	} else {
		cluster = bdms.NewCluster(opts...)
	}

	if emergency && cluster.Dataset("EmergencyReports") == nil {
		if err := preloadEmergency(cluster); err != nil {
			return err
		}
		log.Printf("preloaded emergency catalog: datasets %v", cluster.DatasetNames())
	} else if emergency {
		// Channels may already have been recovered from the WAL/snapshot;
		// re-registering an identical catalog is then a no-op.
		if err := preloadChannels(cluster); err != nil {
			return err
		}
	}

	// Drive repetitive channels.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		ticker := time.NewTicker(repTick)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				cluster.RunRepetitiveDue()
			}
		}
	}()

	serverOpts := []bdms.ServerOption{bdms.WithObserver(observer), bdms.WithStages(stages)}
	if store != nil {
		serverOpts = append(serverOpts, bdms.WithStore(store))
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           bdms.NewServer(cluster, serverOpts...).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("badcluster listening on %s", addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case sig := <-sigCh:
		log.Printf("badcluster: %s received, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
	}
	cliutil.DumpTraces(traceOut, observer.Traces, observer.Logger)
	return nil
}

func preloadEmergency(cluster *bdms.Cluster) error {
	if err := cluster.CreateDataset("EmergencyReports", bdms.Schema{Fields: []bdms.Field{
		{Name: "etype", Type: bdms.TypeString},
		{Name: "severity", Type: bdms.TypeNumber},
		{Name: "location", Type: bdms.TypeObject},
	}}); err != nil {
		return err
	}
	if err := cluster.CreateDataset("Shelters", bdms.Schema{}); err != nil {
		return err
	}
	return preloadChannels(cluster)
}

func preloadChannels(cluster *bdms.Cluster) error {
	for _, spec := range workload.EmergencyChannels() {
		err := cluster.DefineChannel(bdms.ChannelDef{
			Name:   spec.Name,
			Params: spec.Params,
			Body:   spec.Body,
			Period: spec.Period,
		})
		if err != nil && !errors.Is(err, bdms.ErrExists) {
			return err
		}
	}
	return nil
}
