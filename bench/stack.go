package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// stack is the live loopback deployment under test, built from public
// constructors only: a durable cluster (segmented WAL, interval sync)
// behind its REST server, the webhook notifier, the BCS behind its server,
// and one LSC broker behind its server, registered with the BCS.
type stack struct {
	dir      string
	store    *bdms.Store
	cluster  *bdms.Cluster
	notifier *bdms.WebhookNotifier
	broker   *broker.Broker
	reg      *broker.Registration
	// stages is the production delivery histogram handed to the cluster,
	// the notifier and the broker in a traced run (nil otherwise).
	stages *span.Stages

	servers    []*http.Server
	transports []*http.Transport

	clusterURL, bcsURL, brokerURL string

	// publisher is the load generator's cluster client; subscriberHTTP is
	// the one HTTP client every subscriber session shares, so the
	// retrieval pool holds one keep-alive connection per worker.
	publisher      *bdms.Client
	subscriberHTTP *http.Client
	bcsClient      *bcs.Client
}

// listen opens a loopback listener and serves h on it.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// httpClient builds one role's HTTP client on its own transport. In a
// traced run the transport is counted (and, for subscribers, timed).
func (s *stack) httpClient(t *tracer, subscriber bool) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16, // above the pool size, so no worker redials
		IdleConnTimeout:     time.Minute,
	}
	s.transports = append(s.transports, tr)
	var rt http.RoundTripper = tr
	if t != nil {
		rt = countingTransport{base: tr, t: t, subscriber: subscriber}
	}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}
}

// startStack brings the deployment up in dir with the given cache budget.
// t is nil for an end-to-end run: no seam is wrapped at all.
func startStack(dir string, cacheBudget int64, t *tracer) (_ *stack, err error) {
	s := &stack{dir: dir}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()

	var notifierOpts []bdms.NotifierOption
	if t != nil {
		s.stages = span.NewStages(0, nil)
		notifierOpts = append(notifierOpts, bdms.WithNotifierStages(s.stages))
	}
	// The queue is sized so intake never sheds: a shed PULL notification
	// is only recovered by the subscription's next publication, which on
	// eval_wide can be seconds away.
	s.notifier = bdms.NewWebhookNotifier(4, 1<<14, s.httpClient(t, false), notifierOpts...)
	var notifier bdms.Notifier = s.notifier
	if t != nil {
		notifier = stampingNotifier{t: t, inner: s.notifier}
	}
	s.store, err = bdms.OpenStore(dir, bdms.StoreConfig{
		Sync:   bdms.SyncInterval,
		Logger: obs.NopLogger(),
	}, bdms.WithNotifier(notifier))
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	s.cluster = s.store.Cluster()
	clusterSrv := bdms.NewServer(s.cluster, bdms.WithStore(s.store))
	if s.clusterURL, err = s.serve(t.wrapHandler(clusterSrv.Handler(), clusterRoute)); err != nil {
		return nil, err
	}

	if s.bcsURL, err = s.serve(bcs.NewServer(bcs.NewService()).Handler()); err != nil {
		return nil, err
	}
	s.bcsClient = bcs.NewClient(s.bcsURL, s.httpClient(t, false))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.brokerURL = "http://" + ln.Addr().String()
	backendClient := bdms.NewClient(s.clusterURL, s.httpClient(t, false))
	var backend broker.Backend = backendClient
	if t != nil {
		backend = timedBackend{Client: backendClient, t: t}
	}
	s.broker, err = broker.New(broker.Config{
		ID:          "bench-broker",
		Backend:     backend,
		CallbackURL: s.brokerURL + "/v1/callbacks/results",
		Policy:      core.LSC{},
		CacheBudget: cacheBudget,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	brokerSrv := broker.NewServer(s.broker)
	if t != nil {
		// Cross-check: the production stage histogram, read beside the
		// outside spans. Set after NewServer, which installs its own.
		s.cluster.SetTracing(clusterSrv.Observer().Traces, s.stages)
		s.broker.SetTracing(brokerSrv.Observer().Traces, s.stages)
	}
	srv := &http.Server{Handler: t.wrapHandler(brokerSrv.Handler(), brokerRoute), ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	s.reg, err = broker.RegisterWithBCS(s.broker, s.bcsClient, s.brokerURL, time.Second)
	if err != nil {
		return nil, err
	}

	s.publisher = bdms.NewClient(s.clusterURL, s.httpClient(t, false))
	s.subscriberHTTP = s.httpClient(t, true)
	return s, nil
}

// stop tears the deployment down and removes its directory. Subscriber
// clients must be closed first.
func (s *stack) stop() {
	if s.reg != nil {
		s.reg.Close()
	}
	if s.broker != nil {
		// Drain stops the broker's pooled push writers.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		s.broker.Drain(ctx, "")
		cancel()
	}
	if s.notifier != nil {
		s.notifier.Close()
	}
	for _, srv := range s.servers {
		_ = srv.Close()
	}
	if s.store != nil {
		_ = s.store.Close()
	}
	for _, tr := range s.transports {
		tr.CloseIdleConnections()
	}
	_ = os.RemoveAll(s.dir)
}
