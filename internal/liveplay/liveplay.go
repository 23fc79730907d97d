// Package liveplay replays activity traces against a LIVE deployment —
// real HTTP data cluster, broker and WebSocket notification paths — with
// wall-clock pacing. It is the Section VI driver program ("these traces
// are then played back by a driver program") for deployments where virtual
// time is unavailable; the in-process virtual-time equivalent is
// experiments.Rig.
package liveplay

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/client"
	"gobad/internal/metrics"
	"gobad/internal/obs"
	"gobad/internal/trace"
)

// Config configures a live Player.
type Config struct {
	// Cluster publishes trace publications.
	Cluster *bdms.Client
	// BrokerURL is the broker every subscriber connects to.
	BrokerURL string
	// Speedup compresses trace time: virtual seconds per wall second.
	// Default 1 (real time); 60 plays an hour-long trace in a minute.
	Speedup float64
}

// Player implements trace.Target against a live deployment. Each
// subscriber gets a real client.Client; while logged in, a pump goroutine
// consumes its push notifications and retrieves results exactly like a
// real BAD client.
type Player struct {
	cfg   Config
	epoch time.Time

	mu      sync.Mutex
	clients map[string]*client.Client
	fsByKey map[string]string
	pumps   map[string]chan struct{}
	wg      sync.WaitGroup

	// Latency aggregates retrieval latencies across all subscribers.
	Latency metrics.Sampler
	// Retrievals counts notification-driven retrievals performed.
	Retrievals obs.Counter
}

var _ trace.Target = (*Player)(nil)

// NewPlayer validates cfg and returns a ready player. Close must be
// called to stop notification pumps.
func NewPlayer(cfg Config) (*Player, error) {
	if cfg.Cluster == nil {
		return nil, errors.New("liveplay: Config.Cluster is required")
	}
	if cfg.BrokerURL == "" {
		return nil, errors.New("liveplay: Config.BrokerURL is required")
	}
	if cfg.Speedup <= 0 {
		cfg.Speedup = 1
	}
	return &Player{
		cfg:     cfg,
		epoch:   time.Now(),
		clients: make(map[string]*client.Client),
		fsByKey: make(map[string]string),
		pumps:   make(map[string]chan struct{}),
	}, nil
}

// AdvanceTo sleeps until trace time t (scaled by Speedup) has elapsed on
// the wall clock.
func (p *Player) AdvanceTo(t time.Duration) {
	target := time.Duration(float64(t) / p.cfg.Speedup)
	if wait := target - time.Since(p.epoch); wait > 0 {
		time.Sleep(wait)
	}
}

// clientFor returns (creating if needed) the subscriber's client.
func (p *Player) clientFor(subscriber string) (*client.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.clients[subscriber]; ok {
		return c, nil
	}
	c, err := client.New(client.Config{
		Subscriber: subscriber,
		BrokerURL:  p.cfg.BrokerURL,
	})
	if err != nil {
		return nil, err
	}
	p.clients[subscriber] = c
	return c, nil
}

// Login implements trace.Target: open the notification socket, catch up on
// all subscriptions, and start the notification pump.
func (p *Player) Login(subscriber string) error {
	c, err := p.clientFor(subscriber)
	if err != nil {
		return err
	}
	if err := c.Listen(); err != nil {
		return fmt.Errorf("liveplay: %s login: %w", subscriber, err)
	}
	// Catch-up retrievals.
	subs, err := c.Subscriptions()
	if err != nil {
		return err
	}
	for _, fs := range subs {
		if _, err := c.GetResults(fs); err != nil {
			return err
		}
	}
	// Notification pump until logout.
	stop := make(chan struct{})
	p.mu.Lock()
	if old, ok := p.pumps[subscriber]; ok {
		close(old)
	}
	p.pumps[subscriber] = stop
	p.mu.Unlock()
	p.wg.Add(1)
	go p.pump(c, stop)
	return nil
}

func (p *Player) pump(c *client.Client, stop chan struct{}) {
	defer p.wg.Done()
	for {
		select {
		case <-stop:
			return
		case n := <-c.Notifications():
			start := time.Now()
			if _, err := c.GetResults(n.FrontendSub); err == nil {
				p.Latency.Observe(time.Since(start).Seconds())
				p.Retrievals.Inc()
			}
		}
	}
}

// Logout implements trace.Target.
func (p *Player) Logout(subscriber string) error {
	p.mu.Lock()
	c := p.clients[subscriber]
	if stop, ok := p.pumps[subscriber]; ok {
		close(stop)
		delete(p.pumps, subscriber)
	}
	p.mu.Unlock()
	if c != nil {
		c.Logout()
	}
	return nil
}

// Subscribe implements trace.Target.
func (p *Player) Subscribe(subscriber, channel string, params []any) error {
	c, err := p.clientFor(subscriber)
	if err != nil {
		return err
	}
	fs, err := c.Subscribe(channel, params)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.fsByKey[subKey(subscriber, channel, params)] = fs
	p.mu.Unlock()
	return nil
}

// Unsubscribe implements trace.Target.
func (p *Player) Unsubscribe(subscriber, channel string, params []any) error {
	key := subKey(subscriber, channel, params)
	p.mu.Lock()
	fs, ok := p.fsByKey[key]
	delete(p.fsByKey, key)
	c := p.clients[subscriber]
	p.mu.Unlock()
	if !ok || c == nil {
		return fmt.Errorf("liveplay: unsubscribe for unknown subscription %s", key)
	}
	return c.Unsubscribe(fs)
}

// Publish implements trace.Target.
func (p *Player) Publish(dataset string, data map[string]any) error {
	_, err := p.cfg.Cluster.Ingest(dataset, data)
	return err
}

// PublishBatch implements trace.BatchPublisher: co-timed publications are
// shipped as one records:batch request, which the cluster stores under a
// single WAL flush and evaluates once per matching group.
func (p *Player) PublishBatch(dataset string, batch []map[string]any) error {
	_, err := p.cfg.Cluster.IngestBatch(dataset, batch)
	return err
}

// Close stops every pump and closes every client.
func (p *Player) Close() {
	p.mu.Lock()
	for _, stop := range p.pumps {
		close(stop)
	}
	p.pumps = make(map[string]chan struct{})
	clients := make([]*client.Client, 0, len(p.clients))
	for _, c := range p.clients {
		clients = append(clients, c)
	}
	p.mu.Unlock()
	p.wg.Wait()
	for _, c := range clients {
		c.Close()
	}
}

func subKey(subscriber, channel string, params []any) string {
	return fmt.Sprintf("%s|%s|%v", subscriber, channel, params)
}
