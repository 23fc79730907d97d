// Package experiments contains the runners that regenerate every table and
// figure of the paper's evaluation: the Section V simulation sweeps
// (Figures 3, 4, 5) on top of internal/sim, and the Section VI prototype
// experiment (Figure 7) on top of an in-process data cluster + broker rig
// driven by synthetic activity traces in virtual time.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
	"gobad/internal/trace"
	"gobad/internal/workload"
)

// RigConfig configures the prototype rig.
type RigConfig struct {
	// Policy and CacheBudget configure the broker cache.
	Policy      core.Policy
	CacheBudget int64
	// Seed drives shelter placement.
	Seed int64
	// PushModel makes the cluster deliver result objects inside the
	// notifications (Section III's PUSH model) instead of handles the
	// broker pulls against. The rig's default is the PULL model, the
	// paper's comparison point, though a cluster's is PUSH.
	PushModel bool
}

// The rig's fixed parameters.
const (
	// rigShelters seeds the Shelters reference dataset.
	rigShelters = 25
	// Network model for latency accounting (the rig runs in virtual time,
	// so retrieval latencies are modeled, not measured).
	rigSubRTT     = 250 * time.Millisecond // broker <-> subscriber
	rigSubBW      = 1 << 20                // 1 MB/s
	rigClusterRTT = 500 * time.Millisecond // broker <-> cluster
	rigClusterBW  = 10 << 20               // 10 MB/s
)

// rigTTL tunes TTL policies: prototype-scale workloads need faster
// adaptation than the simulator's 5m recompute.
var rigTTL = core.TTLConfig{RecomputeInterval: time.Minute, DefaultTTL: time.Minute}

// Rig is the in-process prototype deployment: a data cluster and a broker
// wired directly (no HTTP), sharing a virtual clock, driven by an activity
// trace. It implements trace.Target.
type Rig struct {
	cfg     RigConfig
	cluster *bdms.Cluster
	broker  *broker.Broker

	mu    sync.Mutex
	clock time.Duration
	// online subscribers and their pending push notifications.
	online  map[string]bool
	pending []pendingPush
	// fs ids per subscriber per (channel,params) key for unsubscribe.
	fsByKey map[string]string

	nextTTLDrive time.Duration
	// acks holds each frontend subscription's last Latest: the ack its
	// next retrieval carries.
	acks map[string]time.Duration

	// Retrievals counts GetResults calls that returned objects.
	Retrievals int
}

type pendingPush struct {
	subscriber string
	fs         string
}

var _ trace.Target = (*Rig)(nil)

// rigNotifier routes cluster notifications straight into the rig's broker,
// supporting both delivery models.
type rigNotifier struct{ rig *Rig }

func (n rigNotifier) NotifyContext(ctx context.Context, subID, _ string, latest time.Duration) {
	if n.rig.broker != nil {
		_ = n.rig.broker.HandleNotificationContext(ctx, subID, latest, nil)
	}
}

func (n rigNotifier) NotifyPushContext(ctx context.Context, subID, _ string, obj bdms.ResultObject) {
	if n.rig.broker != nil {
		_ = n.rig.broker.HandleNotificationContext(ctx, subID, obj.Timestamp, []bdms.ResultObject{obj})
	}
}

var _ bdms.PushNotifier = rigNotifier{}

// NewRig builds the in-process prototype deployment.
func NewRig(cfg RigConfig) (*Rig, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("experiments: RigConfig.Policy is required")
	}
	r := &Rig{
		cfg:     cfg,
		online:  make(map[string]bool),
		fsByKey: make(map[string]string),
		acks:    make(map[string]time.Duration),
	}
	clusterOpts := []bdms.Option{
		bdms.WithClock(func() time.Duration { return r.now() }),
		// Synchronous delivery: the cluster notifies the broker
		// in-process.
		bdms.WithNotifier(rigNotifier{rig: r}),
	}
	if !cfg.PushModel {
		clusterOpts = append(clusterOpts, bdms.WithPullModel())
	}
	r.cluster = bdms.NewCluster(clusterOpts...)

	b, err := broker.New(broker.Config{
		ID:          "rig-broker",
		Backend:     r.cluster,
		Policy:      cfg.Policy,
		CacheBudget: cfg.CacheBudget,
		TTL:         rigTTL,
		Clock:       func() time.Duration { return r.now() },
	})
	if err != nil {
		return nil, err
	}
	r.broker = b
	b.SetPushFunc(r.onPush)

	if err := r.seedCatalog(); err != nil {
		return nil, err
	}
	return r, nil
}

// Broker exposes the rig's broker (stats inspection).
func (r *Rig) Broker() *broker.Broker { return r.broker }

func (r *Rig) now() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock
}

// seedCatalog registers datasets, the channel catalog and shelter
// reference data.
func (r *Rig) seedCatalog() error {
	if err := r.cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		return err
	}
	if err := r.cluster.CreateDataset("Shelters", bdms.Schema{}); err != nil {
		return err
	}
	for _, spec := range workload.EmergencyChannels() {
		if err := r.cluster.DefineChannel(bdms.ChannelDef{
			Name:   spec.Name,
			Params: spec.Params,
			Body:   spec.Body,
			Period: spec.Period,
		}); err != nil {
			return err
		}
	}
	shelterRng := workloadRng(r.cfg.Seed)
	shelters := workload.ShelterCatalog(shelterRng, rigShelters)
	batch := make([]map[string]any, 0, len(shelters))
	for _, s := range shelters {
		batch = append(batch, map[string]any{
			"shelter_id": s.ShelterID,
			"name":       s.Name,
			"capacity":   s.Capacity,
			"location":   map[string]any{"lat": s.Location.Lat, "lon": s.Location.Lon},
		})
	}
	if _, err := r.cluster.IngestBatch("Shelters", batch); err != nil {
		return err
	}
	return nil
}

// onPush receives broker push notifications; online subscribers retrieve
// when the current activity finishes (drained by drainPending).
func (r *Rig) onPush(subscriber string, n broker.PushNotification) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.online[subscriber] {
		return false
	}
	r.pending = append(r.pending, pendingPush{subscriber: subscriber, fs: n.FrontendSub})
	return true
}

// AdvanceTo implements trace.Target: it steps the virtual clock, firing
// repetitive channel executions and TTL machinery at their due times.
func (r *Rig) AdvanceTo(t time.Duration) {
	for {
		next := t
		if due, ok := r.cluster.NextRepetitiveRun(); ok && due < next {
			next = due
		}
		if r.cfg.Policy.StampTTL() && r.nextTTLDrive < next {
			next = r.nextTTLDrive
		}
		r.setClock(next)
		if r.cfg.Policy.StampTTL() && next == r.nextTTLDrive {
			r.broker.DriveTTL()
			r.nextTTLDrive += rigTTL.RecomputeInterval
			r.drainPending()
			continue
		}
		if next < t {
			r.cluster.RunRepetitiveDue()
			r.drainPending()
			continue
		}
		// At the target time: run anything due exactly now.
		r.cluster.RunRepetitiveDue()
		if r.cfg.Policy.AutoExpire() {
			r.broker.ExpireDue()
		}
		r.drainPending()
		return
	}
}

func (r *Rig) setClock(t time.Duration) {
	r.mu.Lock()
	if t > r.clock {
		r.clock = t
	}
	r.mu.Unlock()
}

// drainPending performs the retrievals triggered by push notifications.
func (r *Rig) drainPending() {
	for {
		r.mu.Lock()
		if len(r.pending) == 0 {
			r.mu.Unlock()
			return
		}
		batch := r.pending
		r.pending = nil
		r.mu.Unlock()
		for _, p := range batch {
			r.retrieve(p.subscriber, p.fs)
		}
	}
}

// retrieve performs one retrieval, carrying the previous one's ack, with
// modeled latency accounting.
func (r *Rig) retrieve(subscriber, fs string) {
	ret, err := r.broker.RetrieveContext(context.Background(), subscriber, fs, r.acks[fs])
	if err != nil {
		return
	}
	r.acks[fs] = ret.Latest
	if len(ret.Items) == 0 {
		return
	}
	var total, missed int64
	for _, it := range ret.Items {
		total += it.Size
		if !it.FromCache {
			missed += it.Size
		}
	}
	lat := rigSubRTT.Seconds() + float64(total)/rigSubBW
	if missed > 0 {
		lat += rigClusterRTT.Seconds() + float64(missed)/rigClusterBW
	}
	r.broker.Stats().Latency.Observe(lat)
	r.Retrievals++
}

// Login implements trace.Target: the subscriber comes online and catches
// up on every frontend subscription.
func (r *Rig) Login(subscriber string) error {
	r.mu.Lock()
	r.online[subscriber] = true
	r.mu.Unlock()
	for _, fs := range r.broker.FrontendSubscriptions(subscriber) {
		r.retrieve(subscriber, fs)
	}
	return nil
}

// Logout implements trace.Target.
func (r *Rig) Logout(subscriber string) error {
	r.mu.Lock()
	delete(r.online, subscriber)
	r.mu.Unlock()
	return nil
}

// Subscribe implements trace.Target.
func (r *Rig) Subscribe(subscriber, channel string, params []any) error {
	fs, err := r.broker.Subscribe(subscriber, channel, params)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.fsByKey[subKey(subscriber, channel, params)] = fs
	r.mu.Unlock()
	return nil
}

// Unsubscribe implements trace.Target.
func (r *Rig) Unsubscribe(subscriber, channel string, params []any) error {
	key := subKey(subscriber, channel, params)
	r.mu.Lock()
	fs, ok := r.fsByKey[key]
	delete(r.fsByKey, key)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("experiments: unsubscribe for unknown subscription %s", key)
	}
	delete(r.acks, fs)
	return r.broker.Unsubscribe(subscriber, fs)
}

// Publish implements trace.Target: continuous channels match and notify
// synchronously; online subscribers then retrieve.
func (r *Rig) Publish(dataset string, data map[string]any) error {
	if _, err := r.cluster.Ingest(dataset, data); err != nil {
		return err
	}
	r.drainPending()
	return nil
}

// PublishBatch implements trace.BatchPublisher: co-timed publications go
// through the cluster's batch path — one evaluation per matching group
// over the whole batch — before the triggered retrievals drain.
func (r *Rig) PublishBatch(dataset string, batch []map[string]any) error {
	if _, err := r.cluster.IngestBatch(dataset, batch); err != nil {
		return err
	}
	r.drainPending()
	return nil
}

func subKey(subscriber, channel string, params []any) string {
	return fmt.Sprintf("%s|%s|%v", subscriber, channel, params)
}
