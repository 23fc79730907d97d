package span

import (
	"context"
	"log/slog"
	"time"

	"gobad/internal/obs"
)

// DeliveryLatencyName is the SLO histogram family every component emits:
// per-stage delivery latency, labeled by cache outcome where one applies.
const DeliveryLatencyName = "bad_delivery_latency_seconds"

// Delivery stages. The set is fixed — labels stay bounded no matter how
// many subscriptions, channels or peers exist.
const (
	StageClusterEval  = "cluster_eval"     // cluster: ingest -> subscriptions evaluated
	StageWebhookQueue = "webhook_queue"    // cluster: notification accepted -> its first POST starts
	StageWebhook      = "webhook_delivery" // cluster: notification POST round-trip
	StageBrokerPull   = "broker_pull"      // broker: results fetch from the cluster
	StagePeerLookup   = "peer_lookup"      // broker: fabric peer cache fetch
	StageRetrieve     = "retrieve"         // broker: full cache resolution (outcome-labeled)
	StageQueueWait    = "queue_wait"       // broker: push enqueue -> writer dequeue
	StageWSWrite      = "ws_write"         // broker: WebSocket frame write (sim: broker->subscriber link)
	StageClientAck    = "client_ack"       // broker: Algorithm 1's ACK, as carried by the next retrieval
)

// Cache outcomes for the retrieve stage; every other stage uses
// OutcomeNone.
const (
	OutcomeNone         = "none"
	OutcomeLocalHit     = "local_hit"
	OutcomePeerHop      = "peer_hop"
	OutcomeClusterFetch = "cluster_fetch"
	OutcomeStaleServe   = "stale_serve"
)

// DeliveryBuckets spans 25 µs in-memory stages (a cache hit, a queue
// wait, a frame write, a compiled cluster scan) through multi-second
// degraded fetches.
var DeliveryBuckets = []float64{
	.000025, .00005, .0001, .00025,
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// NewDeliveryHistogram builds the canonical bad_delivery_latency_seconds
// family. badsim registers one directly; servers wrap one in Stages.
func NewDeliveryHistogram() *obs.HistogramVec {
	return obs.NewHistogramVec(DeliveryLatencyName,
		"Notification delivery latency by pipeline stage and cache outcome.",
		DeliveryBuckets, "stage", "outcome")
}

// Stages observes per-stage delivery latency and WARN-logs observations
// at or above the slow threshold, stamped with the request's trace ID so
// a slow bucket line leads straight to its retained trace. A nil *Stages
// is a valid no-op.
type Stages struct {
	hist *obs.HistogramVec
	slow time.Duration
	log  *slog.Logger
}

// NewStages builds a Stages helper. slow <= 0 disables the slow-bucket
// log line; logger may be nil.
func NewStages(slow time.Duration, logger *slog.Logger) *Stages {
	return &Stages{hist: NewDeliveryHistogram(), slow: slow, log: logger}
}

// Histogram returns the underlying family for registry registration.
func (s *Stages) Histogram() *obs.HistogramVec {
	if s == nil {
		return nil
	}
	return s.hist
}

// Observe records one stage observation. ctx supplies the trace ID for
// the slow-bucket log line.
func (s *Stages) Observe(ctx context.Context, stage, outcome string, d time.Duration) {
	if s == nil {
		return
	}
	if outcome == "" {
		outcome = OutcomeNone
	}
	s.hist.With(stage, outcome).Observe(d.Seconds())
	if s.slow > 0 && d >= s.slow && s.log != nil {
		// WarnContext lets the obs context handler stamp trace_id /
		// span_id, so this line leads straight to the retained trace.
		s.log.WarnContext(ctx, "slow delivery stage",
			"stage", stage, "outcome", outcome, "elapsed", d.String())
	}
}
