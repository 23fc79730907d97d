package obs

import "sync/atomic"

// FailoverStats tallies the broker-failover pipeline. One bundle serves
// both halves of the path: brokers count resumes, gap backfills and drained
// sessions; clients count supervised reconnects and their latency. Fields
// the process doesn't touch simply stay zero in its exposition.
type FailoverStats struct {
	// Reconnects counts completed supervised reconnects (client side):
	// the notification socket died and the supervisor re-established a
	// session, on the same broker or a new one.
	Reconnects atomic.Uint64
	// Resumes counts frontend subscriptions re-attached with a resume
	// token (broker side).
	Resumes atomic.Uint64
	// Backfilled counts result objects range-fetched from the data
	// cluster to close a resume gap (broker side).
	Backfilled atomic.Uint64
	// DrainMigrated counts sessions handed a migrate close frame during a
	// graceful drain (broker side).
	DrainMigrated atomic.Uint64
	// RebalanceMigrated counts sessions handed a migrate close frame
	// because HRW placement moved them to another broker after a
	// membership change (broker side).
	RebalanceMigrated atomic.Uint64
	// ReconnectSeconds observes the client-observed reconnect latency:
	// connection loss to resumed subscriptions, in seconds (DefBuckets).
	ReconnectSeconds Histogram
}

// Collector exports the failover tallies: five counters plus the
// client-side reconnect-latency histogram.
func (s *FailoverStats) Collector() Collector {
	return CollectorFunc(func(emit func(Family)) {
		counter := func(name, help string, v uint64) {
			emit(Family{Name: name, Help: help, Type: CounterType,
				Points: []Point{{Value: float64(v)}}})
		}
		counter("bad_failover_reconnects_total",
			"Supervised client reconnects completed after a broker failure or restart.",
			s.Reconnects.Load())
		counter("bad_failover_resumes_total",
			"Frontend subscriptions re-attached with a resume token.",
			s.Resumes.Load())
		counter("bad_failover_backfilled_results_total",
			"Result objects range-fetched from the data cluster to close a resume gap.",
			s.Backfilled.Load())
		counter("bad_drain_migrated_sessions_total",
			"Sessions handed a migrate close frame during a graceful drain.",
			s.DrainMigrated.Load())
		counter("bad_rebalance_migrated_sessions_total",
			"Sessions migrated to their new HRW owner after a ring membership change.",
			s.RebalanceMigrated.Load())

		emit(Family{
			Name:   "bad_failover_reconnect_seconds",
			Help:   "Client-observed reconnect latency: connection loss to resumed subscriptions.",
			Type:   HistogramType,
			Points: []Point{{Hist: s.ReconnectSeconds.Snapshot()}},
		})
	})
}
