package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gobad/internal/obs/span"
)

// runConfig is one benchmark run.
type runConfig struct {
	workload workloadSpec
	seed     int64
	window   time.Duration
	slices   int
	// trace selects the traced run: seams wrapped, spans recorded in the
	// second half of the window, layer probes afterwards. It reports the
	// per-layer metrics; an untraced run reports the end-to-end ones.
	trace bool
	// setups is how many times the stack is set up; the last one is
	// measured and setup_s is the median of all.
	setups  int
	workDir string // holds the WAL directories; removed after the run
	dumpDir string // receives the traced run's span dump
	log     io.Writer
	// guards makes an overloaded generator an error.
	guards bool
}

const (
	defaultSlices = 6
	defaultSetups = 3
	// An overloaded generator measures the scheduler, not the system.
	maxPublishLagP99MS = 50.0
	maxCPUUtilisation  = 0.75
)

// runResult is what one run reports.
type runResult struct {
	metrics        map[string]Metric
	verdict        verdict
	lagP99MS       float64
	cpuUtilisation float64
	spanDump       string
}

// endToEnd lists the gated metrics and their units, in catalogue order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"delivery_p50_ms", "ms"},
	{"notify_p50_ms", "ms"},
	{"retrieve_p50_ms", "ms"},
	{"publish_p50_ms", "ms"},
	{"drain_p50_ms", "ms"},
	{"cpu_ms_per_delivery", "ms"},
	{"allocs_per_delivery", "count"},
	{"live_heap_mb", "MB"},
	{"hit_ratio", "ratio"},
	{"cluster_fetch_kb_per_delivery", "KB"},
}

// run sets the workload up (several times, for a steady setup_s), measures
// one window, lets the oracle judge it and computes the metrics.
func run(cfg runConfig) (*runResult, error) {
	p := cfg.workload.build(cfg.seed, cfg.window)
	var h *harness
	setupS := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if h != nil {
			h.tearDown()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if h, err = setUp(cfg, p); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer h.tearDown()

	w, err := h.measure()
	if err != nil {
		return nil, err
	}
	res := &runResult{metrics: make(map[string]Metric)}
	res.verdict = judge(h.oracleInput(w))
	a := h.analyse(w, res.verdict)
	res.lagP99MS, res.cpuUtilisation = a.lagP99, a.cpuUtil
	fmt.Fprintf(cfg.log, "set-up times (s): %v\n", roundAll(setupS))
	a.print(cfg.log)

	if !cfg.trace {
		a.e2e["setup_s"] = median(setupS)
		for _, m := range endToEnd {
			res.metrics[m.name] = Metric{Value: a.e2e[m.name], Unit: m.unit}
		}
	} else {
		h.t.on.Store(true)
		if err := h.controlProbe(64); err != nil {
			return nil, err
		}
		h.t.on.Store(false)
		stats, spans := h.t.analyse()
		res.spanDump = filepath.Join(cfg.dumpDir, fmt.Sprintf("spans-%s-seed%d.json", p.name, cfg.seed))
		if err := dumpSpans(res.spanDump, spans); err != nil {
			return nil, err
		}
		layers := h.layerMetrics(w, a, stats)
		if err := runProbes(cfg, p, layers); err != nil {
			return nil, err
		}
		printLayers(cfg.log, layers, stats)
		for name, m := range layers {
			res.metrics[name] = m
		}
	}
	for name, m := range res.metrics {
		if !validMetricName(name) {
			return nil, fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value", name)
		}
	}
	if cfg.guards {
		if res.lagP99MS > maxPublishLagP99MS {
			return res, fmt.Errorf("generator overloaded: publish lag p99 %.2f ms > %.0f ms", res.lagP99MS, maxPublishLagP99MS)
		}
		if res.cpuUtilisation > maxCPUUtilisation {
			return res, fmt.Errorf("generator overloaded: cpu utilisation %.2f > %.2f", res.cpuUtilisation, maxCPUUtilisation)
		}
	}
	return res, nil
}

// series is one timing: samples in milliseconds with the time each
// belongs to (its publication's due time, or the call's start).
type series struct {
	at []time.Duration
	ms []float64
}

func (s *series) add(at time.Duration, v float64) {
	s.at = append(s.at, at)
	s.ms = append(s.ms, v)
}

// analysis is the run reduced to numbers.
type analysis struct {
	e2e        map[string]float64
	timings    map[string]*series // delivery, notify, retrieve, publish, drain, catchup, pool_wait, lag
	lagP99     float64
	cpuUtil    float64
	deliveries int64
	perSlice   map[string][]float64
	v          verdict
	// traced run: cpu per delivery in the untraced and traced halves.
	cpuOff, cpuOn float64
}

// analyse turns the judged run into the end-to-end numbers: every timing
// and per-delivery cost per slice, then the median slice.
func (h *harness) analyse(w *window, v verdict) *analysis {
	cfg := h.cfg
	sliceLen := cfg.window / time.Duration(cfg.slices)
	a := &analysis{e2e: make(map[string]float64), v: v,
		timings: make(map[string]*series), perSlice: make(map[string][]float64)}
	for _, name := range []string{"delivery", "notify", "retrieve", "publish", "drain", "catchup", "pool_wait", "lag"} {
		a.timings[name] = &series{}
	}

	due := make(map[int]time.Duration)
	eventOf := make(map[int]int)
	for i, ev := range h.p.events {
		for _, id := range ev.IDs {
			due[id], eventOf[id] = ev.Due, i
		}
		a.timings["publish"].add(ev.Due, ms(w.acked[i]-w.sent[i]))
		// The generator ran late when it was free to send at the due time
		// and still sent late. A publication that came due while the one
		// before it was still inside its ingest call waited for the system,
		// not for the generator; that wait is part of every latency (they
		// are timed from the due time) but not of the lag.
		if i == 0 || w.acked[i-1]-h.winStart <= ev.Due {
			a.timings["lag"].add(ev.Due, ms(w.sent[i]-h.winStart-ev.Due))
		}
	}
	drained := make(map[int]time.Duration) // event -> last online delivery
	for _, d := range v.Delivered {
		if !d.Online {
			a.timings["catchup"].add(due[d.Pub], ms(d.At-due[d.Pub]))
			continue
		}
		a.timings["delivery"].add(due[d.Pub], ms(d.At-due[d.Pub]))
		if d.NotifAt != noNotif {
			a.timings["notify"].add(due[d.Pub], ms(d.NotifAt-due[d.Pub]))
		}
		if ev := eventOf[d.Pub]; d.At > drained[ev] {
			drained[ev] = d.At
		}
	}
	for ev, at := range drained {
		a.timings["drain"].add(h.p.events[ev].Due, ms(at-h.p.events[ev].Due))
	}
	a.timings["retrieve"].at, a.timings["retrieve"].ms = h.rebased(func(r *recorder) []timed { return r.retrieves })
	a.timings["pool_wait"].at, a.timings["pool_wait"].ms = h.rebased(func(r *recorder) []timed { return r.poolWait })

	for _, name := range []string{"delivery", "notify", "retrieve", "publish", "drain"} {
		s := a.timings[name]
		a.perSlice[name+"_p50_ms"] = quantilePerSlice(s.at, s.ms, 0.5, sliceLen, cfg.slices)
	}

	// Per-delivery costs and the hit ratio, slice by slice.
	for k := 0; k < cfg.slices; k++ {
		s0, s1 := w.snaps[k], w.snaps[k+1]
		n := float64(s1.delivered - s0.delivered)
		a.perSlice["cpu_ms_per_delivery"] = append(a.perSlice["cpu_ms_per_delivery"], ratio(ms(s1.cpu-s0.cpu), n))
		a.perSlice["allocs_per_delivery"] = append(a.perSlice["allocs_per_delivery"], ratio(float64(s1.mallocs-s0.mallocs), n))
		a.perSlice["cluster_fetch_kb_per_delivery"] = append(a.perSlice["cluster_fetch_kb_per_delivery"], ratio((s1.fetchedBytes-s0.fetchedBytes)/1024, n))
		a.perSlice["hit_ratio"] = append(a.perSlice["hit_ratio"], ratio(s1.hits-s0.hits, s1.requests-s0.requests))
	}
	for name, per := range a.perSlice {
		a.e2e[name] = medianOfSlices(per)
	}
	a.e2e["live_heap_mb"] = float64(w.heapAlloc) / (1 << 20)

	first, last := w.snaps[0], w.snaps[cfg.slices]
	a.deliveries = last.delivered - first.delivered
	a.cpuUtil = float64(last.cpu-first.cpu) / float64(last.at-first.at) / float64(runtime.GOMAXPROCS(0))
	a.lagP99 = medianOfSlices(quantilePerSlice(a.timings["lag"].at, a.timings["lag"].ms, 0.99, sliceLen, cfg.slices))

	half := cfg.slices / 2
	a.cpuOff = medianOfSlices(a.perSlice["cpu_ms_per_delivery"][:half])
	a.cpuOn = medianOfSlices(a.perSlice["cpu_ms_per_delivery"][half:])
	return a
}

// print writes the run's numbers for a reader: every end-to-end metric,
// every timing's tail with the quantile and sample count behind it, and
// the oracle's verdict.
func (a *analysis) print(out io.Writer) {
	fmt.Fprintf(out, "deliveries in window: %d   cpu utilisation: %.3f of %d procs   publish lag p99: %.3f ms\n",
		a.deliveries, a.cpuUtil, runtime.GOMAXPROCS(0), a.lagP99)
	fmt.Fprintf(out, "%-16s %10s %10s %8s %8s\n", "timing", "p50(ms)", "tail(ms)", "tail q", "samples")
	for _, name := range []string{"delivery", "notify", "retrieve", "publish", "drain", "catchup", "pool_wait", "lag"} {
		s := sortedCopy(a.timings[name].ms)
		tail, q := tailPercentile(s)
		fmt.Fprintf(out, "%-16s %10.3f %10.3f %8.4g %8d\n", name, percentile(s, 0.5), tail, q, len(s))
	}
	for _, m := range endToEnd {
		if per, ok := a.perSlice[m.name]; ok {
			fmt.Fprintf(out, "%-30s slices %v\n", m.name, roundAll(per))
		}
	}
	v := a.v
	fmt.Fprintf(out, "oracle: attempted %d failed %d (missing %d duplicated %d reordered %d late %d spurious %d)\n",
		v.Attempted, v.Failed, v.Missing, v.Duplicated, v.Reordered, v.Late, v.Spurious)
	if v.FirstFailure != "" {
		fmt.Fprintf(out, "oracle: first failure: %s\n", v.FirstFailure)
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e4) / 1e4
	}
	return out
}

// stagePairs names, for each production delivery stage, the outside span
// that times the same work; their p50s are printed side by side.
var stagePairs = []struct{ stage, outcome, outside string }{
	{span.StageClusterEval, span.OutcomeNone, ""},
	{span.StageWebhook, span.OutcomeNone, spanCallback},
	{span.StageBrokerPull, span.OutcomeNone, spanBackendPull},
	{span.StageRetrieve, span.OutcomeLocalHit, spanResultsHandler},
	{span.StageQueueWait, span.OutcomeNone, ""},
	{span.StageWSWrite, span.OutcomeNone, ""},
	{span.StageClientAck, span.OutcomeNone, spanAckHandler},
}

// layerMetrics computes every per-layer metric that comes from the window
// itself (spans, counters, generator samples); the probes add the rest.
func (h *harness) layerMetrics(w *window, a *analysis, stats map[string]spanStats) map[string]Metric {
	cfg := h.cfg
	out := make(map[string]Metric)
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // nothing to measure on this workload (no samples)
		}
		out[name] = Metric{Value: v, Unit: unit}
	}
	first, mid, last := w.snaps[0], w.snaps[cfg.slices/2], w.snaps[cfg.slices]
	seconds := float64(last.at-first.at) / float64(time.Second)
	deliveries := float64(last.delivered - first.delivered)
	tracedDeliveries := float64(last.delivered - mid.delivered)
	var events, tracedEvents, records float64
	for _, ev := range h.p.events {
		events++
		records += float64(len(ev.IDs))
		if ev.Due >= cfg.window/2 {
			tracedEvents++
		}
	}

	put("bdms.ingest_handler_p50_ms", stats[spanIngestHandler].p50, "ms")
	put("bdms.ingest_handler_p99_ms", stats[spanIngestHandler].p99, "ms")
	put("bdms.eval_groups_per_record", ratio(last.evalGroups-first.evalGroups, last.ingested-first.ingested), "count")
	put("bdms.eval_shared_ratio", ratio(last.evalSubs-first.evalSubs, last.evalGroups-first.evalGroups), "ratio")
	put("bdms.wal.bytes_per_record", ratio(float64(last.walFileBytes-first.walFileBytes), last.walRecords-first.walRecords), "B")
	put("bdms.wal.flushes_per_publish", ratio(last.walAppends-first.walAppends, events), "count")
	put("bdms.webhook.queue_p50_ms", stats[spanWebhookQueue].p50, "ms")
	put("bdms.webhook.posts_per_publication", ratio(float64(last.whDelivered-first.whDelivered), records), "count")
	put("bdms.webhook.retries", float64(last.whRedelivered-first.whRedelivered), "count")
	put("bdms.webhook.dropped", float64(last.whDropped-first.whDropped), "count")
	put("bdms.results_handler_p50_ms", stats[spanBdmsResults].p50, "ms")
	put("bdms.results_bytes_per_fetch", ratio(float64(last.resultsBytes-mid.resultsBytes), float64(last.resultsFetches-mid.resultsFetches)), "B")
	put("bdms.subscribe_handler_p50_ms", stats[spanBdmsSubscribe].p50, "ms")

	put("broker.callback_handler_p50_ms", stats[spanCallback].p50, "ms")
	put("broker.callback_handler_p99_ms", stats[spanCallback].p99, "ms")
	put("broker.backend_pull_p50_ms", stats[spanBackendPull].p50, "ms")
	put("broker.backend_pulls_per_publication", ratio(float64(last.backendPulls-mid.backendPulls), tracedEvents), "count")
	put("broker.push.fanout_p50_ms", stats[spanPushFanout].p50, "ms")
	put("broker.push.fanout_p99_ms", stats[spanPushFanout].p99, "ms")
	put("broker.push.coalesced_ratio", ratio(float64(last.pushCoalesced-first.pushCoalesced), float64(last.pushEnqueued-first.pushEnqueued)), "ratio")
	put("broker.push.dropped", float64(last.pushDropped-first.pushDropped), "count")
	put("broker.push.delivered", last.pushDelivered-first.pushDelivered, "count")
	put("broker.results_handler_p50_ms", stats[spanResultsHandler].p50, "ms")
	put("broker.results_handler_p99_ms", stats[spanResultsHandler].p99, "ms")
	put("broker.ack_handler_p50_ms", stats[spanAckHandler].p50, "ms")
	put("broker.subscribe_p50_ms", median(h.subscribeMS), "ms")
	put("broker.unsubscribe_p50_ms", median(h.unsubscribeMS), "ms")
	put("broker.login_p50_ms", median(h.loginMS), "ms")

	bs := h.st.broker.Stats()
	put("core.hit_ratio_bytes", ratio(last.hitBytes-first.hitBytes, last.hitBytes-first.hitBytes+last.missBytes-first.missBytes), "ratio")
	put("core.evictions_per_s", (last.evictions-first.evictions)/seconds, "1/s")
	put("core.expirations_per_s", (last.expirations-first.expirations)/seconds, "1/s")
	put("core.cache_bytes_avg", bs.CacheSize.Average(h.st.broker.Now()), "B")
	put("core.cache_bytes_max", bs.CacheSize.Max(), "B")
	flights := float64(last.flightLeaders - first.flightLeaders + last.flightCoalesced - first.flightCoalesced)
	put("core.singleflight_coalesced_ratio", ratio(float64(last.flightCoalesced-first.flightCoalesced), flights), "ratio")

	put("wsock.frames_per_delivery", ratio(float64(last.notifsRead-first.notifsRead), deliveries), "count")
	put("wsock.bytes_per_delivery", ratio(float64(last.wireEst-mid.wireEst), tracedDeliveries), "B")

	put("client.get_p50_ms", stats[spanClientGet].p50, "ms")
	put("client.ack_p50_ms", stats[spanClientAck].p50, "ms")
	// What the broker served minus what GetResults handed on is what the
	// client's watermark dedup dropped.
	put("client.dedup_dropped", (last.requests-first.requests)-float64(last.itemsReturned-first.itemsReturned), "count")
	put("client.results_per_get", ratio(float64(last.itemsReturned-first.itemsReturned), float64(last.getCalls-first.getCalls)), "count")
	put("httpx.round_trips_per_delivery", ratio(float64(last.roundTrips-mid.roundTrips), tracedDeliveries), "count")
	put("httpx.bytes_per_delivery", ratio(float64(last.wireBytes-mid.wireBytes), tracedDeliveries), "B")

	put("runtime.gc_cycles", float64(last.numGC-first.numGC), "count")
	put("runtime.gc_pause_total_ms", float64(last.pauseNS-first.pauseNS)/1e6, "ms")
	put("runtime.heap_alloc_kb_per_delivery", ratio(float64(last.totalAlloc-first.totalAlloc)/1024, deliveries), "KB")
	peak := 0
	for _, s := range w.snaps {
		if s.goroutines > peak {
			peak = s.goroutines
		}
	}
	put("runtime.goroutines_peak", float64(peak), "count")

	for _, name := range []string{"delivery", "notify", "retrieve", "publish", "drain"} {
		tail, _ := tailPercentile(sortedCopy(a.timings[name].ms))
		put("e2e."+name+"_p99_ms", tail, "ms")
	}
	put("e2e.catchup_delivery_p50_ms", median(a.timings["catchup"].ms), "ms")

	put("loadgen.publish_lag_p99_ms", a.lagP99, "ms")
	put("loadgen.pool_wait_p50_ms", median(a.timings["pool_wait"].ms), "ms")
	put("loadgen.cpu_utilisation", a.cpuUtil, "ratio")
	put("loadgen.tracing_overhead_ratio", a.cpuOn/a.cpuOff-1, "ratio")

	// The layer budget: self-time medians along the blocking path against
	// the end-to-end median of the traced half.
	var attributed float64
	for _, name := range blockingPath {
		put("span."+name+"_self_p50_ms", stats[name].selfP50, "ms")
		attributed += stats[name].selfP50
	}
	var tracedDelivery []float64
	d := a.timings["delivery"]
	for i, at := range d.at {
		if at >= cfg.window/2 {
			tracedDelivery = append(tracedDelivery, d.ms[i])
		}
	}
	e2e := median(tracedDelivery)
	put("budget.unattributed_ratio", (e2e-attributed)/e2e, "ratio")

	// The production signal beside the outside spans.
	worst := 0.0
	for _, sp := range stagePairs {
		snap := h.st.stages.Histogram().With(sp.stage, sp.outcome).Snapshot()
		p50 := histogramP50(snap.UpperBounds, snap.CumCounts, snap.Count) * 1e3
		put("stage."+sp.stage+"_p50_ms", p50, "ms")
		// Below its first bucket bound the histogram cannot place a median;
		// two medians both under it agree as far as it can tell.
		resolution := snap.UpperBounds[0] * 1e3
		outside := stats[sp.outside].p50
		if sp.outside == "" || math.IsNaN(p50) || outside <= 0 || (p50 <= resolution && outside <= resolution) {
			continue
		}
		if gap := math.Abs(p50-outside) / outside; gap > worst {
			worst = gap
		}
	}
	put("stage.max_disagreement_ratio", worst, "ratio")
	return out
}

// printLayers writes the per-layer table and the span budget.
func printLayers(out io.Writer, layers map[string]Metric, stats map[string]spanStats) {
	fmt.Fprintf(out, "%-28s %8s %10s %10s %12s\n", "span", "count", "p50(ms)", "tail(ms)", "self p50(ms)")
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := stats[name]
		fmt.Fprintf(out, "%-28s %8d %10.3f %10.3f %12.3f\n", name, s.count, s.p50, s.p99, s.selfP50)
	}
	names = names[:0]
	for name := range layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-40s %14.4f %s\n", name, layers[name].Value, layers[name].Unit)
	}
}
