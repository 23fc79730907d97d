package bdms

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gobad/internal/aql"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// Notifier delivers "new results available" callbacks to brokers. The
// cluster invokes it outside its internal lock; implementations may block
// (delivery then back-pressures ingestion) or queue internally.
type Notifier interface {
	// NotifyContext signals that subscription subID (whose registered
	// callback is callback) has new results up to latest. ctx carries the
	// span of the publication that produced them, so the notification (and
	// any redelivery of it) stays attributable to that publication's trace.
	NotifyContext(ctx context.Context, subID, callback string, latest time.Duration)
}

// PushNotifier is a Notifier that can also carry the PUSH model (Section
// III: "the actual content of the notification ... may contain the entire
// result objects themselves and the results are immediately pushed to the
// broker (PUSH model)"). A cluster delivers through NotifyPushContext when
// its notifier has it, unless configured WithPullModel, and through the
// PULL-model NotifyContext otherwise.
type PushNotifier interface {
	Notifier
	// NotifyPushContext delivers the result object itself.
	NotifyPushContext(ctx context.Context, subID, callback string, obj ResultObject)
}

// NotifierFunc adapts a function to the Notifier interface.
type NotifierFunc func(ctx context.Context, subID, callback string, latest time.Duration)

// NotifyContext implements Notifier.
func (f NotifierFunc) NotifyContext(ctx context.Context, subID, callback string, latest time.Duration) {
	f(ctx, subID, callback, latest)
}

// Clock supplies the cluster's notion of time as an offset from its epoch.
type Clock func() time.Duration

// Option configures a Cluster.
type Option func(*Cluster)

// WithClock overrides the cluster clock (tests and simulation drivers).
// The default clock is wall time since cluster creation.
func WithClock(clk Clock) Option {
	return func(c *Cluster) {
		if clk != nil {
			c.clock = clk
		}
	}
}

// WithNotifier sets the notification sink for subscription callbacks.
func WithNotifier(n Notifier) Option {
	return func(c *Cluster) { c.notifier = n }
}

// WithPullModel makes notifications carry only a resource handle — the
// latest result timestamp — so the broker fetches the results it wants
// (PULL model, the paper's comparison point). The default is the PUSH
// model: notifications carry the result objects themselves when the
// configured Notifier supports it.
func WithPullModel() Option {
	return func(c *Cluster) { c.pullModel = true }
}

// ClusterStats counts the cluster's externally visible work.
type ClusterStats struct {
	// Ingested counts stored publications.
	Ingested obs.Counter
	// IngestBatches counts batch ingest requests (each storing one or
	// more publications under a single lock acquisition and WAL flush).
	IngestBatches obs.Counter
	// ResultsProduced counts result objects generated across all
	// subscriptions.
	ResultsProduced obs.Counter
	// ResultBytes accumulates the encoded size of all produced results
	// (the paper's 'Vol' baseline is derived from this).
	ResultBytes obs.Counter
	// Notifications counts webhook invocations.
	Notifications obs.Counter
	// FetchedBytes accumulates bytes served through Results calls.
	FetchedBytes obs.Counter
	// EvalGroups counts channel evaluations executed — one per
	// (channel, parameter signature) group per publication batch or
	// repetitive tick, NOT one per subscription.
	EvalGroups obs.Counter
	// EvalSubsServed counts the subscriptions those evaluations served;
	// EvalSubsServed / EvalGroups is the shared-evaluation ratio (how many
	// subscriptions each channel execution covered on average).
	EvalSubsServed obs.Counter
}

// subscription is one backend subscription: a channel instance bound to
// parameter values, accumulating results. Matching state lives on its
// evalGroup — every subscription with the same (channel, parameter
// signature) shares one evaluation.
type subscription struct {
	id       string
	n        uint64 // the number in id, bsub-<n>
	ch       *channel
	params   map[string]any // canonicalized bound parameters
	callback string

	// group membership (guarded by Cluster.mu); memberIdx is the
	// subscription's slot in group.members for O(1) removal.
	group     *evalGroup
	memberIdx int

	results []storedResult // ordered by Timestamp
	lastTS  time.Duration
	seq     uint64
}

// Cluster is the BAD data cluster engine: datasets + channels +
// subscriptions + the matching routines that turn publications into
// per-subscription results.
type Cluster struct {
	clock     Clock
	notifier  Notifier
	pullModel bool

	wal *WAL

	mu       sync.Mutex
	datasets map[string]*Dataset
	channels map[string]*channel
	// groups holds each channel's evaluation groups: by canonical
	// parameter signature, and for continuous channels as the dense scan
	// table and its index (see evalgroup.go / signature.go / index.go).
	groups map[string]*channelGroups
	subs   map[string]*subscription
	subSeq uint64
	epoch  time.Time
	// evalWarned is when (cluster time) each channel's evaluation errors
	// were last logged; one WARN per channel per minute.
	evalWarned map[string]time.Duration

	stats ClusterStats
	// evalErrors counts group evaluations that raised, by channel name.
	evalErrors *obs.CounterVec
	logger     *slog.Logger

	// traces/stages are the delivery-tracing hooks (nil-safe; set once
	// via SetTracing before the cluster starts serving).
	traces *span.Recorder
	stages *span.Stages
}

// SetTracing wires the cluster's span recorder and per-stage delivery
// histogram. Call it before serving; both arguments may be nil.
func (c *Cluster) SetTracing(traces *span.Recorder, stages *span.Stages) {
	c.traces = traces
	c.stages = stages
}

// SetLogger sets where the cluster reports evaluation errors (default:
// nowhere). Call it before serving.
func (c *Cluster) SetLogger(l *slog.Logger) { c.logger = obs.WrapLogger(l) }

// NewCluster returns a cluster with the given options applied.
func NewCluster(opts ...Option) *Cluster {
	c := &Cluster{
		datasets:   make(map[string]*Dataset),
		channels:   make(map[string]*channel),
		groups:     make(map[string]*channelGroups),
		subs:       make(map[string]*subscription),
		epoch:      time.Now(),
		evalWarned: make(map[string]time.Duration),
		evalErrors: obs.NewCounterVec("bad_cluster_eval_errors_total",
			"Group evaluations that raised an error (the group delivered nothing for that batch).", "channel"),
		logger: obs.NopLogger(),
	}
	c.clock = func() time.Duration { return time.Since(c.epoch) }
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Stats exposes the cluster's counters.
func (c *Cluster) Stats() *ClusterStats { return &c.stats }

// WALStats exposes the attached write-ahead log's counters, or nil when
// the cluster runs without durability.
func (c *Cluster) WALStats() *WALStats {
	if c.wal == nil {
		return nil
	}
	return c.wal.stats
}

// Now returns the current cluster time.
func (c *Cluster) Now() time.Duration { return c.clock() }

// CreateDataset registers a dataset. Creating an existing dataset is an
// error.
func (c *Cluster) CreateDataset(name string, schema Schema) error {
	rec := walRecord{Kind: walKindDataset, Dataset: name, Schema: &schema, AtNS: int64(c.clock())}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitLocked(rec)
}

// Dataset returns a registered dataset, or nil.
func (c *Cluster) Dataset(name string) *Dataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.datasets[name]
}

// DatasetNames returns all dataset names, sorted.
func (c *Cluster) DatasetNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.datasets))
	for n := range c.datasets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ErrExists tags "already exists" errors from CreateDataset and
// DefineChannel so operators re-registering their schema after a
// WAL/snapshot recovery can treat the collision as success
// (errors.Is(err, ErrExists)).
var ErrExists = errors.New("already exists")

// DefineChannel compiles and registers a channel. The channel's body (and
// its enrichments) must reference existing datasets.
func (c *Cluster) DefineChannel(def ChannelDef) error {
	rec := walRecord{Kind: walKindChannel, Channel: &def, AtNS: int64(c.clock())}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitLocked(rec)
}

// DeleteChannel removes a channel definition. Channels with live
// subscriptions cannot be deleted; unsubscribe them first.
func (c *Cluster) DeleteChannel(name string) error {
	rec := walRecord{Kind: walKindDelChannel, Name: name, AtNS: int64(c.clock())}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitLocked(rec)
}

// Query runs an ad-hoc AQL statement over a dataset's stored publications
// (scatter-gather over the storage nodes) with optional parameter
// bindings. This is the BDMS's interactive query path — channels are the
// standing-query path.
func (c *Cluster) Query(statement string, params map[string]any) ([]map[string]any, error) {
	q, err := aql.ParseQuery(statement)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	ds, ok := c.datasets[q.Dataset]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("bdms: unknown dataset %q", q.Dataset)
	}
	return aql.RunQuery(q, recordData(ds.ScanSince(0)), params)
}

// Channels returns the registered channel definitions, sorted by name.
func (c *Cluster) Channels() []ChannelDef {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ChannelDef, 0, len(c.channels))
	for _, ch := range c.channels {
		out = append(out, ch.def)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Subscribe creates a backend subscription to a channel with bound
// parameter values and a callback URL, returning the subscription ID
// (Section III-A's abstraction: "the data cluster receives subscription
// requests (channel name and parameter values) and returns a unique
// subscription identifier"). Internally the subscription joins the
// evaluation group of its canonical parameter signature — the channel is
// evaluated once per group, however many subscriptions join it.
//
// Write-ahead: the registration is durable before the ID is handed out,
// so a restarted cluster still knows every subscription a broker holds a
// resume token for.
func (c *Cluster) Subscribe(channelName string, params []any, callback string) (string, error) {
	rec := walRecord{Kind: walKindSub, Name: channelName, Params: params, Callback: callback, AtNS: int64(c.clock())}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec.Sub = fmt.Sprintf("bsub-%06d", c.subSeq+1)
	if err := c.commitLocked(rec); err != nil {
		return "", err
	}
	return rec.Sub, nil
}

// Unsubscribe removes a backend subscription and its result dataset. The
// group index makes removal O(1); an evaluation snapshotted before the
// removal re-checks liveness before appending, so results never land on a
// dead subscription.
func (c *Cluster) Unsubscribe(subID string) error {
	rec := walRecord{Kind: walKindUnsub, Sub: subID, AtNS: int64(c.clock())}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitLocked(rec)
}

// NumSubscriptions returns the number of live backend subscriptions.
func (c *Cluster) NumSubscriptions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs)
}

// NumEvalGroups returns the number of live evaluation groups (distinct
// (channel, parameter signature) pairs with at least one subscription).
func (c *Cluster) NumEvalGroups() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, cg := range c.groups {
		n += len(cg.bySig)
	}
	return n
}

// Ingest stores a publication and runs continuous-channel matching against
// it; matching subscriptions get a new result object and their callbacks
// are notified before it returns.
func (c *Cluster) Ingest(dataset string, data map[string]any) (Record, error) {
	return c.IngestContext(context.Background(), dataset, data)
}

// IngestContext is Ingest carrying the caller's trace: the ingest and
// backend-subscription evaluation record as spans of the publication's
// trace, and every notification it produces is delivered under the same
// trace, so one publication is one trace end to end.
func (c *Cluster) IngestContext(ctx context.Context, dataset string, data map[string]any) (Record, error) {
	recs, out, err := c.ingest(ctx, dataset, []map[string]any{data}, false)
	if err != nil {
		return Record{}, err
	}
	c.deliver(out)
	return recs[0], nil
}

// IngestBatch stores a batch of publications under one lock acquisition
// and WAL flush, then evaluates continuous channels once per evaluation
// group over the whole batch. Validation is atomic: if any record fails,
// nothing is stored. Returns the assigned records in batch order.
func (c *Cluster) IngestBatch(dataset string, batch []map[string]any) ([]Record, error) {
	return c.IngestBatchContext(context.Background(), dataset, batch)
}

// IngestBatchContext is IngestBatch carrying the caller's trace.
func (c *Cluster) IngestBatchContext(ctx context.Context, dataset string, batch []map[string]any) ([]Record, error) {
	recs, out, err := c.ingest(ctx, dataset, batch, true)
	if err != nil {
		return nil, err
	}
	c.deliver(out)
	return recs, nil
}

// notices are a publication's notifications, held until its publisher has
// been answered, with the context — the publication's trace — they are
// delivered under.
type notices struct {
	ctx     context.Context
	pending []notification
}

// ingest is the shared publication pipeline:
//
//	lock   : validate all → WAL append (one flush) → insert all →
//	         snapshot each continuous channel's scan table (and the
//	         positions its index selects)
//	unlock : scan: one compiled-predicate call per candidate group
//	lock   : append each matching group's shared rows to its members
//	unlock : return the records and the notifications
//
// The global mutex covers only index/state mutation; the channel queries —
// the expensive part — run on snapshots outside it. The caller delivers the
// notifications: the exported Ingest methods before they return, the HTTP
// handlers once the publisher's answer is on the wire, so a push fan-out
// does not hold the answer up. Either way the results are in the WAL first.
func (c *Cluster) ingest(ctx context.Context, dataset string, batch []map[string]any, isBatch bool) (recs []Record, out notices, err error) {
	if isBatch && len(batch) == 0 {
		return nil, notices{}, fmt.Errorf("bdms: empty batch for dataset %s", dataset)
	}
	ctx, sp := c.traces.Start(ctx, "cluster.ingest")
	sp.SetAttr("dataset", dataset)
	if isBatch {
		sp.SetAttr("batch", fmt.Sprintf("%d", len(batch)))
	}
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	now := c.clock()
	c.mu.Lock()
	ds, ok := c.datasets[dataset]
	if !ok {
		c.mu.Unlock()
		return nil, notices{}, fmt.Errorf("bdms: unknown dataset %q", dataset)
	}
	// Validate the whole batch before storing anything: a batch is
	// accepted or rejected atomically.
	for i, data := range batch {
		if data == nil {
			c.mu.Unlock()
			return nil, notices{}, fmt.Errorf("bdms: nil record at batch index %d for dataset %s", i, dataset)
		}
		if err := ds.schema.Validate(data); err != nil {
			c.mu.Unlock()
			if isBatch {
				return nil, notices{}, fmt.Errorf("bdms: batch index %d: %w", i, err)
			}
			return nil, notices{}, err
		}
	}
	// Log before acknowledging (write-ahead); one flush for the batch.
	if err := c.logIngestBatch(dataset, batch, now); err != nil {
		c.mu.Unlock()
		return nil, notices{}, err
	}
	recs = make([]Record, len(batch))
	for i, data := range batch {
		recs[i] = ds.insertValidated(data, now)
	}
	c.stats.Ingested.Add(float64(len(batch)))
	if isBatch {
		c.stats.IngestBatches.Inc()
	}
	scans, groups := c.collectScans(dataset, recs)
	c.mu.Unlock()

	if len(scans) > 0 {
		_, evalSp := c.traces.Start(ctx, "cluster.eval")
		evalStart := time.Now()
		var tasks []*evalTask
		for i := range scans {
			tasks = append(tasks, scans[i].run(recs)...)
		}
		pending, failed := c.commitEval(ctx, tasks, now)
		evalSp.SetAttr("groups", fmt.Sprintf("%d", groups))
		evalSp.SetAttr("records", fmt.Sprintf("%d", len(recs)))
		evalSp.SetAttr("matches", fmt.Sprintf("%d", len(pending)))
		evalSp.SetAttr("errors", fmt.Sprintf("%d", failed))
		evalSp.End()
		c.stages.Observe(ctx, span.StageClusterEval, span.OutcomeNone, time.Since(evalStart))
		out = notices{ctx: ctx, pending: pending}
	}
	return recs, out, nil
}

// collectScans snapshots, for a freshly inserted batch, the scan table of
// every continuous channel over dataset that has groups. Channels with an
// index (index.go) visit only the positions whose bound value or circle
// can hold some record in the batch (plus the unindexed remainder), each
// with exactly the records that can match it. It also accounts the
// evaluations about to run: one per candidate group, serving that group's
// current members. Caller holds the lock.
func (c *Cluster) collectScans(dataset string, recs []Record) (scans []chanScan, groups int) {
	served := 0
	for _, ch := range c.channels {
		cg := c.groups[ch.def.Name]
		if cg == nil || !ch.Continuous() || ch.dataset != dataset {
			continue
		}
		sc := chanScan{ch: ch, table: cg.table}
		all := cg.index == nil
		if !all {
			if sc.cands, all = cg.index.candidates(recs); !all && len(sc.cands) == 0 {
				continue
			}
		}
		if all {
			groups += len(cg.table)
			served += cg.subs
		} else {
			groups += len(sc.cands)
			for _, cd := range sc.cands {
				served += len(cg.table[cd.pos].g.members)
			}
		}
		sc.enrichDS = c.enrichDatasets(ch)
		scans = append(scans, sc)
	}
	c.stats.EvalGroups.Add(float64(groups))
	c.stats.EvalSubsServed.Add(float64(served))
	return scans, groups
}

// commitEval appends each matching group's shared rows to the result
// datasets of the group's members — its members NOW, under the lock (the
// membership rule at the top of evalgroup.go) — and collects the
// notifications to deliver. A group whose evaluation raised delivers
// nothing for this batch; it is counted per channel and logged at most
// once per channel per minute, under the publication's trace.
func (c *Cluster) commitEval(ctx context.Context, tasks []*evalTask, now time.Duration) (pending []notification, failed int) {
	c.mu.Lock()
	n := 0
	for _, t := range tasks {
		n += len(t.g.members)
	}
	pending = make([]notification, 0, n)
	for _, t := range tasks {
		if t.err != nil {
			failed++
			name := t.g.ch.def.Name
			c.evalErrors.With(name).Inc()
			if last, ok := c.evalWarned[name]; !ok || now-last >= time.Minute {
				c.evalWarned[name] = now
				c.logger.WarnContext(ctx, "channel evaluation failed; the group delivers nothing for this batch",
					"channel", name, "signature", t.g.sig, "err", t.err)
			}
			continue
		}
		for _, sub := range t.g.members {
			pending = append(pending, c.appendResult(sub, t, now))
		}
	}
	// Persist the produced result objects before any notification leaves
	// the cluster: replay rebuilds result datasets from these records
	// instead of re-running evaluations.
	c.logResults(pending, now)
	c.mu.Unlock()
	return pending, failed
}

type notification struct {
	subID, callback string
	latest          time.Duration
	obj             ResultObject // PUSH model payload
}

// appendResult stores a new result object for sub and returns the
// notification to deliver. The rows and their encoding are shared across
// every member of the evaluation group (results are immutable once
// produced, so sharing is safe — no per-member copy). The object names its
// predecessor, sub's newest result until now (0: none), for a broker to
// prove it missed nothing; the lock that orders sub's results makes that
// exact. Caller holds the lock.
func (c *Cluster) appendResult(sub *subscription, t *evalTask, now time.Duration) notification {
	ts := now
	if ts <= sub.lastTS {
		ts = sub.lastTS + time.Nanosecond
	}
	prev := sub.lastTS
	sub.lastTS = ts
	sub.seq++
	obj := ResultObject{
		ID:             resultID(sub.id, sub.seq),
		SubscriptionID: sub.id,
		Timestamp:      ts,
		PrevNS:         int64(prev),
		Rows:           t.enc,
		Size:           int64(len(t.enc)),
	}
	sub.results = append(sub.results, storedResult{id: obj.ID, subID: sub.id, ts: ts, rows: t.rows, size: obj.Size})
	c.stats.ResultsProduced.Inc()
	c.stats.ResultBytes.Add(float64(obj.Size))
	return notification{subID: sub.id, callback: sub.callback, latest: ts, obj: obj}
}

// resultID is the ID of sub's seq-th result, "<sub>-r<seq>" with seq
// zero-padded to six digits: fmt's "%s-r%06d" in one allocation.
func resultID(sub string, seq uint64) string {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], seq, 10)
	var b strings.Builder
	b.Grow(len(sub) + 2 + max(6, len(d)))
	b.WriteString(sub)
	b.WriteString("-r")
	for i := len(d); i < 6; i++ {
		b.WriteByte('0')
	}
	b.Write(d)
	return b.String()
}

// deliver fires a commit's notifications outside the lock, under the
// publication's span: the result objects themselves when the notifier can
// carry them (PUSH, the default), the latest timestamp otherwise.
func (c *Cluster) deliver(out notices) {
	if c.notifier == nil || len(out.pending) == 0 {
		return
	}
	pusher, canPush := c.notifier.(PushNotifier)
	for _, n := range out.pending {
		c.stats.Notifications.Inc()
		if canPush && !c.pullModel {
			pusher.NotifyPushContext(out.ctx, n.subID, n.callback, n.obj)
		} else {
			c.notifier.NotifyContext(out.ctx, n.subID, n.callback, n.latest)
		}
	}
}

// RunRepetitiveDue executes every repetitive evaluation group whose period
// has elapsed, evaluating its channel ONCE over the publications ingested
// since the group's previous execution — however many subscriptions share
// the group. It returns the number of group executions performed. Callers
// drive it from a ticker (live) or scheduled events (simulation).
func (c *Cluster) RunRepetitiveDue() int {
	now := c.clock()
	c.mu.Lock()
	type dueGroup struct {
		g        *evalGroup
		recs     []Record
		enrichDS map[string]*Dataset
	}
	var due []dueGroup
	var ticks []walRecord
	executions, served := 0, 0
	for _, cg := range c.groups {
		for _, g := range cg.bySig {
			if g.ch.Continuous() || now < g.nextRun {
				continue
			}
			executions++
			ds := c.datasets[g.ch.dataset]
			recs := ds.ScanSince(g.lastSeq)
			tick := walRecord{
				Kind: walKindTick, Name: g.ch.def.Name, Sig: g.sig,
				LastSeq: ds.LastSeq(), AtNS: int64(now),
			}
			c.applyTick(g, tick)
			ticks = append(ticks, tick)
			if len(recs) == 0 {
				continue
			}
			served += len(g.members)
			due = append(due, dueGroup{g: g, recs: recs, enrichDS: c.enrichDatasets(g.ch)})
		}
	}
	c.stats.EvalGroups.Add(float64(len(due)))
	c.stats.EvalSubsServed.Add(float64(served))
	// Progress marks are logged before the evaluation commits; on replay
	// they stop a restarted group from re-evaluating publications whose
	// results are already in the log.
	if c.wal != nil && len(ticks) > 0 {
		_ = c.wal.appendBatch(ticks)
	}
	c.mu.Unlock()
	if len(due) == 0 {
		return executions
	}
	// The groups came out of two maps; co-due groups append their results
	// and notify in this order, and a broker cache near its budget evicts
	// by it, so it must not vary from run to run.
	sort.Slice(due, func(i, j int) bool {
		a, b := due[i].g, due[j].g
		if a.ch.def.Name != b.ch.def.Name {
			return a.ch.def.Name < b.ch.def.Name
		}
		return a.sig < b.sig
	})
	var tasks []*evalTask
	for _, d := range due {
		e := tableEntry{consts: d.g.consts, g: d.g}
		if t := evaluate(d.g.ch, e, d.g.ch.query.Frames(recordData(d.recs)), d.enrichDS, nil); t != nil {
			tasks = append(tasks, t)
		}
	}
	if len(tasks) == 0 {
		return executions
	}
	// Repetitive executions are not tied to any single publication; they
	// root a trace of their own.
	ctx, sp := c.traces.Start(context.Background(), "cluster.repetitive")
	pending, _ := c.commitEval(ctx, tasks, now)
	c.deliver(notices{ctx: ctx, pending: pending})
	sp.End()
	return executions
}

// NextRepetitiveRun returns the earliest pending repetitive execution time
// and true, or false when no repetitive subscription exists.
func (c *Cluster) NextRepetitiveRun() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best time.Duration
	found := false
	for _, cg := range c.groups {
		for _, g := range cg.bySig {
			if g.ch.Continuous() {
				continue
			}
			if !found || g.nextRun < best {
				best = g.nextRun
				found = true
			}
		}
	}
	return best, found
}

// Results returns a subscription's result objects with Timestamp in
// (from, to) — or (from, to] when inclusiveTo is set — oldest first. This
// is the broker's fetch path. The range is copied out under the lock and
// encoded once it is released.
func (c *Cluster) Results(subID string, from, to time.Duration, inclusiveTo bool) ([]ResultObject, error) {
	c.mu.Lock()
	sub, ok := c.subs[subID]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("bdms: unknown subscription %q", subID)
	}
	// Binary search the ordered result list for the range start.
	idx := sort.Search(len(sub.results), func(i int) bool { return sub.results[i].ts > from })
	end := idx
	for ; end < len(sub.results); end++ {
		if r := sub.results[end]; r.ts > to || (r.ts == to && !inclusiveTo) {
			break
		}
		c.stats.FetchedBytes.Add(float64(sub.results[end].size))
	}
	stored := append([]storedResult(nil), sub.results[idx:end]...)
	c.mu.Unlock()
	return encodeResults(stored)
}

// ResultsContext is Results with a context parameter, satisfying the
// broker's context-aware backend interface. The context is ignored: the
// in-process cluster answers from memory without blocking I/O.
func (c *Cluster) ResultsContext(_ context.Context, subID string, from, to time.Duration, inclusiveTo bool) ([]ResultObject, error) {
	return c.Results(subID, from, to, inclusiveTo)
}

// LatestTimestamp returns the newest result timestamp of a subscription
// (zero when it has produced nothing yet).
func (c *Cluster) LatestTimestamp(subID string) (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sub, ok := c.subs[subID]
	if !ok {
		return 0, fmt.Errorf("bdms: unknown subscription %q", subID)
	}
	return sub.lastTS, nil
}
