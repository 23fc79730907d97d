package bdms

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// One apply path. A WAL record is the only description of a change to the
// cluster's durable state, and each kind's stage function is the only code
// that makes it, at the record's own at_ns: a live control-plane method
// commits its record through it, and replay — of segments and of
// snapshots, which are compacted logs (store.go) — applies logged records
// through it. Replay does not re-run channel evaluation: its results are
// in the log too. Live ingest and result records take their own hot paths
// (ingest, commitEval).

// commitLocked validates rec against the current state, appends it to the
// WAL when one is attached — durable before the caller is answered — and
// applies it. Caller holds c.mu.
func (c *Cluster) commitLocked(rec walRecord) error {
	apply, err := c.stage(rec)
	if err != nil {
		return err
	}
	if c.wal != nil {
		if err := c.wal.append(rec); err != nil {
			return err
		}
	}
	apply()
	return nil
}

// replayWAL applies a record sequence in order, advancing the cluster
// clock past the replayed horizon so new timestamps stay monotone. Each
// record is committed while the cluster's WAL is not attached yet, so
// nothing is re-logged.
func (c *Cluster) replayWAL(recs []walRecord) error {
	if len(recs) == 0 {
		return nil
	}
	_, sp := c.traces.Start(context.Background(), "cluster.replay")
	sp.SetAttr("records", fmt.Sprintf("%d", len(recs)))
	defer sp.End()
	var maxAt int64
	for i, rec := range recs {
		if rec.AtNS > maxAt {
			maxAt = rec.AtNS
		}
		c.mu.Lock()
		err := c.commitLocked(rec)
		c.mu.Unlock()
		if err != nil {
			err = fmt.Errorf("bdms: wal replay entry %d: %w", i, err)
			sp.SetError(err)
			return err
		}
	}
	// Move the epoch back so the default clock reads at least maxAt: new
	// results must sort after the replayed ones. A custom clock (tests,
	// simulation) ignores the epoch.
	c.mu.Lock()
	defer c.mu.Unlock()
	if candidate := time.Now().Add(-time.Duration(maxAt)); candidate.Before(c.epoch) {
		c.epoch = candidate
	}
	return nil
}

// stage validates rec against the current state and returns the change
// that applies it. A record without a known Kind (logs written before
// PR 10 carried none) fails rather than being guessed at. Caller holds
// c.mu.
func (c *Cluster) stage(rec walRecord) (func(), error) {
	switch rec.Kind {
	case walKindSnapshot:
		return func() { c.subSeq = max(c.subSeq, rec.LastSeq) }, nil
	case walKindDataset:
		return c.stageCreateDataset(rec)
	case walKindIngest:
		return c.stageIngest(rec)
	case walKindChannel:
		return c.stageDefineChannel(rec)
	case walKindDelChannel:
		return c.stageDeleteChannel(rec)
	case walKindSub:
		return c.stageSubscribe(rec)
	case walKindUnsub:
		return c.stageUnsubscribe(rec)
	case walKindResult:
		return c.stageResult(rec)
	case walKindTick:
		g := c.group(rec.Name, rec.Sig)
		// A group dropped by a later unsubscribe that is still ahead in
		// the log has no use for its mark.
		return func() {
			if g != nil {
				c.applyTick(g, rec)
			}
		}, nil
	}
	return nil, fmt.Errorf("bdms: unknown wal record kind %q", rec.Kind)
}

func (c *Cluster) stageCreateDataset(rec walRecord) (func(), error) {
	name := rec.Dataset
	if name == "" {
		return nil, fmt.Errorf("bdms: dataset needs a name")
	}
	if _, ok := c.datasets[name]; ok {
		return nil, fmt.Errorf("bdms: dataset %q %w", name, ErrExists)
	}
	schema := Schema{}
	if rec.Schema != nil {
		schema = *rec.Schema
	}
	return func() { c.datasets[name] = newDataset(name, schema) }, nil
}

// stageIngest re-inserts a publication: validate + store, no evaluation,
// no notification.
func (c *Cluster) stageIngest(rec walRecord) (func(), error) {
	ds, ok := c.datasets[rec.Dataset]
	if !ok {
		return nil, fmt.Errorf("bdms: unknown dataset %q", rec.Dataset)
	}
	data := rec.Data
	if data == nil {
		data = map[string]any{} // an empty publication's record has no data field
	}
	if err := ds.schema.Validate(data); err != nil {
		return nil, err
	}
	return func() { ds.insertValidated(data, time.Duration(rec.AtNS)) }, nil
}

// stageDefineChannel compiles the definition and checks it against the
// registered state: the channel is new and its body and enrichments read
// existing datasets.
func (c *Cluster) stageDefineChannel(rec walRecord) (func(), error) {
	if rec.Channel == nil {
		return nil, fmt.Errorf("bdms: channel record without definition")
	}
	ch, err := compileChannel(*rec.Channel)
	if err != nil {
		return nil, err
	}
	name := ch.def.Name
	if _, ok := c.channels[name]; ok {
		return nil, fmt.Errorf("bdms: channel %q %w", name, ErrExists)
	}
	if _, ok := c.datasets[ch.dataset]; !ok {
		return nil, fmt.Errorf("bdms: channel %q reads unknown dataset %q", name, ch.dataset)
	}
	for _, e := range ch.enrich {
		if _, ok := c.datasets[e.query.Dataset]; !ok {
			return nil, fmt.Errorf("bdms: channel %q enrichment %q reads unknown dataset %q",
				name, e.spec.Name, e.query.Dataset)
		}
	}
	return func() { c.channels[name] = ch }, nil
}

func (c *Cluster) stageDeleteChannel(rec walRecord) (func(), error) {
	name := rec.Name
	if _, ok := c.channels[name]; !ok {
		return nil, fmt.Errorf("bdms: unknown channel %q", name)
	}
	if cg := c.groups[name]; cg != nil {
		return nil, fmt.Errorf("bdms: channel %q has %d live subscriptions", name, cg.subs)
	}
	return func() {
		delete(c.channels, name)
		delete(c.evalWarned, name)
	}, nil
}

// stageSubscribe binds the subscription's positional parameters; applying
// it joins the evaluation group of their canonical signature (evalgroup.go)
// and keeps the ID sequence past the subscription's number.
func (c *Cluster) stageSubscribe(rec walRecord) (func(), error) {
	ch, ok := c.channels[rec.Name]
	if !ok {
		return nil, fmt.Errorf("bdms: unknown channel %q", rec.Name)
	}
	if _, ok := c.subs[rec.Sub]; ok {
		return nil, fmt.Errorf("bdms: subscription %q already exists", rec.Sub)
	}
	bound, err := ch.bindParams(rec.Params)
	if err != nil {
		return nil, err
	}
	n, _ := strconv.ParseUint(strings.TrimPrefix(rec.Sub, "bsub-"), 10, 64)
	sub := &subscription{id: rec.Sub, n: n, ch: ch, params: canonicalParams(bound), callback: rec.Callback}
	return func() {
		c.subSeq = max(c.subSeq, n)
		c.joinGroup(sub, time.Duration(rec.AtNS))
		c.subs[sub.id] = sub
	}, nil
}

func (c *Cluster) stageUnsubscribe(rec walRecord) (func(), error) {
	sub, ok := c.subs[rec.Sub]
	if !ok {
		return nil, fmt.Errorf("bdms: unknown subscription %q", rec.Sub)
	}
	return func() {
		delete(c.subs, sub.id)
		c.leaveGroup(sub)
	}, nil
}

// stageResult appends one logged result object to a result dataset,
// restoring the subscription's timestamp high-water mark. Only a result
// the subscription produced advances its sequence: a snapshot's copy of
// the history a late joiner was seeded with keeps the producer's ID.
func (c *Cluster) stageResult(rec walRecord) (func(), error) {
	if rec.Result == nil {
		return nil, fmt.Errorf("bdms: result record without object")
	}
	sub, ok := c.subs[rec.Sub]
	if !ok {
		return nil, fmt.Errorf("bdms: result for unknown subscription %q", rec.Sub)
	}
	r, err := storeResult(*rec.Result)
	if err != nil {
		return nil, err
	}
	return func() {
		sub.results = append(sub.results, r)
		sub.lastTS = max(sub.lastTS, r.ts)
		if r.subID == sub.id {
			sub.seq++
		}
	}, nil
}

// applyTick sets a repetitive group's progress mark and schedules its next
// run one period after the tick, so restarted periodic executions neither
// re-evaluate publications whose results were already produced (and
// replayed) nor skip ones that were not, and run when they would have.
// Caller holds c.mu.
func (c *Cluster) applyTick(g *evalGroup, rec walRecord) {
	g.lastSeq = rec.LastSeq
	g.nextRun = time.Duration(rec.AtNS) + g.ch.def.Period
}
