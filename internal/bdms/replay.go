package bdms

import (
	"context"
	"fmt"
	"time"
)

// Replay: applying WAL records to a fresh cluster at startup. Records are
// applied verbatim and WITHOUT re-running channel evaluation — the results
// of every evaluation are themselves in the log (walKindResult), so
// replaying an ingest through the live pipeline would double-append them.
// The cluster's WAL must not be attached yet (nothing is re-logged).

// replayWAL applies a record sequence in order, advancing the cluster
// clock past the replayed horizon so new timestamps stay monotone.
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
		if err := c.applyWALRecord(rec); err != nil {
			err = fmt.Errorf("bdms: wal replay entry %d: %w", i, err)
			sp.SetError(err)
			return err
		}
	}
	c.advanceClockTo(time.Duration(maxAt))
	return nil
}

// advanceClockTo moves the cluster epoch back so the default clock reads
// at least d — replayed state carries pre-crash timestamps and new results
// must sort after them. Clusters with a custom clock (tests, simulation)
// ignore the epoch, so this is a no-op for them.
func (c *Cluster) advanceClockTo(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		return
	}
	if candidate := time.Now().Add(-d); candidate.Before(c.epoch) {
		c.epoch = candidate
	}
}

// applyWALRecord applies one record. A record without a known Kind (logs
// written before PR 10 carried none) fails recovery rather than being
// guessed at.
func (c *Cluster) applyWALRecord(rec walRecord) error {
	switch rec.Kind {
	case walKindDataset:
		return c.applyCreateDataset(rec.Dataset, rec.Schema)
	case walKindIngest:
		return c.applyIngest(rec.Dataset, rec.Data, time.Duration(rec.AtNS))
	case walKindChannel:
		return c.applyDefineChannel(rec.Channel)
	case walKindDelChannel:
		return c.applyDeleteChannel(rec.Name)
	case walKindSub:
		return c.applySubscribe(rec.Sub, rec.Name, rec.Params, rec.Callback)
	case walKindUnsub:
		return c.applyUnsubscribe(rec.Sub)
	case walKindResult:
		return c.applyResult(rec.Sub, rec.Result)
	case walKindTick:
		return c.applyTick(rec.Name, rec.Sig, rec.LastSeq)
	}
	return fmt.Errorf("bdms: unknown wal record kind %q", rec.Kind)
}

func (c *Cluster) applyCreateDataset(name string, schema *Schema) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.datasets[name]; ok {
		return fmt.Errorf("bdms: dataset %q already exists", name)
	}
	s := Schema{}
	if schema != nil {
		s = *schema
	}
	c.datasets[name] = newDataset(name, s)
	return nil
}

// applyIngest re-inserts a publication: validate + store, no evaluation,
// no notification, no re-logging.
func (c *Cluster) applyIngest(dataset string, data map[string]any, at time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.datasets[dataset]
	if !ok {
		return fmt.Errorf("bdms: unknown dataset %q", dataset)
	}
	if data == nil {
		return fmt.Errorf("bdms: nil record for dataset %s", dataset)
	}
	if err := ds.schema.Validate(data); err != nil {
		return err
	}
	ds.insertValidated(data, at)
	return nil
}

func (c *Cluster) applyDefineChannel(def *ChannelDef) error {
	if def == nil {
		return fmt.Errorf("bdms: channel record without definition")
	}
	ch, err := compileChannel(*def)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registerChannelLocked(ch)
}

func (c *Cluster) applyDeleteChannel(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.channels[name]; !ok {
		return fmt.Errorf("bdms: unknown channel %q", name)
	}
	delete(c.channels, name)
	delete(c.groups, name)
	return nil
}

// applySubscribe re-creates a subscription under its original ID,
// mirroring Subscribe: it joins (or creates) the evaluation group of its
// canonical signature and seeds its result history from an existing member
// — exactly the state the live subscribe produced, since results logged
// before this record were applied to the earlier members already.
func (c *Cluster) applySubscribe(subID, channelName string, params []any, callback string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.channels[channelName]
	if !ok {
		return fmt.Errorf("bdms: unknown channel %q", channelName)
	}
	if _, ok := c.subs[subID]; ok {
		return fmt.Errorf("bdms: subscription %q already exists", subID)
	}
	bound, err := ch.bindParams(params)
	if err != nil {
		return err
	}
	canon := canonicalParams(bound)
	sub := &subscription{id: subID, ch: ch, params: canon, callback: callback}
	var n uint64
	if _, err := fmt.Sscanf(subID, "bsub-%d", &n); err == nil && n > c.subSeq {
		c.subSeq = n
	}
	if g, created := c.joinGroup(sub); !created {
		eq := g.members[0]
		sub.results = append([]storedResult(nil), eq.results...)
		sub.lastTS = eq.lastTS
	}
	c.subs[sub.id] = sub
	return nil
}

func (c *Cluster) applyUnsubscribe(subID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sub, ok := c.subs[subID]
	if !ok {
		return fmt.Errorf("bdms: unknown subscription %q", subID)
	}
	delete(c.subs, subID)
	c.leaveGroup(sub)
	return nil
}

// applyResult appends one logged result object to its subscription's
// result dataset, restoring the per-subscription timestamp and sequence
// high-water marks.
func (c *Cluster) applyResult(subID string, obj *ResultObject) error {
	if obj == nil {
		return fmt.Errorf("bdms: result record without object")
	}
	r, err := storeResult(*obj)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sub, ok := c.subs[subID]
	if !ok {
		return fmt.Errorf("bdms: result for unknown subscription %q", subID)
	}
	sub.results = append(sub.results, r)
	if obj.Timestamp > sub.lastTS {
		sub.lastTS = obj.Timestamp
	}
	sub.seq++
	return nil
}

// applyTick restores a repetitive group's progress mark so restarted
// periodic executions neither re-evaluate publications whose results were
// already produced (and replayed) nor skip ones that were not.
func (c *Cluster) applyTick(channelName, sig string, lastSeq uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.group(channelName, sig)
	if g == nil {
		// The group may have been dropped by a later unsubscribe that is
		// still ahead in the log; the mark is then irrelevant.
		return nil
	}
	g.lastSeq = lastSeq
	g.nextRun = c.clock() + g.ch.def.Period
	return nil
}
