package bdms

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// Store is the segmented durability layer on top of the WAL: a directory
// holding numbered log segments plus periodic full-state snapshots.
//
//	wal-000001.jsonl            appends since the beginning (segment 1)
//	snapshot-000001.json        state after fully applying segment 1
//	wal-000002.jsonl            appends since that snapshot
//	...
//
// Recovery loads the newest decodable snapshot K and replays every
// segment with index > K in order; only the final segment may end in a
// torn record (crash mid-append), which is dropped and truncated away.
// Compaction snapshots the live state, rotates to a fresh segment, and
// prunes everything the snapshot covers — the write order (finish old
// segment → open new segment → write snapshot via atomic rename → prune)
// leaves every crash window recoverable.
type Store struct {
	dir      string
	cfg      StoreConfig
	cluster  *Cluster
	walStats *WALStats
	stats    StoreStats

	// mu serializes compaction and close.
	mu     sync.Mutex
	seg    int
	closed bool

	lastSnapshotUnixNS atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// StoreConfig tunes a Store.
type StoreConfig struct {
	// Sync is the WAL fsync policy (-wal-sync always|interval).
	Sync SyncPolicy
	// SyncInterval is the background fsync period under SyncInterval
	// (default 100ms; ignored under SyncAlways).
	SyncInterval time.Duration
	// CompactInterval triggers automatic snapshot+compaction on a timer
	// (zero disables it; call Compact explicitly instead).
	CompactInterval time.Duration
	// Logger receives recovery and compaction reports (default slog
	// default logger).
	Logger *slog.Logger
	// Traces records the cluster.replay recovery span when set.
	Traces *span.Recorder
}

// StoreStats counts snapshot activity.
type StoreStats struct {
	// SnapshotWrites counts completed snapshot+compaction cycles.
	SnapshotWrites obs.Counter
	// SnapshotBytes accumulates encoded snapshot sizes.
	SnapshotBytes obs.Counter
	// SnapshotErrors counts failed compactions.
	SnapshotErrors obs.Counter
	// BadSnapshots counts snapshot files that failed to decode during
	// recovery (skipped in favor of an older one).
	BadSnapshots obs.Counter
	// SegmentsPruned counts WAL segments removed by compaction.
	SegmentsPruned obs.Counter
}

func segPath(dir string, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.jsonl", seg))
}

func snapPath(dir string, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%06d.json", seg))
}

// OpenStore recovers (or initializes) the segmented store at dir and
// returns it with a ready cluster attached. Cluster options apply to the
// recovered cluster; the WAL option is managed by the store itself.
func OpenStore(dir string, cfg StoreConfig, opts ...Option) (*Store, error) {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bdms: store dir: %w", err)
	}
	s := &Store{
		dir:      dir,
		cfg:      cfg,
		walStats: &WALStats{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}

	segs, snaps, err := s.scanDir()
	if err != nil {
		return nil, err
	}

	c := NewCluster(opts...)
	c.traces = cfg.Traces
	s.cluster = c

	start := time.Now()
	_, sp := c.traces.Start(context.Background(), "cluster.replay")
	snapSeg, err := s.recover(c, segs, snaps, sp)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return nil, err
	}
	s.walStats.ReplaySeconds.Add(time.Since(start).Seconds())
	sp.End()

	// Continue appending to the highest existing segment, or start the
	// one after the snapshot when every covered segment was pruned.
	s.seg = snapSeg + 1
	if len(segs) > 0 && segs[len(segs)-1] >= s.seg {
		s.seg = segs[len(segs)-1]
	}
	wal, err := createWAL(segPath(dir, s.seg), cfg.Sync, s.walStats)
	if err != nil {
		return nil, err
	}
	c.wal = wal

	if s.walStats.TornTails.Value() > 0 {
		cfg.Logger.Warn("bdms: dropped torn wal tail during recovery", "dir", dir)
	}

	go s.run()
	return s, nil
}

// scanDir lists existing segment and snapshot indices, both ascending.
func (s *Store) scanDir() (segs, snaps []int, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("bdms: read store dir: %w", err)
	}
	for _, e := range entries {
		var n int
		switch {
		case matchIndexed(e.Name(), "wal-%06d.jsonl", &n):
			segs = append(segs, n)
		case matchIndexed(e.Name(), "snapshot-%06d.json", &n):
			snaps = append(snaps, n)
		}
	}
	sort.Ints(segs)
	sort.Ints(snaps)
	return segs, snaps, nil
}

func matchIndexed(name, format string, n *int) bool {
	var parsed int
	if _, err := fmt.Sscanf(name, format, &parsed); err != nil {
		return false
	}
	if fmt.Sprintf(format, parsed) != name {
		return false
	}
	*n = parsed
	return true
}

// recover loads the newest decodable snapshot and replays the segments
// past it, returning the snapshot's segment index (0 when none loaded).
func (s *Store) recover(c *Cluster, segs, snaps []int, sp *span.Span) (int, error) {
	snapSeg := 0
	for i := len(snaps) - 1; i >= 0; i-- {
		snap, err := readSnapshot(snapPath(s.dir, snaps[i]))
		if err != nil {
			s.stats.BadSnapshots.Inc()
			s.cfg.Logger.Warn("bdms: skipping undecodable snapshot",
				"path", snapPath(s.dir, snaps[i]), "err", err)
			continue
		}
		if err := c.restoreSnapshot(snap); err != nil {
			return 0, fmt.Errorf("bdms: restore snapshot %d: %w", snaps[i], err)
		}
		snapSeg = snaps[i]
		s.lastSnapshotUnixNS.Store(snap.TakenUnixNS)
		break
	}
	sp.SetAttr("snapshot", fmt.Sprintf("%d", snapSeg))

	var pending []int
	for _, seg := range segs {
		if seg > snapSeg {
			pending = append(pending, seg)
		}
	}
	replayed := 0
	for i, seg := range pending {
		// Only the newest segment can legally end mid-record; a torn tail
		// anywhere earlier means lost history and must fail loudly.
		last := i == len(pending)-1
		recs, err := readWALFile(segPath(s.dir, seg), s.walStats, last)
		if err != nil {
			return 0, fmt.Errorf("bdms: segment %d: %w", seg, err)
		}
		if err := c.replayWAL(recs); err != nil {
			return 0, fmt.Errorf("bdms: segment %d: %w", seg, err)
		}
		replayed += len(recs)
		s.walStats.ReplayRecords.Add(float64(len(recs)))
	}
	sp.SetAttr("segments", fmt.Sprintf("%d", len(pending)))
	sp.SetAttr("records", fmt.Sprintf("%d", replayed))
	return snapSeg, nil
}

// Cluster returns the recovered cluster.
func (s *Store) Cluster() *Cluster { return s.cluster }

// Stats returns the store's snapshot counters.
func (s *Store) Stats() *StoreStats { return &s.stats }

// WALStats returns the process-wide WAL counters (shared across segment
// rotations).
func (s *Store) WALStats() *WALStats { return s.walStats }

// SnapshotAge returns the time since the last completed snapshot, or -1
// when none exists yet.
func (s *Store) SnapshotAge() time.Duration {
	ns := s.lastSnapshotUnixNS.Load()
	if ns == 0 {
		return -1
	}
	return time.Since(time.Unix(0, ns))
}

// run drives the background fsync and compaction tickers.
func (s *Store) run() {
	defer close(s.done)
	syncT := time.NewTicker(s.cfg.SyncInterval)
	defer syncT.Stop()
	var compactC <-chan time.Time
	if s.cfg.CompactInterval > 0 {
		compactT := time.NewTicker(s.cfg.CompactInterval)
		defer compactT.Stop()
		compactC = compactT.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-syncT.C:
			if s.cfg.Sync == SyncInterval {
				if w := s.currentWAL(); w != nil {
					_ = w.Sync()
				}
			}
		case <-compactC:
			if err := s.Compact(); err != nil {
				s.cfg.Logger.Warn("bdms: compaction failed", "err", err)
			}
		}
	}
}

func (s *Store) currentWAL() *WAL {
	c := s.cluster
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wal
}

// Compact snapshots the full cluster state, rotates the WAL onto a fresh
// segment, and prunes every file the snapshot covers. Concurrent ingests
// keep flowing: only the state capture and segment swap hold the cluster
// lock; snapshot encoding and file I/O happen outside it.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("bdms: store closed")
	}
	err := s.compactLocked()
	if err != nil {
		s.stats.SnapshotErrors.Inc()
	}
	return err
}

func (s *Store) compactLocked() error {
	c := s.cluster
	doneSeg := s.seg
	newSeg := doneSeg + 1
	newWAL, err := createWAL(segPath(s.dir, newSeg), s.cfg.Sync, s.walStats)
	if err != nil {
		return err
	}

	c.mu.Lock()
	snap := c.snapshotStateLocked()
	oldWAL := c.wal
	c.wal = newWAL
	c.mu.Unlock()
	s.seg = newSeg

	// The finished segment must be durable before the snapshot claims to
	// cover it.
	if oldWAL != nil {
		if err := oldWAL.Sync(); err != nil {
			return fmt.Errorf("bdms: sync finished segment: %w", err)
		}
		if err := oldWAL.Close(); err != nil {
			return fmt.Errorf("bdms: close finished segment: %w", err)
		}
	}

	snap.Seg = doneSeg
	snap.TakenUnixNS = time.Now().UnixNano()
	n, err := writeSnapshot(snapPath(s.dir, doneSeg), snap)
	if err != nil {
		return err
	}
	s.stats.SnapshotWrites.Inc()
	s.stats.SnapshotBytes.Add(float64(n))
	s.lastSnapshotUnixNS.Store(snap.TakenUnixNS)

	// Prune: segments the snapshot covers and snapshots older than it.
	segs, snaps, err := s.scanDir()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg <= doneSeg {
			if os.Remove(segPath(s.dir, seg)) == nil {
				s.stats.SegmentsPruned.Inc()
			}
		}
	}
	for _, sn := range snaps {
		if sn < doneSeg {
			_ = os.Remove(snapPath(s.dir, sn))
		}
	}
	return nil
}

// Close stops the background tickers and flushes the active segment.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	if w := s.currentWAL(); w != nil {
		if err := w.Sync(); err != nil {
			return err
		}
		return w.Close()
	}
	return nil
}

// --- snapshot format -----------------------------------------------------

// clusterSnapshot is the full-state snapshot file: everything the WAL
// would otherwise replay, so segments at or below Seg can be pruned.
type clusterSnapshot struct {
	Version     int           `json:"version"`
	Seg         int           `json:"seg"`
	TakenUnixNS int64         `json:"taken_unix_ns"`
	ClockNS     int64         `json:"clock_ns"`
	SubSeq      uint64        `json:"sub_seq"`
	Datasets    []snapDataset `json:"datasets"`
	Channels    []ChannelDef  `json:"channels"`
	Subs        []snapSub     `json:"subs"`
	Groups      []snapGroup   `json:"groups,omitempty"`
}

type snapDataset struct {
	Name    string   `json:"name"`
	Schema  Schema   `json:"schema"`
	NextSeq uint64   `json:"next_seq"`
	Records []Record `json:"records"`
}

type snapSub struct {
	ID       string         `json:"id"`
	Channel  string         `json:"channel"`
	Params   []any          `json:"params"`
	Callback string         `json:"callback,omitempty"`
	LastTSNS int64          `json:"last_ts_ns"`
	Seq      uint64         `json:"seq"`
	Results  []ResultObject `json:"results"`
	// stored is the result dataset as captured under the cluster lock;
	// writeSnapshot encodes it into Results outside the lock.
	stored []storedResult
}

// snapGroup persists repetitive-group progress (continuous groups carry
// no execution state beyond their members).
type snapGroup struct {
	Channel string `json:"channel"`
	Sig     string `json:"sig"`
	LastSeq uint64 `json:"last_seq"`
}

const snapshotVersion = 1

// snapshotStateLocked captures the full cluster state. Caller holds c.mu.
func (c *Cluster) snapshotStateLocked() *clusterSnapshot {
	snap := &clusterSnapshot{
		Version: snapshotVersion,
		ClockNS: int64(c.clock()),
		SubSeq:  c.subSeq,
	}
	names := make([]string, 0, len(c.datasets))
	for n := range c.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ds := c.datasets[n]
		snap.Datasets = append(snap.Datasets, snapDataset{
			Name: n, Schema: ds.schema, NextSeq: ds.LastSeq(), Records: ds.ScanSince(0),
		})
	}
	for _, ch := range c.channels {
		snap.Channels = append(snap.Channels, ch.def)
	}
	sort.Slice(snap.Channels, func(i, j int) bool { return snap.Channels[i].Name < snap.Channels[j].Name })
	subIDs := make([]string, 0, len(c.subs))
	for id := range c.subs {
		subIDs = append(subIDs, id)
	}
	sort.Strings(subIDs)
	for _, id := range subIDs {
		sub := c.subs[id]
		// Positional parameter values in declaration order, so restore can
		// re-bind exactly as the original subscribe did.
		params := make([]any, len(sub.ch.def.Params))
		for i, name := range sub.ch.def.Params {
			params[i] = sub.params[name]
		}
		snap.Subs = append(snap.Subs, snapSub{
			ID: id, Channel: sub.ch.def.Name, Params: params, Callback: sub.callback,
			LastTSNS: int64(sub.lastTS), Seq: sub.seq,
			stored: append([]storedResult(nil), sub.results...),
		})
	}
	for chName, cg := range c.groups {
		for sig, g := range cg.bySig {
			if g.ch.Continuous() {
				continue
			}
			snap.Groups = append(snap.Groups, snapGroup{Channel: chName, Sig: sig, LastSeq: g.lastSeq})
		}
	}
	sort.Slice(snap.Groups, func(i, j int) bool {
		if snap.Groups[i].Channel != snap.Groups[j].Channel {
			return snap.Groups[i].Channel < snap.Groups[j].Channel
		}
		return snap.Groups[i].Sig < snap.Groups[j].Sig
	})
	return snap
}

// restoreSnapshot loads a snapshot into a fresh cluster (datasets first,
// then channels, subscriptions, and group progress).
func (c *Cluster) restoreSnapshot(snap *clusterSnapshot) error {
	if snap.Version != snapshotVersion {
		return fmt.Errorf("bdms: unsupported snapshot version %d", snap.Version)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sd := range snap.Datasets {
		if _, ok := c.datasets[sd.Name]; ok {
			return fmt.Errorf("bdms: dataset %q %w", sd.Name, ErrExists)
		}
		ds := newDataset(sd.Name, sd.Schema)
		ds.restoreRecords(sd.NextSeq, sd.Records)
		c.datasets[sd.Name] = ds
	}
	for _, def := range snap.Channels {
		ch, err := compileChannel(def)
		if err != nil {
			return err
		}
		if err := c.registerChannelLocked(ch); err != nil {
			return err
		}
	}
	c.subSeq = snap.SubSeq
	for _, ss := range snap.Subs {
		ch, ok := c.channels[ss.Channel]
		if !ok {
			return fmt.Errorf("bdms: snapshot subscription %q references unknown channel %q", ss.ID, ss.Channel)
		}
		bound, err := ch.bindParams(ss.Params)
		if err != nil {
			return err
		}
		canon := canonicalParams(bound)
		sub := &subscription{
			id: ss.ID, ch: ch, params: canon, callback: ss.Callback,
			lastTS: time.Duration(ss.LastTSNS), seq: ss.Seq,
		}
		for _, obj := range ss.Results {
			r, err := storeResult(obj)
			if err != nil {
				return err
			}
			sub.results = append(sub.results, r)
		}
		c.joinGroup(sub)
		c.subs[sub.id] = sub
	}
	for _, sg := range snap.Groups {
		if g := c.group(sg.Channel, sg.Sig); g != nil {
			g.lastSeq = sg.LastSeq
		}
	}
	if d := time.Duration(snap.ClockNS); d > 0 {
		if candidate := time.Now().Add(-d); candidate.Before(c.epoch) {
			c.epoch = candidate
		}
	}
	return nil
}

// readSnapshot decodes one snapshot file.
func readSnapshot(path string) (*clusterSnapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(b)
}

// decodeSnapshot parses snapshot bytes (fuzzed by FuzzWALRecord's sibling
// target; must never panic on arbitrary input).
func decodeSnapshot(b []byte) (*clusterSnapshot, error) {
	var snap clusterSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return nil, fmt.Errorf("bdms: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("bdms: unsupported snapshot version %d", snap.Version)
	}
	return &snap, nil
}

// writeSnapshot persists a snapshot via temp file + fsync + atomic rename
// and returns the encoded size.
func writeSnapshot(path string, snap *clusterSnapshot) (int, error) {
	for i := range snap.Subs {
		results, err := encodeResults(snap.Subs[i].stored)
		if err != nil {
			return 0, err
		}
		snap.Subs[i].Results = results
	}
	b, err := json.Marshal(snap)
	if err != nil {
		return 0, fmt.Errorf("bdms: encode snapshot: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("bdms: open snapshot tmp: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("bdms: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("bdms: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("bdms: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("bdms: publish snapshot: %w", err)
	}
	return len(b), nil
}
