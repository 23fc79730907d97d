package bdms

import (
	"bufio"
	"context"
	"fmt"
	"io"
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
// holding numbered log segments plus periodic snapshots.
//
//	wal-000001.jsonl            appends since the beginning (segment 1)
//	snapshot-000001.jsonl       segments 1..1 compacted
//	wal-000002.jsonl            appends since that snapshot
//	...
//
// A snapshot is the log compacted: a WAL file in the same record format,
// holding the records that rebuild the state segments 1..K left. Recovery
// reads the newest decodable snapshot K and replays it, then segments K+1,
// K+2, ... in order — a missing one fails recovery rather than opening on
// half the history. Only the final segment may end in a torn record
// (crash mid-append), which is dropped and truncated away. Compaction
// rotates to a fresh segment, writes the snapshot of the state the
// finished one leaves, and prunes everything the snapshot covers; the
// write order (open new segment → finish old segment → write snapshot
// via atomic rename → prune) leaves every crash window recoverable.
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

	// snapSeg is the newest snapshot's index (0: none).
	snapSeg atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// StoreConfig tunes a Store.
type StoreConfig struct {
	// Sync is the WAL fsync policy (-wal-sync always|interval).
	Sync SyncPolicy
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
	// SnapshotBytes accumulates written snapshot sizes.
	SnapshotBytes obs.Counter
	// SnapshotErrors counts failed compactions.
	SnapshotErrors obs.Counter
	// BadSnapshots counts snapshot files that failed to decode during
	// recovery (skipped in favor of an older one and a longer replay).
	BadSnapshots obs.Counter
	// SegmentsPruned counts WAL segments removed by compaction.
	SegmentsPruned obs.Counter
}

func segPath(dir string, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.jsonl", seg))
}

func snapPath(dir string, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%06d.jsonl", seg))
}

// syncEvery is the background fsync period under SyncInterval.
const syncEvery = 100 * time.Millisecond

// OpenStore recovers (or initializes) the segmented store at dir and
// returns it with a ready cluster attached. Cluster options apply to the
// recovered cluster; the WAL option is managed by the store itself.
func OpenStore(dir string, cfg StoreConfig, opts ...Option) (*Store, error) {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
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
		case matchIndexed(e.Name(), "snapshot-%06d.jsonl", &n):
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

// recover replays the newest decodable snapshot and the segments past it,
// returning the snapshot's segment index (0 when none loaded).
func (s *Store) recover(c *Cluster, segs, snaps []int, sp *span.Span) (int, error) {
	snapSeg := 0
	for i := len(snaps) - 1; i >= 0; i-- {
		path := snapPath(s.dir, snaps[i])
		recs, err := readWALFile(path, s.walStats, false)
		if err == nil && (len(recs) == 0 || recs[0].Kind != walKindSnapshot) {
			err = fmt.Errorf("bdms: no snapshot header")
		}
		if err != nil {
			s.stats.BadSnapshots.Inc()
			s.cfg.Logger.Warn("bdms: skipping undecodable snapshot", "path", path, "err", err)
			continue
		}
		if err := c.replayWAL(recs); err != nil {
			return 0, fmt.Errorf("bdms: snapshot %d: %w", snaps[i], err)
		}
		snapSeg = snaps[i]
		s.snapSeg.Store(int64(snapSeg))
		break
	}
	sp.SetAttr("snapshot", fmt.Sprintf("%d", snapSeg))

	var pending []int
	for _, seg := range segs {
		if seg > snapSeg {
			if want := snapSeg + 1 + len(pending); seg != want {
				return 0, fmt.Errorf("bdms: segment %d is missing: the history past snapshot %d has a hole", want, snapSeg)
			}
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

// SnapshotAge returns the time since the newest snapshot was written, by
// its file's mtime, or -1 when none exists yet.
func (s *Store) SnapshotAge() time.Duration {
	seg := s.snapSeg.Load()
	if seg == 0 {
		return -1
	}
	fi, err := os.Stat(snapPath(s.dir, int(seg)))
	if err != nil {
		return -1
	}
	return time.Since(fi.ModTime())
}

// run drives the background fsync and compaction tickers.
func (s *Store) run() {
	defer close(s.done)
	syncT := time.NewTicker(syncEvery)
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

// Compact rotates the WAL onto a fresh segment, writes the snapshot of the
// state the finished segment leaves, and prunes every file the snapshot
// covers. Concurrent ingests keep flowing: only the state capture and
// segment swap hold the cluster lock; encoding the results and file I/O
// happen outside it.
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
	snap := c.snapshotLocked()
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

	n, err := writeSnapshot(snapPath(s.dir, doneSeg), snap)
	if err != nil {
		return err
	}
	s.stats.SnapshotWrites.Inc()
	s.stats.SnapshotBytes.Add(float64(n))
	s.snapSeg.Store(int64(doneSeg))

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

// --- snapshot: the log compacted ----------------------------------------

// snapshot is the cluster, captured under its lock, as the records that
// rebuild it in replay order: the header (the subscription ID sequence,
// which outlives a retired highest-numbered subscription), each dataset
// followed by its ingests, the channels, the subscriptions, each group's
// result log once, and a tick per repetitive group at its last run. The
// results are encoded by writeTo, outside the lock.
type snapshot struct {
	head  []walRecord // header, datasets and ingests, channels, subscriptions
	logs  []heldLog
	ticks []walRecord
}

// heldLog is one group's append-only result log, aliased, and the member
// its records name: the group's first in ID order.
type heldLog struct {
	sub     string
	results []storedResult
}

// snapshotLocked captures the snapshot. Caller holds c.mu.
func (c *Cluster) snapshotLocked() snapshot {
	at := int64(c.clock())
	snap := snapshot{head: []walRecord{{Kind: walKindSnapshot, LastSeq: c.subSeq, AtNS: at}}}
	for _, name := range sortedKeys(c.datasets) {
		ds := c.datasets[name]
		schema := ds.schema
		snap.head = append(snap.head, walRecord{Kind: walKindDataset, Dataset: name, Schema: &schema})
		for _, r := range ds.ScanSince(0) {
			snap.head = append(snap.head, walRecord{Kind: walKindIngest, Dataset: name, Data: r.Data, AtNS: int64(r.IngestedAt)})
		}
	}
	for _, name := range sortedKeys(c.channels) {
		def := c.channels[name].def
		snap.head = append(snap.head, walRecord{Kind: walKindChannel, Channel: &def})
	}
	listed := make(map[*evalGroup]bool)
	for _, id := range sortedKeys(c.subs) {
		sub := c.subs[id]
		g := sub.group
		// Positional parameter values in declaration order, so replay
		// binds them exactly as the original subscribe did.
		params := make([]any, len(g.ch.def.Params))
		for i, name := range g.ch.def.Params {
			params[i] = g.params[name]
		}
		snap.head = append(snap.head, walRecord{
			Kind: walKindSub, Sub: id, Name: g.ch.def.Name,
			Params: params, Callback: sub.callback, AtNS: at,
		})
		if !listed[g] && len(g.results) > 0 {
			listed[g] = true
			snap.logs = append(snap.logs, heldLog{sub: id, results: g.results})
		}
	}
	for _, name := range sortedKeys(c.groups) {
		cg := c.groups[name]
		for _, sig := range sortedKeys(cg.bySig) {
			if g := cg.bySig[sig]; !g.ch.Continuous() {
				snap.ticks = append(snap.ticks, walRecord{
					Kind: walKindTick, Name: name, Sig: sig,
					LastSeq: g.lastSeq, AtNS: int64(g.nextRun - g.ch.def.Period),
				})
			}
		}
	}
	return snap
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeTo writes the snapshot's records as log lines and returns the bytes
// written.
func (snap snapshot) writeTo(w io.Writer) (int, error) {
	bw := bufio.NewWriterSize(w, 64<<10)
	var line []byte
	n := 0
	put := func(rec walRecord) error {
		var err error
		if line, err = appendWALLine(line[:0], rec); err != nil {
			return err
		}
		n += len(line)
		_, err = bw.Write(line)
		return err
	}
	for _, rec := range snap.head {
		if err := put(rec); err != nil {
			return 0, err
		}
	}
	for _, h := range snap.logs {
		objs, err := encodeResults(h.sub, h.results)
		if err != nil {
			return 0, err
		}
		for i := range objs {
			rec := walRecord{Kind: walKindResult, Sub: h.sub, Result: &objs[i], AtNS: int64(objs[i].Timestamp)}
			if err := put(rec); err != nil {
				return 0, err
			}
		}
	}
	for _, rec := range snap.ticks {
		if err := put(rec); err != nil {
			return 0, err
		}
	}
	return n, bw.Flush()
}

// writeSnapshot persists a snapshot via temp file + fsync + atomic rename
// and returns the bytes written.
func writeSnapshot(path string, snap snapshot) (int, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("bdms: open snapshot tmp: %w", err)
	}
	n, err := snap.writeTo(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("bdms: write snapshot: %w", err)
	}
	return n, nil
}
