package bdms

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"gobad/internal/obs"
)

// Durability: the data cluster persists its state to a write-ahead log so
// restarts recover every dataset. AsterixDB — the paper's backend — is a
// durable storage system; this file provides the equivalent substrate
// behaviour. Coverage is full cluster state, not just publications:
//
//   - dataset creations and ingested publications (the raw data),
//   - channel definitions and deletions,
//   - subscription create/remove,
//   - every produced result object, once (its group's result log),
//   - repetitive-group progress marks.
//
// Each entry is one JSONL record appended before the operation is
// acknowledged, and replays through replay.go's one apply path — ingests
// WITHOUT re-running channel evaluation, because the results evaluation
// produced are in the log too, so recovered result logs are
// byte-identical to the pre-crash state. A snapshot is this log compacted
// (store.go).

// WAL record kinds.
const (
	walKindSnapshot   = "snapshot"
	walKindDataset    = "dataset"
	walKindIngest     = "ingest"
	walKindChannel    = "channel"
	walKindDelChannel = "delchannel"
	walKindSub        = "sub"
	walKindUnsub      = "unsub"
	walKindResult     = "result"
	walKindTick       = "tick"
)

// walRecord is one persisted log entry. Only the fields of its kind are
// set; everything is omitempty so the common ingest record stays small.
type walRecord struct {
	// Kind tags the entry.
	Kind string `json:"kind,omitempty"`
	// Dataset names the target dataset (dataset/ingest kinds).
	Dataset string `json:"dataset,omitempty"`
	// Schema is set on dataset-creation entries.
	Schema *Schema `json:"schema,omitempty"`
	// Data is the publication payload (ingest kind).
	Data map[string]any `json:"data,omitempty"`
	// AtNS is the cluster-time timestamp of the operation.
	AtNS int64 `json:"at_ns"`

	// Channel is the full definition (channel kind) — replay recompiles it.
	Channel *ChannelDef `json:"channel,omitempty"`
	// Name is the channel name (delchannel/sub/tick kinds).
	Name string `json:"name,omitempty"`
	// Sub is the subscription ID (sub/unsub/result kinds).
	Sub string `json:"sub,omitempty"`
	// Params are the positional parameter values of a subscription (sub
	// kind).
	Params []any `json:"params,omitempty"`
	// Callback is the subscription's webhook URL (sub kind).
	Callback string `json:"callback,omitempty"`
	// Result is one produced result object (result kind).
	Result *ResultObject `json:"result,omitempty"`
	// Sig is the canonical parameter signature naming an evaluation group
	// (tick kind).
	Sig string `json:"sig,omitempty"`
	// LastSeq is the repetitive group's new progress mark (tick kind), or
	// the subscription ID sequence (snapshot kind).
	LastSeq uint64 `json:"last_seq,omitempty"`
}

// SyncPolicy selects when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncInterval flushes every append to the OS and fsyncs periodically
	// (store.go's ticker) — crash-consistent to the last kernel flush.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs every append before acknowledging; durable through
	// power loss at the cost of per-record fsync latency.
	SyncAlways
)

// ParseSyncPolicy parses the -wal-sync flag values "always" / "interval".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	}
	return 0, fmt.Errorf("bdms: unknown wal sync policy %q (want always or interval)", s)
}

func (p SyncPolicy) String() string {
	if p == SyncAlways {
		return "always"
	}
	return "interval"
}

// WALStats counts log activity; shared across segment rotations so the
// exposed totals are per-process, not per-file.
type WALStats struct {
	// Appends counts append calls (a batch is one append).
	Appends obs.Counter
	// Records counts appended records.
	Records obs.Counter
	// Fsyncs counts fsync calls issued by policy or explicit Sync.
	Fsyncs obs.Counter
	// AppendErrors counts appends that failed (encode or I/O).
	AppendErrors obs.Counter
	// TornTails counts truncated final records dropped during replay.
	TornTails obs.Counter
	// ReplayRecords counts records applied during startup replay.
	ReplayRecords obs.Counter
	// ReplaySeconds accumulates time spent replaying at startup.
	ReplaySeconds obs.Counter
}

// WAL is an append-only cluster-state log (one file; store.go rotates
// across segment files).
type WAL struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	policy SyncPolicy
	stats  *WALStats
	// line is the result records' encoding buffer, reused under mu.
	line []byte
	// dirty marks records appended since the last successful fsync, so
	// an interval Sync of a clean log costs nothing.
	dirty bool
}

// createWAL opens (creating if needed) one log file for appending; the
// store has already made its directory.
func createWAL(path string, policy SyncPolicy, stats *WALStats) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bdms: open wal: %w", err)
	}
	return &WAL{f: f, w: bufio.NewWriter(f), policy: policy, stats: stats}, nil
}

// append writes one record and flushes it to the OS (plus fsync under
// SyncAlways).
func (w *WAL) append(rec walRecord) error {
	return w.appendBatch([]walRecord{rec})
}

// appendBatch writes a batch of records under one lock acquisition with a
// single flush (and, under SyncAlways, a single fsync) at the end — the
// WAL half of the batch-ingest amortization. Each record is still its own
// JSONL line, so replay (and torn-tail recovery) is unchanged.
func (w *WAL) appendBatch(recs []walRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendLocked(recs); err != nil {
		w.stats.AppendErrors.Inc()
		return err
	}
	w.stats.Appends.Inc()
	w.stats.Records.Add(float64(len(recs)))
	return nil
}

func (w *WAL) appendLocked(recs []walRecord) error {
	if w.f == nil {
		return fmt.Errorf("bdms: wal closed")
	}
	w.dirty = true
	for _, rec := range recs {
		var err error
		if w.line, err = appendWALLine(w.line[:0], rec); err != nil {
			return err
		}
		if _, err := w.w.Write(w.line); err != nil {
			return fmt.Errorf("bdms: wal write: %w", err)
		}
	}
	// Flush to the kernel on every record. Under the default interval
	// policy fsync is traded away for throughput (crash-consistency to the
	// last OS flush), matching big-data ingest pipelines more than
	// transactional stores; -wal-sync always buys full durability instead.
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("bdms: wal flush: %w", err)
	}
	if w.policy == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("bdms: wal fsync: %w", err)
		}
		w.dirty = false
		w.stats.Fsyncs.Inc()
	}
	return nil
}

// appendWALLine appends rec as one log line, newline included.
func appendWALLine(dst []byte, rec walRecord) ([]byte, error) {
	switch rec.Kind {
	case walKindResult:
		// Most of the log's bytes: rows spliced in, not re-scanned.
		return append(appendResultRecord(dst, rec), '\n'), nil
	case walKindIngest:
		if line, ok := appendIngestRecord(dst, rec); ok {
			return append(line, '\n'), nil
		}
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return dst, fmt.Errorf("bdms: wal encode: %w", err)
	}
	return append(append(dst, b...), '\n'), nil
}

// Sync forces the log to stable storage. A log with nothing appended
// since its last successful fsync is already there; a failed fsync leaves
// it dirty, so the next Sync tries again.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil || !w.dirty {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	w.stats.Fsyncs.Inc()
	return nil
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	flushErr := w.w.Flush()
	closeErr := w.f.Close()
	w.f, w.w = nil, nil
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// readWALFile parses every complete record of one log file. A torn final
// line (crash mid-append) is tolerated only when allowTorn is set — the
// line is dropped with a WARN-worthy counter bump and the file is
// truncated back to the end of the last complete record, because
// appending after an unterminated line would merge two records into one
// corrupt line. Missing files yield no records.
func readWALFile(path string, stats *WALStats, allowTorn bool) ([]walRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("bdms: open wal for replay: %w", err)
	}
	recs, goodOff, torn, err := readWAL(f)
	closeErr := f.Close()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, fmt.Errorf("bdms: close wal after replay: %w", closeErr)
	}
	if torn {
		if !allowTorn {
			return nil, fmt.Errorf("bdms: wal %s: torn record before end of log", path)
		}
		stats.TornTails.Inc()
		if err := os.Truncate(path, goodOff); err != nil {
			return nil, fmt.Errorf("bdms: truncate torn wal tail: %w", err)
		}
	}
	return recs, nil
}

// readWAL parses every complete record, returning the byte offset of the
// end of the last complete record and whether a torn final line was
// dropped. Only the final line may fail (crash mid-append); anything
// earlier is corruption worth surfacing. A final line without its
// terminating newline is torn even when it happens to decode: the append
// path writes record+newline in one call, so an unterminated record was
// never acknowledged — and keeping it would let the next append glue two
// records into one corrupt line.
func readWAL(r io.Reader) (recs []walRecord, goodOff int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	line := 0
	badLine := 0
	var badErr error
	for {
		chunk, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, 0, false, fmt.Errorf("bdms: wal read: %w", rerr)
		}
		terminated := rerr == nil
		if len(chunk) == 0 {
			break // clean EOF
		}
		line++
		payload := chunk
		if terminated {
			payload = chunk[:len(chunk)-1]
		}
		if badErr != nil {
			// Any line AFTER the bad one means the failure was mid-file,
			// not a torn tail.
			return nil, 0, false, fmt.Errorf("bdms: wal corrupt at line %d: %w", badLine, badErr)
		}
		switch {
		case len(payload) == 0 && terminated:
			goodOff += int64(len(chunk)) // blank line, harmless
		case !terminated:
			badLine, badErr = line, fmt.Errorf("unterminated record")
		default:
			var rec walRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				badLine, badErr = line, err
				continue
			}
			goodOff += int64(len(chunk))
			recs = append(recs, rec)
		}
		if !terminated {
			break
		}
	}
	return recs, goodOff, badErr != nil, nil
}

// logIngest appends a publication entry (no-op without a WAL).
func (c *Cluster) logIngest(dataset string, data map[string]any, at time.Duration) error {
	if c.wal == nil {
		return nil
	}
	return c.wal.append(walRecord{Kind: walKindIngest, Dataset: dataset, Data: data, AtNS: int64(at)})
}

// logIngestBatch appends a publication batch with one flush (no-op without
// a WAL). Single-record batches use the plain append path.
func (c *Cluster) logIngestBatch(dataset string, batch []map[string]any, at time.Duration) error {
	if c.wal == nil {
		return nil
	}
	if len(batch) == 1 {
		return c.logIngest(dataset, batch[0], at)
	}
	recs := make([]walRecord, len(batch))
	for i, data := range batch {
		recs[i] = walRecord{Kind: walKindIngest, Dataset: dataset, Data: data, AtNS: int64(at)}
	}
	return c.wal.appendBatch(recs)
}
