package bdms

import (
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"gobad/internal/aql"
	"gobad/internal/wire"
)

// Shared channel evaluation. Subscriptions of one channel are grouped by
// parameter signature; matching runs once per GROUP per publication batch
// and the rows are appended once, to the result log all members read. With
// S subscriptions over G distinct signatures that turns O(S) channel
// executions per publication into O(G) — the cluster-side twin of the
// broker's subscription suppression ("Optimizing Big Active Data
// Management Systems") — and each of the G is one call of the channel's
// compiled predicate over a record frame and the group's flat parameter
// vector ("Subscribing to Big Data at Scale": the new data joined with a
// table of bound parameters), which allocates nothing unless it matches.
//
// Membership rule: a result goes to the subscriptions that are members of
// the group when the result COMMITS. Evaluation runs outside Cluster.mu on
// a snapshot of the channel's table, so subscriptions come and go while it
// runs: one unsubscribed during the evaluation has left the group by
// commit time and gets nothing (even when the group itself was dropped and
// re-created meanwhile — the result belongs to the old group object, which
// has no members left, and keeps nothing); one that joined during the
// evaluation gets the result like any other member.

// evalGroup is the unit of evaluation: one (channel, parameter signature)
// with its member subscriptions and their result log. Everything but
// members, the log, pos and the repetitive execution state is immutable
// after creation; those are guarded by Cluster.mu.
type evalGroup struct {
	ch     *channel
	sig    string
	params map[string]any // canonicalized bound parameters
	consts aql.Consts     // params bound once to ch.query's slots
	// members read one result log. memberIdx on the subscription makes
	// removal O(1).
	members []*subscription

	// The result log, in timestamp order, and its newest timestamp; IDs
	// are <log>-r<seq>, log naming the subscription that opened the group.
	results []storedResult
	lastTS  time.Duration
	log     string
	seq     uint64

	// Placement of a continuous channel's group: pos in channelGroups.table,
	// and, when idxOK, idxKey in an equality index or box in a geo one.
	pos    int
	idxKey string
	box    geoBox
	idxOK  bool

	// Repetitive execution state, shared by all members: the group runs
	// one query per period regardless of how many subscriptions joined.
	lastSeq uint64
	nextRun time.Duration
}

// tableEntry is one row of a continuous channel's scan table: a group's
// bound parameters next to the group, so a scan reads the group itself
// only when the predicate matched.
type tableEntry struct {
	consts aql.Consts
	g      *evalGroup
}

// channelGroups is one channel's evaluation state, guarded by Cluster.mu.
type channelGroups struct {
	bySig map[string]*evalGroup
	// table lists a continuous channel's groups densely, in no particular
	// order. The publish path copies the slice header under the lock and
	// scans it outside, so published elements are never written again:
	// adding a group appends (a scan never looks past the length it
	// copied), removing one builds a new array.
	table []tableEntry
	// index selects the table positions a record can match, by bound
	// equality value or geo circle (nil when the channel body has no
	// indexable conjunct, see index.go).
	index *groupIndex
	// subs counts live subscriptions across the channel's groups.
	subs int
}

// group returns channel ch's group for sig, or nil. Caller holds
// Cluster.mu.
func (c *Cluster) group(channelName, sig string) *evalGroup {
	if cg := c.groups[channelName]; cg != nil {
		return cg.bySig[sig]
	}
	return nil
}

// joinGroup adds sub, subscribing to ch with canonical params at time at,
// to the group of their signature. The first member creates the group and
// names its log; params are bound to the compiled query once, here, and a
// continuous group takes a position in the scan table (and index). The
// (channel, parameter values) pair identifies a logical result dataset
// (Section IV), so a later member just reads the log: a broker
// re-subscribing after a failover sees its predecessor's history and IDs.
// Caller holds Cluster.mu.
func (c *Cluster) joinGroup(sub *subscription, ch *channel, params map[string]any, at time.Duration) {
	cg := c.groups[ch.def.Name]
	if cg == nil {
		cg = &channelGroups{bySig: make(map[string]*evalGroup)}
		if ch.Continuous() && ch.index != nil {
			cg.index = newGroupIndex(ch.index)
		}
		c.groups[ch.def.Name] = cg
	}
	sig := paramSignature(params)
	g := cg.bySig[sig]
	if g == nil {
		g = &evalGroup{ch: ch, sig: sig, params: params, consts: ch.query.Bind(params), log: sub.id}
		cg.bySig[sig] = g
		if ch.Continuous() {
			g.pos = len(cg.table)
			cg.table = append(cg.table, tableEntry{consts: g.consts, g: g})
			if cg.index != nil {
				cg.index.add(g)
			}
		} else {
			// A repetitive group only sees publications ingested after
			// its first subscription, and first fires one period later.
			g.lastSeq = c.datasets[ch.dataset].LastSeq()
			g.nextRun = at + ch.def.Period
		}
	}
	sub.group = g
	sub.memberIdx = len(g.members)
	g.members = append(g.members, sub)
	cg.subs++
}

// leaveGroup swap-removes sub from its group in O(1) and drops the group
// from every index when it became empty. Caller holds Cluster.mu.
func (c *Cluster) leaveGroup(sub *subscription) {
	g := sub.group
	if g == nil {
		return
	}
	last := len(g.members) - 1
	moved := g.members[last]
	g.members[sub.memberIdx] = moved
	moved.memberIdx = sub.memberIdx
	g.members[last] = nil
	g.members = g.members[:last]
	sub.group = nil

	name := g.ch.def.Name
	cg := c.groups[name]
	cg.subs--
	if last > 0 {
		if len(g.results) == 0 && g.log == sub.id {
			// The opener left an empty log: name it as a snapshot's
			// replay does, after the member listed first (lowest ID).
			g.log = g.members[0].id
			for _, m := range g.members[1:] {
				g.log = min(g.log, m.id)
			}
		}
		return
	}
	delete(cg.bySig, g.sig)
	if len(cg.bySig) == 0 {
		delete(c.groups, name)
		return
	}
	if !g.ch.Continuous() {
		return
	}
	if cg.index != nil {
		cg.index.remove(g)
	}
	// Copy-on-write removal: the table's last entry takes g's position in
	// a fresh array, leaving the one in-flight scans hold untouched.
	end := len(cg.table) - 1
	table := make([]tableEntry, end)
	copy(table, cg.table[:end])
	if g.pos != end {
		table[g.pos] = cg.table[end]
		table[g.pos].g.pos = g.pos
	}
	cg.table = table
}

// evalTask is the outcome of one group evaluation that produced rows or
// failed; groups whose predicate matched nothing never get one.
type evalTask struct {
	g    *evalGroup
	rows []map[string]any
	enc  json.RawMessage // rows' encoding; len(enc) is the result's Size
	err  error
}

// evaluate runs ch over frames — the candidate records, in batch order —
// with one group's bound parameters, outside Cluster.mu: it reads only
// immutable group and channel state, the frames, and concurrency-safe
// Datasets. It returns nil when nothing matched, having touched nothing
// but e.consts. memo, when not nil, is the scan's last encoding.
func evaluate(ch *channel, e tableEntry, frames []aql.Frame, enrichDS map[string]*Dataset, memo *rowsMemo) *evalTask {
	rows, err := ch.query.Run(frames, e.consts)
	if err == nil && len(rows) == 0 {
		return nil
	}
	if err == nil && len(ch.enrich) > 0 {
		rows, err = enrich(ch, e.g.params, rows, enrichDS)
	}
	if err != nil {
		return &evalTask{g: e.g, err: err}
	}
	// One encoding serves the WAL record and every member's notification,
	// and its length is the result's size: made once, off-lock. Rows JSON
	// cannot carry (a NaN or an infinity) fail the group like any other
	// evaluation error.
	enc, err := memo.encode(rows)
	if err != nil {
		return &evalTask{g: e.g, err: fmt.Errorf("bdms: encode result rows: %w", err)}
	}
	return &evalTask{g: e.g, rows: rows, enc: enc}
}

// rowsMemo is a scan's last rows and their encoding. The groups of a
// `select *` body that match the same records return the very same
// record maps, so they share one encoding instead of each making its own.
type rowsMemo struct {
	rows []map[string]any
	enc  json.RawMessage
}

func (m *rowsMemo) encode(rows []map[string]any) (json.RawMessage, error) {
	if m != nil && len(rows) == len(m.rows) {
		same := true
		for i, row := range rows {
			if reflect.ValueOf(row).UnsafePointer() != reflect.ValueOf(m.rows[i]).UnsafePointer() {
				same = false
				break
			}
		}
		if same {
			return m.enc, nil
		}
	}
	enc, err := wire.Marshal(rows)
	if err == nil && m != nil {
		m.rows, m.enc = rows, enc
	}
	return enc, err
}

// recordData is the JSON-model view of recs that aql evaluates.
func recordData(recs []Record) []map[string]any {
	raw := make([]map[string]any, len(recs))
	for i, r := range recs {
		raw[i] = r.Data
	}
	return raw
}

// chanScan is one continuous channel's share of a publication batch:
// snapshotted under Cluster.mu, evaluated outside it.
type chanScan struct {
	ch    *channel
	table []tableEntry
	// cands lists the table positions an indexed channel visits (never
	// empty); nil means all of table: the channel has no index, or the
	// batch holds a record its index cannot place.
	cands []candidate
	// enrichDS snapshots the datasets the channel's enrichments read, so
	// evaluation never touches the Cluster.datasets map off-lock.
	enrichDS map[string]*Dataset
}

// candidate is one table position with the batch records (by index) that
// can match it; nil recs means the whole batch.
type candidate struct {
	pos  int
	recs []int
}

// run evaluates the scan's groups over the batch and returns a task for
// each group that matched (or failed). This loop is the cluster's hot
// path: per group it costs one compiled-predicate call per record and no
// allocation, on the publishing goroutine (at these costs a worker pool
// loses to its own hand-off). Caller must NOT hold Cluster.mu.
func (sc *chanScan) run(recs []Record) []*evalTask {
	frames := sc.ch.query.Frames(recordData(recs)) // paths resolve once per record
	var tasks []*evalTask
	var memo rowsMemo
	if sc.cands == nil {
		for i := range sc.table {
			if t := evaluate(sc.ch, sc.table[i], frames, sc.enrichDS, &memo); t != nil {
				tasks = append(tasks, t)
			}
		}
		return tasks
	}
	for _, cd := range sc.cands {
		sub := frames
		if cd.recs != nil {
			sub = make([]aql.Frame, len(cd.recs))
			for i, r := range cd.recs {
				sub[i] = frames[r]
			}
		}
		if t := evaluate(sc.ch, sc.table[cd.pos], sub, sc.enrichDS, &memo); t != nil {
			tasks = append(tasks, t)
		}
	}
	return tasks
}

// enrichDatasets snapshots the datasets ch's enrichments read. Caller
// holds Cluster.mu.
func (c *Cluster) enrichDatasets(ch *channel) map[string]*Dataset {
	if len(ch.enrich) == 0 {
		return nil
	}
	out := make(map[string]*Dataset, len(ch.enrich))
	for _, e := range ch.enrich {
		out[e.query.Dataset] = c.datasets[e.query.Dataset]
	}
	return out
}

// enrich embeds, per matched row, the rows of each of ch's secondary
// queries. Rows are copied before annotation because star projections
// alias the stored records.
func enrich(ch *channel, params map[string]any, rows []map[string]any, enrichDS map[string]*Dataset) ([]map[string]any, error) {
	out := make([]map[string]any, 0, len(rows))
	for _, row := range rows {
		enriched := make(map[string]any, len(row)+len(ch.enrich))
		for k, v := range row {
			enriched[k] = v
		}
		for _, e := range ch.enrich {
			eds := enrichDS[e.query.Dataset]
			if eds == nil {
				continue
			}
			eparams := make(map[string]any, len(params)+len(e.spec.Bind))
			for k, v := range params {
				eparams[k] = v
			}
			for p, path := range e.spec.Bind {
				eparams[p] = lookupPath(row, path)
			}
			erows, err := aql.RunQuery(e.query, recordData(eds.ScanSince(0)), eparams)
			if err != nil {
				return nil, err
			}
			enriched[e.spec.Name] = erows
		}
		out = append(out, enriched)
	}
	return out, nil
}
