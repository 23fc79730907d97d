package bdms

import (
	"encoding/json"
	"fmt"
	"time"

	"gobad/internal/aql"
	"gobad/internal/wire"
)

// EnrichSpec declares one enrichment attached to a channel: a secondary
// query evaluated per matched publication whose rows are embedded in the
// notification under Name. This is what makes BAD notifications "enriched"
// — they can combine the triggering publication with related data from
// other datasets (e.g. attach nearby shelters to an emergency report).
type EnrichSpec struct {
	// Name keys the enrichment rows inside the notification record.
	Name string `json:"name"`
	// Query is the AQL text of the secondary query.
	Query string `json:"query"`
	// Bind maps the secondary query's $parameters to dotted paths into
	// the matched publication (e.g. "lat" -> "location.lat"). Parameters
	// not bound here fall back to the channel subscription's parameters.
	Bind map[string]string `json:"bind,omitempty"`
}

// ChannelDef declares a parameterized channel.
type ChannelDef struct {
	// Name identifies the channel.
	Name string `json:"name"`
	// Params names the channel's parameters in positional order.
	Params []string `json:"params"`
	// Body is the channel's AQL query; it may reference any subset of
	// Params as $name.
	Body string `json:"body"`
	// Period is the execution interval for repetitive channels; zero
	// declares a continuous channel.
	Period time.Duration `json:"period"`
	// Enrich lists secondary queries whose results are embedded in each
	// notification.
	Enrich []EnrichSpec `json:"enrich,omitempty"`
}

// channel is a registered channel with its parsed artifacts.
type channel struct {
	def     ChannelDef
	query   *aql.Query
	enrich  []parsedEnrich
	dataset string
	// index is the indexable conjunct of the body's WHERE clause, an
	// equality or a geo circle, used to prune continuous matching (nil
	// when none exists).
	index *indexSpec
}

type parsedEnrich struct {
	spec  EnrichSpec
	query *aql.Query
}

// compileChannel validates and parses a channel definition.
func compileChannel(def ChannelDef) (*channel, error) {
	if def.Name == "" {
		return nil, fmt.Errorf("bdms: channel needs a name")
	}
	q, err := aql.ParseQuery(def.Body)
	if err != nil {
		return nil, fmt.Errorf("bdms: channel %s body: %w", def.Name, err)
	}
	declared := make(map[string]bool, len(def.Params))
	for _, p := range def.Params {
		declared[p] = true
	}
	for _, p := range q.Params() {
		if !declared[p] {
			return nil, fmt.Errorf("bdms: channel %s references undeclared parameter $%s", def.Name, p)
		}
	}
	ch := &channel{def: def, query: q, dataset: q.Dataset}
	// An index only prunes: a group it skips must be one whose evaluation
	// yields nothing, which an aggregate without GROUP BY never is.
	if def.Period <= 0 && !q.YieldsOnEmpty() {
		ch.index = findIndexSpec(q.Where, q.Alias)
	}
	for _, es := range def.Enrich {
		if es.Name == "" {
			return nil, fmt.Errorf("bdms: channel %s: enrichment needs a name", def.Name)
		}
		eq, err := aql.ParseQuery(es.Query)
		if err != nil {
			return nil, fmt.Errorf("bdms: channel %s enrichment %s: %w", def.Name, es.Name, err)
		}
		for _, p := range eq.Params() {
			if _, bound := es.Bind[p]; !bound && !declared[p] {
				return nil, fmt.Errorf("bdms: channel %s enrichment %s references unbound parameter $%s",
					def.Name, es.Name, p)
			}
		}
		ch.enrich = append(ch.enrich, parsedEnrich{spec: es, query: eq})
	}
	return ch, nil
}

// Continuous reports whether the channel matches publications as they are
// ingested (as opposed to periodically).
func (c *channel) Continuous() bool { return c.def.Period <= 0 }

// bindParams zips the channel's declared parameter names with values.
func (c *channel) bindParams(values []any) (map[string]any, error) {
	if len(values) != len(c.def.Params) {
		return nil, fmt.Errorf("bdms: channel %s expects %d parameters, got %d",
			c.def.Name, len(c.def.Params), len(values))
	}
	out := make(map[string]any, len(values))
	for i, name := range c.def.Params {
		out[name] = values[i]
	}
	return out, nil
}

// ResultObject is one result of a backend subscription: the matched
// (possibly enriched) publication rows produced by a single channel
// execution, timestamped so brokers can retrieve results in production
// order.
type ResultObject struct {
	// ID is <log>-r<seq>, unique within the result log equivalent
	// subscriptions share; <log> is the subscription that opened it.
	ID string `json:"id"`
	// SubscriptionID is the backend subscription it was notified or read for.
	SubscriptionID string `json:"subscription_id"`
	// Timestamp is the cluster-time production timestamp; strictly
	// increasing within a subscription.
	Timestamp time.Duration `json:"timestamp"`
	// PrevNS is the Timestamp of the subscription's previous result; 0: the
	// first result, which nothing precedes. Only a PUSH notification carries
	// it: with it a broker proves it holds every result above its marker
	// without asking the cluster. The WAL and range reads leave it 0.
	PrevNS int64 `json:"prev_ns,omitempty"`
	// Rows are the matched (and enriched) records, JSON-encoded: by the
	// evaluation that produced them for the WAL and a PUSH notification,
	// and the same way for a range read. Broker caches, peers and warm-up
	// handoffs carry these bytes unchanged, and only a subscriber decodes
	// them.
	Rows json.RawMessage `json:"rows"`
	// Size is len(Rows): the encoded size in bytes.
	Size int64 `json:"size"`
}

// storedResult is a result as its group's result log keeps it: a
// ResultObject without the encoding or a subscription. Its rows alias
// what the evaluation matched — a star projection shares the stored
// publication records — so a log holds no copy of them; the encoding
// lives as long as the commit needs it (the WAL record, a PUSH
// notification), and a range read makes it again, off the cluster lock.
type storedResult struct {
	id   string
	ts   time.Duration
	rows []map[string]any
	size int64
}

// encodeResults answers subID's range read: each stored result with its
// rows encoded, as the evaluation encoded them when it committed.
func encodeResults(subID string, stored []storedResult) ([]ResultObject, error) {
	if len(stored) == 0 {
		return nil, nil
	}
	out := make([]ResultObject, len(stored))
	for i, r := range stored {
		rows, err := wire.Marshal(r.rows)
		if err != nil {
			return nil, fmt.Errorf("bdms: encode result %s: %w", r.id, err)
		}
		out[i] = ResultObject{ID: r.id, SubscriptionID: subID, Timestamp: r.ts, Rows: rows, Size: r.size}
	}
	return out, nil
}

// storeResult decodes a logged or snapshotted result object back into the
// form a result log keeps.
func storeResult(obj ResultObject) (storedResult, error) {
	var rows []map[string]any
	if err := json.Unmarshal(obj.Rows, &rows); err != nil {
		return storedResult{}, fmt.Errorf("bdms: result %s rows: %w", obj.ID, err)
	}
	return storedResult{id: obj.ID, ts: obj.Timestamp, rows: rows, size: obj.Size}, nil
}

// lookupPathParts resolves a pre-split path inside a record.
func lookupPathParts(rec map[string]any, parts []string) any {
	cur := any(rec)
	for _, part := range parts {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil
		}
		cur, ok = m[part]
		if !ok {
			return nil
		}
	}
	return cur
}

// lookupPath resolves a dotted path inside a record (nil when absent).
func lookupPath(rec map[string]any, path string) any {
	cur := any(rec)
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '.' {
			m, ok := cur.(map[string]any)
			if !ok {
				return nil
			}
			cur, ok = m[path[start:i]]
			if !ok {
				return nil
			}
			start = i + 1
		}
	}
	return cur
}
