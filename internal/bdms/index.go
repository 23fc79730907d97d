package bdms

import (
	"encoding/json"

	"gobad/internal/aql"
	"gobad/internal/wire"
)

// Predicate indexing: continuous channels are matched against every
// parameter-signature group on every ingest, which is O(groups) per
// publication. Most channel bodies, however, contain an equality conjunct
// that binds a record field to a channel parameter — e.g.
//
//	select * from EmergencyReports r where r.etype = $etype and ...
//
// For such channels the cluster maintains an equality index: groups are
// bucketed by their bound parameter value, and an incoming publication
// only visits the positions of the channel's scan table (evalgroup.go)
// whose bucket matches its own field value (plus any groups whose
// parameters didn't yield an indexable key). The full predicate is
// still evaluated per candidate group, so indexing is purely a pruning
// step — it never changes matching results. Since every member of a group
// binds identical parameters, the group is the natural index entry: one
// bucket slot covers all of its subscriptions.

// indexSpec describes a channel's indexable equality conjunct.
type indexSpec struct {
	// fieldPath is the record path (alias stripped), e.g. ["etype"].
	fieldPath []string
	// param is the channel parameter the field is compared to.
	param string
}

// findIndexSpec walks the top-level AND conjuncts of a channel predicate
// looking for `path = $param` (or the reverse). The first match wins.
func findIndexSpec(where aql.Expr, alias string) *indexSpec {
	var out *indexSpec
	var walk func(e aql.Expr)
	walk = func(e aql.Expr) {
		if out != nil {
			return
		}
		b, ok := e.(aql.Binary)
		if !ok {
			return
		}
		switch b.Op {
		case "and":
			walk(b.L)
			walk(b.R)
		case "=":
			path, param, ok := pathParamPair(b.L, b.R)
			if !ok {
				path, param, ok = pathParamPair(b.R, b.L)
			}
			if !ok {
				return
			}
			parts := path.Parts
			if alias != "" && len(parts) > 1 && parts[0] == alias {
				parts = parts[1:]
			}
			out = &indexSpec{fieldPath: parts, param: param.Name}
		}
	}
	if where != nil {
		walk(where)
	}
	return out
}

func pathParamPair(l, r aql.Expr) (aql.Path, aql.Param, bool) {
	p, ok1 := l.(aql.Path)
	v, ok2 := r.(aql.Param)
	if ok1 && ok2 {
		return p, v, true
	}
	return aql.Path{}, aql.Param{}, false
}

// indexKey canonicalizes a JSON-model value as a bucket key; ok is false
// for values that cannot key a bucket (nil or unencodable), which sends
// the group to the unindexed list. Callers pass canonicalized values so
// numeric forms agree between the subscription side and the record side.
func indexKey(v any) (string, bool) {
	if v == nil {
		return "", false
	}
	var buf [64]byte
	b, ok := wire.AppendValue(buf[:0], v)
	if !ok {
		var err error
		if b, err = json.Marshal(v); err != nil {
			return "", false
		}
	}
	return string(b), true
}

// groupIndex buckets a channel's continuous evaluation groups by their
// bound equality value. Groups are added once at creation and removed
// when their last member unsubscribes; both use the group's recorded
// idxKey/idxOK placement, so removal is a single bucket scan.
type groupIndex struct {
	byKey map[string][]*evalGroup
	// unindexed holds groups whose bound value didn't yield a key.
	unindexed []*evalGroup
}

func newGroupIndex() *groupIndex {
	return &groupIndex{byKey: make(map[string][]*evalGroup)}
}

// add registers a group under its recorded bucket.
func (ix *groupIndex) add(g *evalGroup) {
	if g.idxOK {
		ix.byKey[g.idxKey] = append(ix.byKey[g.idxKey], g)
	} else {
		ix.unindexed = append(ix.unindexed, g)
	}
}

// remove unregisters a group from its bucket (swap-remove; buckets hold
// the few groups sharing one equality value).
func (ix *groupIndex) remove(g *evalGroup) {
	list := ix.unindexed
	if g.idxOK {
		list = ix.byKey[g.idxKey]
	}
	for i, el := range list {
		if el != g {
			continue
		}
		list[i] = list[len(list)-1]
		list[len(list)-1] = nil
		list = list[:len(list)-1]
		if g.idxOK {
			if len(list) == 0 {
				delete(ix.byKey, g.idxKey)
			} else {
				ix.byKey[g.idxKey] = list
			}
		} else {
			ix.unindexed = list
		}
		return
	}
}

// candidates returns the table positions a batch must visit, each with the
// records (by batch index) that can match it, in first-visit order. A
// record visits the bucket of its own field value plus the unindexed
// groups; a record that lacks the field visits only those, because an
// equality against a missing/null field is false. The positions are only
// meaningful against the table the caller snapshots under the same lock
// hold.
func (ix *groupIndex) candidates(spec *indexSpec, recs []Record) []candidate {
	var out []candidate
	var at map[int]int // table position -> index in out; batches only
	if len(recs) > 1 {
		at = make(map[int]int)
	}
	for i, rec := range recs {
		var bucket []*evalGroup
		if key, ok := indexKey(canonicalValue(lookupPathParts(rec.Data, spec.fieldPath))); ok {
			bucket = ix.byKey[key]
		}
		for _, list := range [2][]*evalGroup{bucket, ix.unindexed} {
			for _, g := range list {
				if len(recs) == 1 {
					out = append(out, candidate{pos: g.pos})
					continue
				}
				j, seen := at[g.pos]
				if !seen {
					j = len(out)
					at[g.pos] = j
					out = append(out, candidate{pos: g.pos})
				}
				out[j].recs = append(out[j].recs, i)
			}
		}
	}
	return out
}

// size reports the indexed and unindexed subscription counts (summed over
// group members, so it still counts subscriptions, not groups).
func (ix *groupIndex) size() (indexed, unindexed int) {
	for _, list := range ix.byKey {
		for _, g := range list {
			indexed += len(g.members)
		}
	}
	for _, g := range ix.unindexed {
		unindexed += len(g.members)
	}
	return indexed, unindexed
}
