package bdms

import (
	"encoding/json"
	"math"
	"slices"

	"gobad/internal/aql"
	"gobad/internal/wire"
)

// Predicate indexing: continuous channels are matched against every
// parameter-signature group on every ingest, which is O(groups) per
// publication. A channel body whose WHERE clause has an indexable
// top-level AND conjunct instead keeps an index over its groups, of one
// of two kinds, and an incoming publication only visits the positions of
// the channel's scan table (evalgroup.go) the index selects for it, plus
// the groups whose parameters yielded no index entry. The full predicate
// is still evaluated per candidate group, so indexing is purely a pruning
// step: it never changes which records match. Since every member of a
// group binds identical parameters, the group is the natural index entry:
// one slot covers all of its subscriptions.
//
// Equality, `path = $param` (or the reverse), for example
//
//	select * from EmergencyReports r where r.etype = $etype and ...
//
// buckets groups by their bound value; a record visits the bucket of its
// own field value, and a record lacking the field visits none, because
// an equality against a missing or null field is false. A body with an
// equality conjunct is always indexed this way.
//
// Geo, for a body without one: the circle `geo_distance(path, path, $lat,
// $lon) <= R`, R a parameter or a number literal, as aql.GeoConjunct
// recognises it (the compiler's geo peephole reads the same shape). A
// group's circle has a latitude/longitude box (aql.GeoBox: the centre ± δ
// in latitude, ± asin(sin δ / cos φ0) in longitude), and the group sits
// in the cells of a grid of power-of-two-degree cells that its box
// overlaps, at the finest level where the box spans at most 2×2 cells; a
// record probes its own cell at each level in use and visits the groups
// there whose box holds it. Groups whose circle has no box go unindexed:
// a centre or radius that is not a finite number, a negative radius, or a
// box reaching a pole or crossing ±180°. A record whose point is not a
// pair of finite numbers in [-90, 90] × [-180, 180] visits every group,
// which raises geo_distance's "needs numbers" error (or matches a NaN
// distance) exactly where a full scan would.
//
// Either way a pruned group is one whose predicate is false for the
// record without evaluating it; what it no longer does is raise an error
// that another conjunct, evaluated before the indexed one, would have
// raised for that record.

// indexSpec describes a channel's indexable conjunct: the equality
// `fieldPath = $param`, or, when circle is set, a geo circle.
type indexSpec struct {
	// fieldPath is the record path (alias stripped), e.g. ["etype"].
	fieldPath []string
	// param is the channel parameter the field is compared to.
	param string
	// circle is the geo conjunct of a body without an equality one.
	circle *circleSpec
}

// circleSpec is a body's geo_distance(lat, lon, $clat, $clon) <= radius.
type circleSpec struct {
	lat, lon   []string // record paths, alias stripped as the compiler does
	clat, clon string   // the centre's parameters
	radius     aql.Expr // an aql.Param or a number aql.Lit
}

// findIndexSpec walks the top-level AND conjuncts of a channel predicate
// looking for `path = $param` (or the reverse); the first match wins.
// Failing that, it takes the body's geo circle, if it has one.
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
	if where == nil {
		return nil
	}
	if walk(where); out != nil {
		return out
	}
	point, centre, radius, ok := aql.GeoConjunct(where)
	if !ok {
		return nil
	}
	strip := func(p aql.Path) []string {
		if alias != "" && p.Parts[0] == alias {
			return p.Parts[1:]
		}
		return p.Parts
	}
	return &indexSpec{circle: &circleSpec{
		lat: strip(point[0]), lon: strip(point[1]),
		clat: centre[0].Name, clon: centre[1].Name, radius: radius,
	}}
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

// geoBox is a geo-indexed group's placement: its circle's box, in
// degrees, and the grid level whose cells hold it (cell side 2^level
// degrees).
type geoBox struct {
	south, north, west, east float64
	level                    int
}

// box places a group bound to params; ok is false when its circle has no
// box.
func (cs *circleSpec) box(params map[string]any) (geoBox, bool) {
	var r any
	switch v := cs.radius.(type) {
	case aql.Param:
		r = params[v.Name]
	case aql.Lit:
		r = v.Value
	}
	clat, ok1 := params[cs.clat].(float64)
	clon, ok2 := params[cs.clon].(float64)
	radius, ok3 := r.(float64)
	if !ok1 || !ok2 || !ok3 {
		return geoBox{}, false
	}
	b := geoBox{}
	var ok bool
	if b.south, b.north, b.west, b.east, ok = aql.GeoBox(clat, clon, radius); !ok {
		return geoBox{}, false
	}
	// A span shorter than 2^e touches at most two cells of that side; one
	// level finer it may still, depending on where the box falls.
	_, e := math.Frexp(max(b.north-b.south, b.east-b.west))
	b.level = e
	if b.spans(e-1) <= 2 {
		b.level = e - 1
	}
	return b, true
}

// spans is how many cells of level the box covers along its wider axis.
func (b geoBox) spans(level int) int64 {
	return max(cellOf(b.north, level)-cellOf(b.south, level), cellOf(b.east, level)-cellOf(b.west, level)) + 1
}

func (b geoBox) holds(lat, lon float64) bool {
	return lat >= b.south && lat <= b.north && lon >= b.west && lon <= b.east
}

// cellOf is the grid index along one axis of a coordinate at level.
func cellOf(x float64, level int) int64 { return int64(math.Floor(math.Ldexp(x, -level))) }

// gridCell is one cell of a geo index's grid.
type gridCell struct {
	level    int
	lat, lon int64
}

// cells calls fn with each cell the box covers at its level.
func (b geoBox) cells(fn func(gridCell)) {
	for y := cellOf(b.south, b.level); y <= cellOf(b.north, b.level); y++ {
		for x := cellOf(b.west, b.level); x <= cellOf(b.east, b.level); x++ {
			fn(gridCell{level: b.level, lat: y, lon: x})
		}
	}
}

// point reads a record's coordinates; ok is false unless both are finite
// numbers in [-90, 90] × [-180, 180].
func (cs *circleSpec) point(rec map[string]any) (lat, lon float64, ok bool) {
	lat, ok1 := canonicalValue(lookupPathParts(rec, cs.lat)).(float64)
	lon, ok2 := canonicalValue(lookupPathParts(rec, cs.lon)).(float64)
	return lat, lon, ok1 && ok2 && math.Abs(lat) <= 90 && math.Abs(lon) <= 180
}

// groupIndex indexes a channel's continuous evaluation groups by spec.
// Groups are added once at creation and removed when their last member
// unsubscribes; both use the group's recorded placement (idxKey, or box,
// when idxOK), so removal touches only the buckets or cells it recorded.
type groupIndex struct {
	spec *indexSpec
	// byKey buckets an equality index's groups by bound value.
	byKey map[string][]*evalGroup
	// cells is a geo index's grid, levels the levels in use with the
	// number of groups placed at each.
	cells  map[gridCell][]*evalGroup
	levels []gridLevel
	// unindexed holds groups whose parameters placed them nowhere.
	unindexed []*evalGroup
}

type gridLevel struct{ level, groups int }

func newGroupIndex(spec *indexSpec) *groupIndex {
	ix := &groupIndex{spec: spec}
	if spec.circle == nil {
		ix.byKey = make(map[string][]*evalGroup)
	} else {
		ix.cells = make(map[gridCell][]*evalGroup)
	}
	return ix
}

// add places a group by its bound parameters and registers it there.
func (ix *groupIndex) add(g *evalGroup) {
	if ix.spec.circle == nil {
		g.idxKey, g.idxOK = indexKey(g.params[ix.spec.param])
	} else {
		g.box, g.idxOK = ix.spec.circle.box(g.params)
	}
	switch {
	case !g.idxOK:
		ix.unindexed = append(ix.unindexed, g)
	case ix.spec.circle == nil:
		ix.byKey[g.idxKey] = append(ix.byKey[g.idxKey], g)
	default:
		g.box.cells(func(cell gridCell) { ix.cells[cell] = append(ix.cells[cell], g) })
		i := slices.IndexFunc(ix.levels, func(l gridLevel) bool { return l.level == g.box.level })
		if i < 0 {
			i = len(ix.levels)
			ix.levels = append(ix.levels, gridLevel{level: g.box.level})
		}
		ix.levels[i].groups++
	}
}

// remove unregisters a group from where add placed it.
func (ix *groupIndex) remove(g *evalGroup) {
	switch {
	case !g.idxOK:
		ix.unindexed = without(ix.unindexed, g)
	case ix.spec.circle == nil:
		if list := without(ix.byKey[g.idxKey], g); len(list) > 0 {
			ix.byKey[g.idxKey] = list
		} else {
			delete(ix.byKey, g.idxKey)
		}
	default:
		g.box.cells(func(cell gridCell) {
			if list := without(ix.cells[cell], g); len(list) > 0 {
				ix.cells[cell] = list
			} else {
				delete(ix.cells, cell)
			}
		})
		i := slices.IndexFunc(ix.levels, func(l gridLevel) bool { return l.level == g.box.level })
		if ix.levels[i].groups--; ix.levels[i].groups == 0 {
			ix.levels = slices.Delete(ix.levels, i, i+1)
		}
	}
}

// without swap-removes g from list (buckets and cells hold a few groups).
func without(list []*evalGroup, g *evalGroup) []*evalGroup {
	for i, el := range list {
		if el == g {
			list[i] = list[len(list)-1]
			list[len(list)-1] = nil
			return list[:len(list)-1]
		}
	}
	return list
}

// candidates returns the table positions a batch must visit, each with the
// records (by batch index) that can match it; all reports instead that
// every position must see the whole batch, which a geo index asks for
// when a record has no point. An equality index lists positions in
// first-visit order, a geo index in table order, the order a full scan
// visits them, so that its results are logged and notified as a scan
// would. The positions are only meaningful against the table the caller
// snapshots under the same lock hold.
func (ix *groupIndex) candidates(recs []Record) (out []candidate, all bool) {
	var at map[int]int // table position -> index in out; batches only
	if len(recs) > 1 {
		at = make(map[int]int)
	} else if ix.spec.circle != nil { // one record: size out once
		n := len(ix.unindexed)
		if !ix.probe(recs[0].Data, func(*evalGroup) { n++ }) {
			return nil, true
		}
		out = make([]candidate, 0, n)
	}
	visit := func(i int, g *evalGroup) {
		if len(recs) == 1 {
			out = append(out, candidate{pos: g.pos})
			return
		}
		j, seen := at[g.pos]
		if !seen {
			j = len(out)
			at[g.pos] = j
			out = append(out, candidate{pos: g.pos})
		}
		out[j].recs = append(out[j].recs, i)
	}
	for i, rec := range recs {
		if ix.spec.circle != nil {
			if !ix.probe(rec.Data, func(g *evalGroup) { visit(i, g) }) {
				return nil, true
			}
		} else if key, ok := indexKey(canonicalValue(lookupPathParts(rec.Data, ix.spec.fieldPath))); ok {
			for _, g := range ix.byKey[key] {
				visit(i, g)
			}
		}
		for _, g := range ix.unindexed {
			visit(i, g)
		}
	}
	if ix.spec.circle != nil {
		slices.SortFunc(out, func(a, b candidate) int { return a.pos - b.pos })
	}
	return out, false
}

// probe calls fn with each group of a geo index whose box holds rec's
// point, found in the point's cell at every level in use; false when rec
// has no point.
func (ix *groupIndex) probe(rec map[string]any, fn func(*evalGroup)) bool {
	lat, lon, ok := ix.spec.circle.point(rec)
	if !ok {
		return false
	}
	for _, l := range ix.levels {
		for _, g := range ix.cells[gridCell{level: l.level, lat: cellOf(lat, l.level), lon: cellOf(lon, l.level)}] {
			if g.box.holds(lat, lon) {
				fn(g)
			}
		}
	}
	return true
}

// size reports the indexed and unindexed subscription counts (summed over
// group members, so it still counts subscriptions, not groups).
func (ix *groupIndex) size() (indexed, unindexed int) {
	for _, list := range ix.byKey {
		for _, g := range list {
			indexed += len(g.members)
		}
	}
	seen := make(map[*evalGroup]bool) // a geo group sits in up to four cells
	for _, list := range ix.cells {
		for _, g := range list {
			if !seen[g] {
				seen[g] = true
				indexed += len(g.members)
			}
		}
	}
	for _, g := range ix.unindexed {
		unindexed += len(g.members)
	}
	return indexed, unindexed
}
