package aql

import (
	"encoding/json"
	"fmt"
	"math"
)

// Aggregation support: a query whose projection contains aggregate calls
// (count/sum/avg/min/max over one argument, or count(*)) is evaluated in
// aggregate mode by RunQuery. With a "group by" clause, one output row is
// produced per distinct group key; without one, a single row summarizes
// every matching record. This is what digest-style channels use, e.g.
//
//	select r.etype as etype, count(*) as reports, max(r.severity) as worst
//	from EmergencyReports r where r.severity >= $min group by r.etype

// aggregateFuncs names the functions treated as aggregates when they
// appear in a projection with a single argument (count(*) included).
var aggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// isAggregateCall reports whether e is an aggregate invocation in
// projection position: count(*), count(x), sum(x), avg(x), or the
// single-argument forms of min/max (their multi-argument forms remain
// scalar builtins).
func isAggregateCall(e Expr) (Call, bool) {
	c, ok := e.(Call)
	if !ok || !aggregateFuncs[c.Func] {
		return Call{}, false
	}
	if len(c.Args) != 1 {
		return Call{}, false
	}
	if _, star := c.Args[0].(Star); star && c.Func != "count" {
		return Call{}, false
	}
	return c, true
}

// groupKey renders the evaluated group-by values as a canonical string.
func groupKey(vals []any) string {
	b, err := json.Marshal(vals)
	if err != nil {
		return fmt.Sprintf("%v", vals)
	}
	return string(b)
}

// foldGroups evaluates the query in aggregate mode over the records that
// passed WHERE: one output row per distinct group key, in first-appearance
// order, or a single row when there is no group by.
func (p *program) foldGroups(matched []*Frame, c Consts) ([]map[string]any, error) {
	type group struct{ rows []*Frame }
	groups := make(map[string]*group)
	var order []*group

	if len(p.groupBy) == 0 {
		// Single implicit group (even when no records matched: SQL-style
		// aggregates over an empty set still yield one row).
		order = append(order, &group{rows: matched})
	} else {
		for _, f := range matched {
			keyVals := make([]any, len(p.groupBy))
			for i, g := range p.groupBy {
				v, err := g(f, c)
				if err != nil {
					return nil, err
				}
				keyVals[i] = v.box()
			}
			k := groupKey(keyVals)
			grp, ok := groups[k]
			if !ok {
				grp = &group{}
				groups[k] = grp
				order = append(order, grp)
			}
			grp.rows = append(grp.rows, f)
		}
	}

	var out []map[string]any
	for _, grp := range order {
		row := make(map[string]any, len(p.proj))
		for _, it := range p.proj {
			if it.agg != "" {
				v, err := it.aggregate(grp.rows, c)
				if err != nil {
					return nil, err
				}
				row[it.name] = v
				continue
			}
			// Non-aggregated projection: must be constant within the
			// group, i.e. a group-by expression (checked by syntactic
			// equality on canonical form).
			if !it.grouped {
				return nil, evalErrf("projection %q is neither aggregated nor in group by", it.src)
			}
			row[it.name] = nil
			if len(grp.rows) > 0 {
				v, err := it.fn(grp.rows[0], c)
				if err != nil {
					return nil, err
				}
				row[it.name] = v.box()
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// isGroupExpr reports whether e matches one of the group-by expressions
// (by canonical rendering).
func isGroupExpr(e Expr, groupBy []Expr) bool {
	s := e.String()
	for _, g := range groupBy {
		if g.String() == s {
			return true
		}
	}
	return false
}

// aggregate computes one aggregate over a group's rows.
func (it *projItem) aggregate(rows []*Frame, c Consts) (any, error) {
	if it.fn == nil { // count(*)
		return float64(len(rows)), nil
	}
	var nums []float64
	nonNull := 0
	for _, f := range rows {
		v, err := it.fn(f, c)
		if err != nil {
			return nil, err
		}
		if v.kind == kindNull {
			continue // SQL semantics: aggregates skip nulls
		}
		nonNull++
		if v.kind == kindNum {
			nums = append(nums, v.num)
		} else if it.agg != "count" {
			return nil, evalErrf("%s: non-numeric value %s in aggregate", it.agg, v.typeName())
		}
	}
	switch it.agg {
	case "count":
		return float64(nonNull), nil
	case "sum":
		var s float64
		for _, n := range nums {
			s += n
		}
		return s, nil
	case "avg":
		if len(nums) == 0 {
			return nil, nil
		}
		var s float64
		for _, n := range nums {
			s += n
		}
		return s / float64(len(nums)), nil
	case "min":
		if len(nums) == 0 {
			return nil, nil
		}
		out := math.Inf(1)
		for _, n := range nums {
			if n < out {
				out = n
			}
		}
		return out, nil
	case "max":
		if len(nums) == 0 {
			return nil, nil
		}
		out := math.Inf(-1)
		for _, n := range nums {
			if n > out {
				out = n
			}
		}
		return out, nil
	default:
		return nil, evalErrf("unknown aggregate %q", it.agg)
	}
}
