package aql

import (
	"fmt"
	"sort"
)

// EvalError reports an evaluation failure (unknown function, unbound
// parameter, wrong arity, ...). Missing record fields are NOT errors; they
// evaluate to null, matching open-schema semantics.
type EvalError struct {
	Msg string
}

func (e *EvalError) Error() string { return "aql: " + e.Msg }

func evalErrf(format string, args ...any) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

// program is a query lowered by compile.go. WHERE, projections, group-by
// keys and aggregate arguments read the input records and share recPaths;
// order-by keys read the output rows and have their own rowPaths.
type program struct {
	params    []string
	recPaths  [][]string
	rowPaths  [][]string
	where     predFn // nil: every record qualifies
	proj      []projItem
	groupBy   []evalFn
	orderBy   []evalFn
	aggregate bool // aggregate mode: some projection aggregates, or group by
}

// projItem is one compiled select-list item.
type projItem struct {
	name    string
	fn      evalFn // the item itself, or the argument of its aggregate; nil for count(*)
	agg     string // aggregate function, "" for a scalar item
	grouped bool   // scalar item that repeats a group-by expression
	src     string // canonical source, for the not-grouped error
}

// compileQuery lowers q, clause by clause in source order so parameter
// slots come out in first-appearance order (Query.Params). It cannot
// fail: what can only be rejected while evaluating compiles to a node
// that raises when it is evaluated.
func compileQuery(q *Query) *program {
	rec, row := &compiler{alias: q.Alias}, &compiler{alias: q.Alias}
	p := &program{aggregate: len(q.GroupBy) > 0}
	for i, it := range q.Proj {
		item := projItem{name: it.Alias, src: it.Expr.String(), grouped: isGroupExpr(it.Expr, q.GroupBy)}
		if item.name == "" {
			item.name = projName(it.Expr, i)
		}
		arg := it.Expr
		if call, ok := isAggregateCall(it.Expr); ok {
			item.agg, arg, p.aggregate = call.Func, call.Args[0], true
		}
		if _, star := arg.(Star); !star || item.agg == "" {
			item.fn = rec.expr(arg)
		}
		p.proj = append(p.proj, item)
	}
	if q.Where != nil {
		p.where = rec.pred(q.Where)
	}
	for _, g := range q.GroupBy {
		p.groupBy = append(p.groupBy, rec.expr(g))
	}
	row.params = rec.params
	for _, o := range q.OrderBy {
		p.orderBy = append(p.orderBy, row.expr(o.Expr))
	}
	p.params, p.recPaths, p.rowPaths = row.params, rec.paths, row.paths
	return p
}

// program returns q's compiled form. ParseQuery attaches it; a Query
// assembled by hand is compiled on each use.
func (q *Query) program() *program {
	if q.prog != nil {
		return q.prog
	}
	return compileQuery(q)
}

// YieldsOnEmpty reports whether q yields a row over no records at all: an
// aggregate without GROUP BY folds its one implicit group even when
// nothing matched, so skipping an evaluation changes its results.
func (q *Query) YieldsOnEmpty() bool {
	return q.program().aggregate && len(q.GroupBy) == 0
}

// Bind normalises one parameter binding into the slot vector q's compiled
// expressions read. A parameter missing from params raises "unbound
// parameter" only if an evaluation reaches it.
func (q *Query) Bind(params map[string]any) Consts {
	return bind(q.program().params, params)
}

// Frames resolves, once per record, every record path q reads. The frames
// can be evaluated against any number of bindings, from any number of
// goroutines.
func (q *Query) Frames(records []map[string]any) []Frame {
	paths := q.program().recPaths
	frames := make([]Frame, len(records))
	slots := make([]value, len(records)*len(paths))
	for i, rec := range records {
		frames[i].slots = slots[i*len(paths) : (i+1)*len(paths)]
		frames[i].load(paths, rec)
	}
	return frames
}

// RunQuery executes q over records, returning projected rows that satisfy
// the predicate, ordered and limited per the query. The input records are
// not mutated; "select *" returns the records themselves (callers must not
// modify them).
func RunQuery(q *Query, records []map[string]any, params map[string]any) ([]map[string]any, error) {
	return q.Run(q.Frames(records), q.Bind(params))
}

// Run is RunQuery over prepared frames and a prepared binding. A
// non-aggregate query allocates nothing until a record satisfies the
// predicate; an aggregate over an empty match set still yields one row.
func (q *Query) Run(frames []Frame, c Consts) ([]map[string]any, error) {
	p := q.program()
	var out []map[string]any
	var matched []*Frame // aggregate mode: filter first, then group and fold
	for i := range frames {
		f := &frames[i]
		if p.where != nil {
			ok, err := p.where(f, c)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		switch {
		case p.aggregate:
			matched = append(matched, f)
		case q.Star:
			out = append(out, f.rec)
		default:
			row := make(map[string]any, len(p.proj))
			for _, it := range p.proj {
				v, err := it.fn(f, c)
				if err != nil {
					return nil, err
				}
				row[it.name] = v.box()
			}
			out = append(out, row)
		}
	}
	if p.aggregate {
		var err error
		if out, err = p.foldGroups(matched, c); err != nil {
			return nil, err
		}
	}
	if len(q.OrderBy) > 0 && len(out) > 0 {
		if err := p.sortRows(out, q.OrderBy, c); err != nil {
			return nil, err
		}
	}
	if q.Limit >= 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// sortRows orders output rows by the order-by keys, which are evaluated
// against the rows themselves.
func (p *program) sortRows(rows []map[string]any, keys []OrderItem, c Consts) error {
	fi := Frame{slots: make([]value, len(p.rowPaths))}
	fj := Frame{slots: make([]value, len(p.rowPaths))}
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		fi.load(p.rowPaths, rows[i])
		fj.load(p.rowPaths, rows[j])
		for k, key := range p.orderBy {
			vi, err := key(&fi, c)
			if err != nil {
				sortErr = err
				return false
			}
			vj, err := key(&fj, c)
			if err != nil {
				sortErr = err
				return false
			}
			cmp, ok := compareValues(&vi, &vj)
			if !ok || cmp == 0 {
				continue
			}
			if keys[k].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return sortErr
}

// projName derives an output column name for an unaliased projection item.
func projName(e Expr, i int) string {
	if p, ok := e.(Path); ok {
		return p.Parts[len(p.Parts)-1]
	}
	return fmt.Sprintf("col%d", i)
}
