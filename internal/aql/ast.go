package aql

import (
	"fmt"
	"strings"
)

// Expr is a node of the expression AST.
type Expr interface {
	// String renders the expression back to (canonical) source form.
	String() string
	exprNode()
}

// Lit is a literal value: nil, bool, float64 or string.
type Lit struct {
	Value any
}

// Param is a $name channel parameter reference.
type Param struct {
	Name string
}

// Path is a (possibly dotted) field reference such as r.location.lat.
type Path struct {
	Parts []string
}

// Unary is a prefix operation: "-" or "not".
type Unary struct {
	Op string
	X  Expr
}

// Binary is an infix operation: arithmetic, comparison, and/or, in, like.
type Binary struct {
	Op   string
	L, R Expr
}

// Call is a builtin function invocation.
type Call struct {
	Func string
	Args []Expr
}

// List is a bracketed literal list, used with the "in" operator.
type List struct {
	Elems []Expr
}

// Star is the bare * argument of count(*).
type Star struct{}

func (Lit) exprNode()    {}
func (Param) exprNode()  {}
func (Path) exprNode()   {}
func (Unary) exprNode()  {}
func (Binary) exprNode() {}
func (Call) exprNode()   {}
func (List) exprNode()   {}
func (Star) exprNode()   {}

func (e Lit) String() string {
	switch v := e.Value.(type) {
	case nil:
		return "null"
	case string:
		return "'" + strings.ReplaceAll(v, "'", "\\'") + "'"
	case bool:
		if v {
			return "true"
		}
		return "false"
	case float64:
		return trimFloat(v)
	default:
		return fmt.Sprintf("%v", v)
	}
}

func (e Param) String() string { return "$" + e.Name }

func (e Path) String() string { return strings.Join(e.Parts, ".") }

func (e Unary) String() string {
	if e.Op == "not" {
		return "not " + e.X.String()
	}
	return e.Op + e.X.String()
}

func (e Binary) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

func (e Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Func + "(" + strings.Join(args, ", ") + ")"
}

func (Star) String() string { return "*" }

func (e List) String() string {
	elems := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		elems[i] = el.String()
	}
	return "[" + strings.Join(elems, ", ") + "]"
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// ProjItem is one select-list item: an expression with an optional alias.
type ProjItem struct {
	Expr  Expr
	Alias string
}

// OrderItem is one "order by" key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Query is a parsed select statement:
//
//	select <projection> from <dataset> [<alias>]
//	[where <predicate>] [order by <keys>] [limit <n>]
//
// Star is true for "select *".
type Query struct {
	Star    bool
	Proj    []ProjItem
	Dataset string
	Alias   string
	Where   Expr // nil means no predicate
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   int // -1 means no limit

	prog *program // compiled form, attached by ParseQuery
}

// String renders the query in canonical form.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("select ")
	if q.Star {
		b.WriteString("*")
	} else {
		items := make([]string, len(q.Proj))
		for i, p := range q.Proj {
			items[i] = p.Expr.String()
			if p.Alias != "" {
				items[i] += " as " + p.Alias
			}
		}
		b.WriteString(strings.Join(items, ", "))
	}
	b.WriteString(" from ")
	b.WriteString(q.Dataset)
	if q.Alias != "" {
		b.WriteString(" " + q.Alias)
	}
	if q.Where != nil {
		b.WriteString(" where " + q.Where.String())
	}
	if len(q.GroupBy) > 0 {
		keys := make([]string, len(q.GroupBy))
		for i, g := range q.GroupBy {
			keys[i] = g.String()
		}
		b.WriteString(" group by " + strings.Join(keys, ", "))
	}
	if len(q.OrderBy) > 0 {
		keys := make([]string, len(q.OrderBy))
		for i, o := range q.OrderBy {
			keys[i] = o.Expr.String()
			if o.Desc {
				keys[i] += " desc"
			}
		}
		b.WriteString(" order by " + strings.Join(keys, ", "))
	}
	if q.Limit >= 0 {
		b.WriteString(fmt.Sprintf(" limit %d", q.Limit))
	}
	return b.String()
}

// Params returns the distinct $parameters referenced anywhere in the query,
// in first-appearance order. The BDMS uses this to validate that a
// subscription binds every parameter of its channel.
func (q *Query) Params() []string {
	return append([]string(nil), q.program().params...)
}
