package aql

import (
	"fmt"
)

// parser consumes the token stream produced by Lex.
type parser struct {
	toks []Token
	pos  int
}

// ParseQuery parses a full select statement.
func ParseQuery(src string) (*Query, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	q.prog = compileQuery(q)
	return q, nil
}

// ParseExpr parses a standalone expression (e.g. a subscription predicate).
func ParseExpr(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	return e, nil
}

func (p *parser) cur() Token { return p.toks[p.pos] }

func (p *parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().Kind == TokKeyword && p.cur().Text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %q, got %q", kw, p.cur().Text)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.cur().Kind == TokSymbol && p.cur().Text == sym {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q, got %q", sym, p.cur().Text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().Kind != TokIdent {
		return "", p.errf("expected identifier, got %s %q", p.cur().Kind, p.cur().Text)
	}
	return p.advance().Text, nil
}

// query := 'select' projection 'from' ident [ident] ['where' expr]
//
//	['order' 'by' orderKeys] ['limit' number]
func (p *parser) query() (*Query, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	q := &Query{Limit: -1}
	if p.acceptSymbol("*") {
		q.Star = true
	} else {
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := ProjItem{Expr: e}
			if p.acceptKeyword("as") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			}
			q.Proj = append(q.Proj, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	ds, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	q.Dataset = ds
	if p.cur().Kind == TokIdent {
		q.Alias = p.advance().Text
	}
	if p.acceptKeyword("where") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("desc") {
				item.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			q.OrderBy = append(q.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("limit") {
		if p.cur().Kind != TokNumber {
			return nil, p.errf("expected number after limit")
		}
		n := p.advance().Num
		if n < 0 || n != float64(int(n)) {
			return nil, p.errf("limit must be a non-negative integer")
		}
		q.Limit = int(n)
	}
	return q, nil
}

// expr := orExpr
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKeyword("not") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "not", X: x}, nil
	}
	return p.cmpExpr()
}

// cmpExpr := addExpr [cmpOp addExpr]
func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokSymbol {
		switch op := p.cur().Text; op {
		case "=", "!=", "<", "<=", ">", ">=":
			p.advance()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return Binary{Op: op, L: l, R: r}, nil
		}
	}
	if p.cur().Kind == TokKeyword {
		switch p.cur().Text {
		case "in", "like":
			op := p.advance().Text
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokSymbol && (p.cur().Text == "+" || p.cur().Text == "-") {
		op := p.advance().Text
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokSymbol &&
		(p.cur().Text == "*" || p.cur().Text == "/" || p.cur().Text == "%") {
		op := p.advance().Text
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unary() (Expr, error) {
	if p.cur().Kind == TokSymbol && p.cur().Text == "-" {
		p.advance()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "-", X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.advance()
		return Lit{Value: t.Num}, nil
	case TokString:
		p.advance()
		return Lit{Value: t.Text}, nil
	case TokParam:
		p.advance()
		return Param{Name: t.Text}, nil
	case TokKeyword:
		switch t.Text {
		case "true":
			p.advance()
			return Lit{Value: true}, nil
		case "false":
			p.advance()
			return Lit{Value: false}, nil
		case "null":
			p.advance()
			return Lit{Value: nil}, nil
		}
		return nil, p.errf("unexpected keyword %q", t.Text)
	case TokIdent:
		p.advance()
		// function call?
		if p.acceptSymbol("(") {
			var args []Expr
			// count(*) and friends: a bare star argument.
			if p.cur().Kind == TokSymbol && p.cur().Text == "*" {
				p.advance()
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return Call{Func: t.Text, Args: []Expr{Star{}}}, nil
			}
			if !p.acceptSymbol(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.acceptSymbol(")") {
						break
					}
					if err := p.expectSymbol(","); err != nil {
						return nil, err
					}
				}
			}
			return Call{Func: t.Text, Args: args}, nil
		}
		// dotted path
		parts := []string{t.Text}
		for p.acceptSymbol(".") {
			id, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			parts = append(parts, id)
		}
		return Path{Parts: parts}, nil
	case TokSymbol:
		switch t.Text {
		case "(":
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "[":
			p.advance()
			var elems []Expr
			if !p.acceptSymbol("]") {
				for {
					e, err := p.expr()
					if err != nil {
						return nil, err
					}
					elems = append(elems, e)
					if p.acceptSymbol("]") {
						break
					}
					if err := p.expectSymbol(","); err != nil {
						return nil, err
					}
				}
			}
			return List{Elems: elems}, nil
		}
	}
	return nil, p.errf("unexpected token %q", t.Text)
}
