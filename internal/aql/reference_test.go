package aql

import (
	"math"
	"strings"
)

// The reference evaluator: the tree-walking interpreter the compiled
// engine (compile.go) replaced, kept verbatim as a test-only oracle.
// FuzzCompiledEval and the table tests require the compiled program to
// agree with it on value, on error-or-not and on the error text. It
// shares nothing with the production evaluator except the AST, EvalError
// and the haversineKm kernel.

// Env supplies the dynamic context for expression evaluation: the current
// record (bound to the query's dataset alias, if any) and the parameter
// bindings. Tests drive both evaluators through it.
type Env struct {
	// Record is the current JSON-model record under evaluation.
	Record map[string]any
	// Alias is the dataset alias the query declared (e.g. "r"); a path
	// whose first segment equals Alias resolves against Record. A path
	// that does not start with the alias resolves against Record
	// directly, so both "r.etype" and "etype" work.
	Alias string
	// Params maps parameter names to their bound values.
	Params map[string]any
}

// compiledExpr lowers a standalone expression and prepares env for it.
func compiledExpr(e Expr, env *Env) (*compiler, *Frame, Consts) {
	cp := &compiler{alias: env.Alias}
	cp.expr(e) // assigns the slots; lowering again below reuses them
	f := &Frame{slots: make([]value, len(cp.paths))}
	f.load(cp.paths, env.Record)
	return cp, f, bind(cp.params, env.Params)
}

// Eval evaluates an expression to a JSON-model value with the compiled
// engine.
func Eval(e Expr, env *Env) (any, error) {
	cp, f, c := compiledExpr(e, env)
	v, err := cp.expr(e)(f, c)
	if err != nil {
		return nil, err
	}
	return v.box(), nil
}

// EvalPredicate evaluates e with the compiled engine and coerces the
// result to a boolean: false for null, the value itself for bool, and an
// error for anything else.
func EvalPredicate(e Expr, env *Env) (bool, error) {
	cp, f, c := compiledExpr(e, env)
	return cp.pred(e)(f, c)
}

// refEval evaluates an expression to a JSON-model value.
func refEval(e Expr, env *Env) (any, error) {
	switch v := e.(type) {
	case Lit:
		return v.Value, nil
	case Param:
		val, ok := env.Params[v.Name]
		if !ok {
			return nil, evalErrf("unbound parameter $%s", v.Name)
		}
		return refNormalize(val), nil
	case Path:
		return refResolvePath(v, env), nil
	case Unary:
		return evalUnary(v, env)
	case Binary:
		return evalBinary(v, env)
	case Call:
		return evalCall(v, env)
	case List:
		out := make([]any, 0, len(v.Elems))
		for _, el := range v.Elems {
			x, err := refEval(el, env)
			if err != nil {
				return nil, err
			}
			out = append(out, x)
		}
		return out, nil
	case Star:
		return nil, evalErrf("'*' is only valid inside count(*)")
	default:
		return nil, evalErrf("unknown expression node %T", e)
	}
}

// refEvalPredicate evaluates e and coerces the result to a boolean: false for
// null, the value itself for bool, and an error for anything else.
func refEvalPredicate(e Expr, env *Env) (bool, error) {
	v, err := refEval(e, env)
	if err != nil {
		return false, err
	}
	switch b := v.(type) {
	case nil:
		return false, nil
	case bool:
		return b, nil
	default:
		return false, evalErrf("predicate evaluated to non-boolean %T", v)
	}
}

// refNormalize converts Go numeric types to float64 so parameter bindings
// decoded from JSON or passed as Go ints behave identically.
func refNormalize(v any) any {
	switch n := v.(type) {
	case int:
		return float64(n)
	case int32:
		return float64(n)
	case int64:
		return float64(n)
	case float32:
		return float64(n)
	default:
		return v
	}
}

func refResolvePath(p Path, env *Env) any {
	parts := p.Parts
	if env.Alias != "" && parts[0] == env.Alias {
		if len(parts) == 1 {
			return env.Record
		}
		parts = parts[1:]
	}
	var cur any = env.Record
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
	return refNormalize(cur)
}

func evalUnary(u Unary, env *Env) (any, error) {
	x, err := refEval(u.X, env)
	if err != nil {
		return nil, err
	}
	switch u.Op {
	case "-":
		n, ok := x.(float64)
		if !ok {
			return nil, evalErrf("unary minus needs a number, got %T", x)
		}
		return -n, nil
	case "not":
		if x == nil {
			return true, nil
		}
		b, ok := x.(bool)
		if !ok {
			return nil, evalErrf("not needs a boolean, got %T", x)
		}
		return !b, nil
	default:
		return nil, evalErrf("unknown unary operator %q", u.Op)
	}
}

func evalBinary(b Binary, env *Env) (any, error) {
	// and/or short-circuit.
	switch b.Op {
	case "and":
		l, err := refEvalPredicate(b.L, env)
		if err != nil {
			return nil, err
		}
		if !l {
			return false, nil
		}
		return refEvalPredicate(b.R, env)
	case "or":
		l, err := refEvalPredicate(b.L, env)
		if err != nil {
			return nil, err
		}
		if l {
			return true, nil
		}
		return refEvalPredicate(b.R, env)
	}

	l, err := refEval(b.L, env)
	if err != nil {
		return nil, err
	}
	r, err := refEval(b.R, env)
	if err != nil {
		return nil, err
	}

	switch b.Op {
	case "=":
		return refValueEqual(l, r), nil
	case "!=":
		return !refValueEqual(l, r), nil
	case "<", "<=", ">", ">=":
		cmp, ok := refCompareValues(l, r)
		if !ok {
			// Mismatched or non-orderable types never satisfy an
			// ordering predicate (open-schema tolerance).
			return false, nil
		}
		switch b.Op {
		case "<":
			return cmp < 0, nil
		case "<=":
			return cmp <= 0, nil
		case ">":
			return cmp > 0, nil
		default:
			return cmp >= 0, nil
		}
	case "in":
		list, ok := r.([]any)
		if !ok {
			return nil, evalErrf("right side of 'in' must be a list, got %T", r)
		}
		for _, el := range list {
			if refValueEqual(l, refNormalize(el)) {
				return true, nil
			}
		}
		return false, nil
	case "like":
		ls, lok := l.(string)
		rs, rok := r.(string)
		if !lok || !rok {
			return false, nil
		}
		return refLikeMatch(ls, rs), nil
	case "+", "-", "*", "/", "%":
		ln, lok := l.(float64)
		rn, rok := r.(float64)
		if !lok || !rok {
			if b.Op == "+" {
				// string concatenation
				ls, lsok := l.(string)
				rs, rsok := r.(string)
				if lsok && rsok {
					return ls + rs, nil
				}
			}
			return nil, evalErrf("arithmetic %q needs numbers, got %T and %T", b.Op, l, r)
		}
		switch b.Op {
		case "+":
			return ln + rn, nil
		case "-":
			return ln - rn, nil
		case "*":
			return ln * rn, nil
		case "/":
			if rn == 0 {
				return nil, evalErrf("division by zero")
			}
			return ln / rn, nil
		default:
			if rn == 0 {
				return nil, evalErrf("modulo by zero")
			}
			return math.Mod(ln, rn), nil
		}
	default:
		return nil, evalErrf("unknown binary operator %q", b.Op)
	}
}

// refValueEqual implements JSON-model equality (deep for lists and objects).
func refValueEqual(a, b any) bool {
	a, b = refNormalize(a), refNormalize(b)
	switch av := a.(type) {
	case nil:
		return b == nil
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case float64:
		bv, ok := b.(float64)
		return ok && av == bv
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !refValueEqual(av[i], bv[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for k, v := range av {
			bvv, ok := bv[k]
			if !ok || !refValueEqual(v, bvv) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// refCompareValues orders two values of the same scalar type; ok is false for
// mismatched or non-orderable types.
func refCompareValues(a, b any) (int, bool) {
	a, b = refNormalize(a), refNormalize(b)
	switch av := a.(type) {
	case float64:
		bv, ok := b.(float64)
		if !ok {
			return 0, false
		}
		switch {
		case av < bv:
			return -1, true
		case av > bv:
			return 1, true
		default:
			return 0, true
		}
	case string:
		bv, ok := b.(string)
		if !ok {
			return 0, false
		}
		return strings.Compare(av, bv), true
	default:
		return 0, false
	}
}

// refLikeMatch implements SQL LIKE with % (any run) and _ (any single char).
func refLikeMatch(s, pattern string) bool {
	// Dynamic programming over bytes is sufficient for our ASCII usage.
	m, n := len(s), len(pattern)
	dp := make([]bool, m+1)
	dp[0] = true
	for j := 0; j < n; j++ {
		pc := pattern[j]
		prevDiag := dp[0]
		if pc == '%' {
			// dp[i] = dp[i] (match empty) || dp[i-1] after update
			for i := 1; i <= m; i++ {
				dp[i] = dp[i] || dp[i-1]
			}
			continue
		}
		dp[0] = false
		for i := 1; i <= m; i++ {
			cur := dp[i]
			match := pc == '_' || s[i-1] == pc
			dp[i] = prevDiag && match
			prevDiag = cur
		}
	}
	return dp[m]
}

// refBuiltin is the implementation of one library function.
type refBuiltin struct {
	minArgs, maxArgs int
	fn               func(args []any) (any, error)
}

// refBuiltins is the function library available in channel bodies. The
// emergency usecase leans on geo_distance; the rest round out a usable
// predicate language.
var refBuiltins = map[string]refBuiltin{
	"geo_distance": {4, 4, func(args []any) (any, error) {
		nums, err := refNumberArgs("geo_distance", args)
		if err != nil {
			return nil, err
		}
		return haversineKm(nums[0], nums[1], nums[2], nums[3]), nil
	}},
	"abs": {1, 1, func(args []any) (any, error) {
		nums, err := refNumberArgs("abs", args)
		if err != nil {
			return nil, err
		}
		return math.Abs(nums[0]), nil
	}},
	"floor": {1, 1, func(args []any) (any, error) {
		nums, err := refNumberArgs("floor", args)
		if err != nil {
			return nil, err
		}
		return math.Floor(nums[0]), nil
	}},
	"ceil": {1, 1, func(args []any) (any, error) {
		nums, err := refNumberArgs("ceil", args)
		if err != nil {
			return nil, err
		}
		return math.Ceil(nums[0]), nil
	}},
	"round": {1, 1, func(args []any) (any, error) {
		nums, err := refNumberArgs("round", args)
		if err != nil {
			return nil, err
		}
		return math.Round(nums[0]), nil
	}},
	"sqrt": {1, 1, func(args []any) (any, error) {
		nums, err := refNumberArgs("sqrt", args)
		if err != nil {
			return nil, err
		}
		if nums[0] < 0 {
			return nil, evalErrf("sqrt of negative number")
		}
		return math.Sqrt(nums[0]), nil
	}},
	"min": {1, -1, func(args []any) (any, error) {
		nums, err := refNumberArgs("min", args)
		if err != nil {
			return nil, err
		}
		out := nums[0]
		for _, n := range nums[1:] {
			if n < out {
				out = n
			}
		}
		return out, nil
	}},
	"max": {1, -1, func(args []any) (any, error) {
		nums, err := refNumberArgs("max", args)
		if err != nil {
			return nil, err
		}
		out := nums[0]
		for _, n := range nums[1:] {
			if n > out {
				out = n
			}
		}
		return out, nil
	}},
	"lower": {1, 1, func(args []any) (any, error) {
		s, err := refStringArg("lower", args[0])
		if err != nil {
			return nil, err
		}
		return strings.ToLower(s), nil
	}},
	"upper": {1, 1, func(args []any) (any, error) {
		s, err := refStringArg("upper", args[0])
		if err != nil {
			return nil, err
		}
		return strings.ToUpper(s), nil
	}},
	"contains": {2, 2, func(args []any) (any, error) {
		s, err := refStringArg("contains", args[0])
		if err != nil {
			return nil, err
		}
		sub, err := refStringArg("contains", args[1])
		if err != nil {
			return nil, err
		}
		return strings.Contains(s, sub), nil
	}},
	"starts_with": {2, 2, func(args []any) (any, error) {
		s, err := refStringArg("starts_with", args[0])
		if err != nil {
			return nil, err
		}
		prefix, err := refStringArg("starts_with", args[1])
		if err != nil {
			return nil, err
		}
		return strings.HasPrefix(s, prefix), nil
	}},
	"len": {1, 1, func(args []any) (any, error) {
		switch v := args[0].(type) {
		case string:
			return float64(len(v)), nil
		case []any:
			return float64(len(v)), nil
		case map[string]any:
			return float64(len(v)), nil
		case nil:
			return float64(0), nil
		default:
			return nil, evalErrf("len: unsupported type %T", v)
		}
	}},
	"coalesce": {1, -1, func(args []any) (any, error) {
		for _, a := range args {
			if a != nil {
				return a, nil
			}
		}
		return nil, nil
	}},
	"exists": {1, 1, func(args []any) (any, error) {
		return args[0] != nil, nil
	}},
}

func evalCall(c Call, env *Env) (any, error) {
	b, ok := refBuiltins[strings.ToLower(c.Func)]
	if !ok {
		return nil, evalErrf("unknown function %q", c.Func)
	}
	if len(c.Args) < b.minArgs || (b.maxArgs >= 0 && len(c.Args) > b.maxArgs) {
		return nil, evalErrf("%s: wrong number of arguments (got %d)", c.Func, len(c.Args))
	}
	args := make([]any, len(c.Args))
	for i, a := range c.Args {
		v, err := refEval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return b.fn(args)
}

func refNumberArgs(fn string, args []any) ([]float64, error) {
	out := make([]float64, len(args))
	for i, a := range args {
		n, ok := refNormalize(a).(float64)
		if !ok {
			return nil, evalErrf("%s: argument %d must be a number, got %T", fn, i+1, a)
		}
		out[i] = n
	}
	return out, nil
}

func refStringArg(fn string, arg any) (string, error) {
	s, ok := arg.(string)
	if !ok {
		return "", evalErrf("%s: argument must be a string, got %T", fn, arg)
	}
	return s, nil
}
