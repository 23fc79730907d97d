package aql

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// The compiled evaluator. ParseQuery lowers every expression of a query
// into a tree of Go closures once; evaluation then runs the closures over
//
//   - a Frame: the record paths the query reads (r.severity,
//     r.location.lat, ...), resolved once per record into numbered slots
//     and shared by every parameter binding evaluated against that record;
//   - a Consts vector: one subscription's parameter values, normalised
//     once at bind time into numbered slots.
//
// Values travel unboxed (kind + float64 + string; `any` only for lists,
// objects and foreign Go types), builtins are resolved to function
// pointers and arity-checked while compiling, and a predicate that is
// false allocates nothing. Unknown functions, wrong arity and unbound
// parameters still raise only when the offending node is evaluated, so
// `false and nosuch(1)` stays false.

// kind tags the dynamic type of a value.
type kind uint8

const (
	kindNull kind = iota
	kindBool
	kindNum
	kindStr
	kindRef     // list, object or any other Go value, held in ref
	kindUnbound // a Consts slot whose parameter was not bound
)

// value is one JSON-model value. Every Go numeric type a record or a
// parameter can carry is normalised to kindNum on the way in.
type value struct {
	kind kind
	num  float64 // kindNum; kindBool holds 0 or 1
	str  string  // kindStr
	ref  any     // kindRef
}

func numValue(n float64) value { return value{kind: kindNum, num: n} }
func strValue(s string) value  { return value{kind: kindStr, str: s} }

func boolValue(b bool) value {
	if b {
		return value{kind: kindBool, num: 1}
	}
	return value{kind: kindBool}
}

// fromAny unboxes a JSON-model value.
func fromAny(x any) value {
	switch v := x.(type) {
	case nil:
		return value{}
	case bool:
		return boolValue(v)
	case float64:
		return numValue(v)
	case string:
		return strValue(v)
	case int:
		return numValue(float64(v))
	case int32:
		return numValue(float64(v))
	case int64:
		return numValue(float64(v))
	case float32:
		return numValue(float64(v))
	default:
		return value{kind: kindRef, ref: x}
	}
}

// box converts a value back to its JSON-model form.
func (v value) box() any {
	switch v.kind {
	case kindBool:
		return v.num != 0
	case kindNum:
		return v.num
	case kindStr:
		return v.str
	case kindRef:
		return v.ref
	default:
		return nil
	}
}

// typeName is what %T printed for the boxed value; error texts carry it.
func (v value) typeName() string { return fmt.Sprintf("%T", v.box()) }

// Frame holds one record with the paths a query reads resolved into slots.
type Frame struct {
	rec   map[string]any
	slots []value
}

// Consts is one parameter binding of a query, flattened into slots.
type Consts []value

type (
	evalFn func(f *Frame, c Consts) (value, error)
	predFn func(f *Frame, c Consts) (bool, error)
)

// compiler assigns parameter and path slots while lowering expressions.
// All expressions evaluated against the same kind of record (the input
// records, or the output rows for order-by keys) share one compiler.
type compiler struct {
	alias  string
	params []string   // $name -> Consts slot
	paths  [][]string // alias-stripped path -> Frame slot; empty = the record itself
}

func (cp *compiler) paramSlot(name string) int {
	for i, p := range cp.params {
		if p == name {
			return i
		}
	}
	cp.params = append(cp.params, name)
	return len(cp.params) - 1
}

func (cp *compiler) pathSlot(p Path) int {
	parts := p.Parts
	if cp.alias != "" && parts[0] == cp.alias {
		parts = parts[1:]
	}
	for i, have := range cp.paths {
		if slices.Equal(have, parts) {
			return i
		}
	}
	cp.paths = append(cp.paths, parts)
	return len(cp.paths) - 1
}

// load resolves every path against rec. Missing fields are null, matching
// open-schema semantics, so loading cannot fail.
func (f *Frame) load(paths [][]string, rec map[string]any) {
	f.rec = rec
	for i, parts := range paths {
		if len(parts) == 0 {
			f.slots[i] = value{kind: kindRef, ref: rec}
			continue
		}
		var cur any = rec
		for _, part := range parts {
			m, _ := cur.(map[string]any) // not an object: a nil map, so null
			cur = m[part]
		}
		f.slots[i] = fromAny(cur)
	}
}

// bind flattens params into the slot order the compiler assigned.
func bind(names []string, params map[string]any) Consts {
	c := make(Consts, len(names))
	for i, name := range names {
		if v, ok := params[name]; ok {
			c[i] = fromAny(v)
		} else {
			c[i].kind = kindUnbound
		}
	}
	return c
}

func fail(err error) evalFn {
	return func(*Frame, Consts) (value, error) { return value{}, err }
}

// leaf is an operand that loads without evaluating anything: a record
// slot, a bound parameter or a literal.
type leaf struct {
	slot, param int // >= 0 selects the frame or the constants; else lit
	name        string
	lit         value
}

func (cp *compiler) leaf(e Expr) (leaf, bool) {
	switch v := e.(type) {
	case Lit:
		return leaf{slot: -1, param: -1, lit: fromAny(v.Value)}, true
	case Param:
		return leaf{slot: -1, param: cp.paramSlot(v.Name), name: v.Name}, true
	case Path:
		return leaf{slot: cp.pathSlot(v), param: -1}, true
	}
	return leaf{}, false
}

// at returns the operand in place; the caller checks for kindUnbound.
func (l *leaf) at(f *Frame, c Consts) *value {
	switch {
	case l.slot >= 0:
		return &f.slots[l.slot]
	case l.param >= 0:
		return &c[l.param]
	}
	return &l.lit
}

func (l *leaf) load(f *Frame, c Consts) (value, error) {
	if v := l.at(f, c); v.kind != kindUnbound {
		return *v, nil
	}
	return value{}, evalErrf("unbound parameter $%s", l.name)
}

// expr lowers e to a closure producing its value.
func (cp *compiler) expr(e Expr) evalFn {
	switch v := e.(type) {
	case Lit, Param, Path:
		l, _ := cp.leaf(e)
		return l.load
	case Unary:
		return cp.unary(v)
	case Binary:
		switch v.Op {
		case "+", "-", "*", "/", "%":
			return cp.arith(v)
		case "and", "or", "=", "!=", "<", "<=", ">", ">=", "in", "like":
			p := cp.pred(v)
			return func(f *Frame, c Consts) (value, error) {
				b, err := p(f, c)
				return boolValue(b), err
			}
		}
		return fail(evalErrf("unknown binary operator %q", v.Op))
	case Call:
		return cp.call(v)
	case List:
		return cp.list(v)
	case Star:
		return fail(evalErrf("'*' is only valid inside count(*)"))
	default:
		return fail(evalErrf("unknown expression node %T", e))
	}
}

// pred lowers e to a closure producing its truth value without boxing it:
// false for null, the value itself for a boolean, an error for the rest.
func (cp *compiler) pred(e Expr) predFn {
	if b, ok := e.(Binary); ok {
		switch b.Op {
		case "and", "or":
			l, r := cp.pred(b.L), cp.pred(b.R)
			stop := b.Op == "or" // the left value that short-circuits
			return func(f *Frame, c Consts) (bool, error) {
				if ok, err := l(f, c); err != nil || ok == stop {
					return ok, err
				}
				return r(f, c)
			}
		case "=", "!=", "<", "<=", ">", ">=", "in", "like":
			return cp.compare(b)
		}
	}
	fn := cp.expr(e)
	return func(f *Frame, c Consts) (bool, error) {
		v, err := fn(f, c)
		if err != nil || v.kind == kindNull || v.kind == kindBool {
			return v.num != 0, err
		}
		return false, evalErrf("predicate evaluated to non-boolean %s", v.typeName())
	}
}

func (cp *compiler) unary(u Unary) evalFn {
	x := cp.expr(u.X)
	return func(f *Frame, c Consts) (value, error) {
		v, err := x(f, c)
		switch {
		case err != nil:
			return value{}, err
		case u.Op == "-" && v.kind == kindNum:
			return numValue(-v.num), nil
		case u.Op == "-":
			return value{}, evalErrf("unary minus needs a number, got %s", v.typeName())
		case u.Op != "not":
			return value{}, evalErrf("unknown unary operator %q", u.Op)
		case v.kind == kindNull:
			return boolValue(true), nil
		case v.kind == kindBool:
			return boolValue(v.num == 0), nil
		}
		return value{}, evalErrf("not needs a boolean, got %s", v.typeName())
	}
}

// compare lowers a comparison, `in` or `like`. Both operands evaluate
// (left first) before the operator looks at either. Two leaves are read in
// place, without a call or a copy; an unbound parameter sends them down
// the generic path, which raises.
func (cp *compiler) compare(b Binary) predFn {
	m := &comparison{op: b.Op}
	if lit, ok := b.R.(Lit); ok && b.Op == "like" {
		if s, ok := lit.Value.(string); ok {
			m.pattern = compileLike(s) // a literal pattern is split once, here
		}
	}
	l, r := cp.expr(b.L), cp.expr(b.R)
	generic := func(f *Frame, c Consts) (bool, error) {
		x, err := l(f, c)
		if err != nil {
			return false, err
		}
		y, err := r(f, c)
		if err != nil {
			return false, err
		}
		return m.apply(&x, &y)
	}
	if p := cp.geoWithin(b, generic); p != nil {
		return p
	}
	la, lok := cp.leaf(b.L)
	lb, rok := cp.leaf(b.R)
	if !lok || !rok {
		return generic
	}
	return func(f *Frame, c Consts) (bool, error) {
		x, y := la.at(f, c), lb.at(f, c)
		if x.kind == kindUnbound || y.kind == kindUnbound {
			return generic(f, c)
		}
		return m.apply(x, y)
	}
}

// comparison is a comparison operator with its precompiled pattern.
type comparison struct {
	op      string
	pattern likePattern
}

func (m *comparison) apply(x, y *value) (bool, error) {
	switch m.op {
	case "=":
		return equalValues(x, y), nil
	case "!=":
		return !equalValues(x, y), nil
	case "in":
		list, ok := y.ref.([]any)
		if !ok {
			return false, evalErrf("right side of 'in' must be a list, got %s", y.typeName())
		}
		for _, el := range list {
			if v := fromAny(el); equalValues(x, &v) {
				return true, nil
			}
		}
		return false, nil
	case "like":
		if x.kind != kindStr || y.kind != kindStr {
			return false, nil
		}
		if m.pattern != nil {
			return m.pattern.match(x.str), nil
		}
		return likeMatch(x.str, y.str), nil
	}
	// Mismatched or non-orderable types never satisfy an ordering
	// predicate (open-schema tolerance).
	cmp, ok := compareValues(x, y)
	if !ok {
		return false, nil
	}
	switch m.op {
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	default:
		return cmp >= 0, nil
	}
}

// geoWithin is the one kernel-level peephole: a conjunct of the shape
//
//	geo_distance(leaf, leaf, leaf, leaf) <= leaf
//
// over five numbers first rejects on the latitude band and only then pays
// for the haversine. Anything else at run time (a non-number, an unbound
// parameter) goes down the generic path, so every error and every
// mismatched-type result stays what it was. It returns nil for any other
// shape.
func (cp *compiler) geoWithin(b Binary, generic predFn) predFn {
	args, ok := geoTest(b)
	if !ok {
		return nil
	}
	var ops [5]leaf
	for i, e := range args {
		if ops[i], ok = cp.leaf(e); !ok {
			return nil
		}
	}
	return func(f *Frame, c Consts) (bool, error) {
		var n [5]float64 // lat1, lon1, lat2, lon2, radius
		for i := range ops {
			v := ops[i].at(f, c)
			if v.kind != kindNum {
				return generic(f, c)
			}
			n[i] = v.num
		}
		if latBandExceeds(n[0], n[1], n[2], n[3], n[4]) {
			return false, nil
		}
		// `<=` is "not greater", which also decides NaN the way the
		// generic three-way comparison does.
		return !(haversineKm(n[0], n[1], n[2], n[3]) > n[4]), nil
	}
}

// geoTest recognises the circle comparison `geo_distance(a, b, c, d) <= e`
// and returns its five operands. It is the one place that says what a
// circle test looks like: the geoWithin peephole and GeoConjunct (hence
// the cluster's geo index) both read it.
func geoTest(b Binary) (args [5]Expr, ok bool) {
	call, ok := b.L.(Call)
	if !ok || b.Op != "<=" || len(call.Args) != 4 || strings.ToLower(call.Func) != "geo_distance" {
		return args, false
	}
	copy(args[:], call.Args)
	args[4] = b.R
	return args, true
}

// GeoConjunct finds, among the top-level AND conjuncts of where, the first
// circle test
//
//	geo_distance(path, path, $lat, $lon) <= R
//
// whose R is a parameter or a number literal; the two paths and the two
// parameters may swap places as pairs. It returns the record paths, the
// centre's parameters and R. A predicate holding such a conjunct is false
// for every record whose point lies more than R from the centre.
func GeoConjunct(where Expr) (point [2]Path, centre [2]Param, radius Expr, ok bool) {
	b, isBinary := where.(Binary)
	if !isBinary {
		return point, centre, nil, false
	}
	if b.Op == "and" {
		if point, centre, radius, ok = GeoConjunct(b.L); ok {
			return point, centre, radius, true
		}
		return GeoConjunct(b.R)
	}
	args, isGeo := geoTest(b)
	if !isGeo {
		return point, centre, nil, false
	}
	switch r := args[4].(type) {
	case Param:
	case Lit:
		if _, num := r.Value.(float64); !num {
			return point, centre, nil, false
		}
	default:
		return point, centre, nil, false
	}
	for _, at := range [2]int{0, 2} { // the record's pair first, then swapped
		lat, ok1 := args[at].(Path)
		lon, ok2 := args[at+1].(Path)
		clat, ok3 := args[2-at].(Param)
		clon, ok4 := args[3-at].(Param)
		if ok1 && ok2 && ok3 && ok4 {
			return [2]Path{lat, lon}, [2]Param{clat, clon}, args[4], true
		}
	}
	return point, centre, nil, false
}

// latBandExceeds reports that the two latitudes alone already put the
// points more than r km apart. For valid latitudes the great-circle
// distance is at least R·|Δφ|, so a true result implies haversineKm(...) >
// r; an invalid latitude or a non-finite longitude (whose NaN distance
// the three-way comparison lets through) is left to the haversine. The
// test stops at |Δlat| = 90°, below which haversineKm's asin is well
// conditioned and its rounding error (~1e-15 relative) is far inside the
// guard of 1e-9, relative plus absolute; the absolute part keeps
// differences too small for sin² to represent from rejecting what
// haversineKm calls 0.
func latBandExceeds(lat1, lon1, lat2, lon2, r float64) bool {
	d := math.Abs(lat2 - lat1)
	return d <= 90 && math.Abs(lat1) <= 90 && math.Abs(lat2) <= 90 &&
		math.Abs(lon2-lon1) <= math.MaxFloat64 &&
		earthRadiusKm*d*(math.Pi/180) > r+geoGuard(r)
}

// geoGuard is the slack, relative plus absolute, that the latitude band
// and GeoBox add to a radius so that haversineKm's rounding never puts a
// point it calls within r outside them.
func geoGuard(r float64) float64 { return 1e-9 * (r + 1) }

// GeoBox returns the latitude/longitude box, in degrees, that holds every
// point (lat, lon) in [-90, 90] × [-180, 180] whose haversineKm to the
// centre (clat, clon) is at most radiusKm. With δ the angular radius, the
// box is φ0 ± δ by the R·|Δφ| rule of the latitude band, and λ0 ± asin(sin
// δ / cos φ0), the widest longitude a spherical cap reaches; δ carries the
// band's guard. The half-width is computed as atan2(sin δ, √((cos φ0 − sin
// δ)(cos φ0 + sin δ))), the same angle without asin's ill-conditioning
// where the cap nearly touches a pole. ok is false when the box would
// reach a pole or cross ±180°, and when any input is not a finite number
// or the radius is negative: no box then bounds the circle.
func GeoBox(clat, clon, radiusKm float64) (south, north, west, east float64, ok bool) {
	if !(radiusKm >= 0) { // NaN too; any other non-finite input fails a range test below
		return 0, 0, 0, 0, false
	}
	delta := (radiusKm + geoGuard(radiusKm)) / earthRadiusKm
	half := delta * 180 / math.Pi
	south, north = clat-half, clat+half
	cosLat, sinDelta := math.Cos(clat*math.Pi/180), math.Sin(delta)
	if !(south > -90 && north < 90 && cosLat > sinDelta) {
		return 0, 0, 0, 0, false
	}
	width := math.Atan2(sinDelta, math.Sqrt((cosLat-sinDelta)*(cosLat+sinDelta))) * 180 / math.Pi
	west, east = clon-width, clon+width
	if !(west >= -180 && east <= 180) {
		return 0, 0, 0, 0, false
	}
	return south, north, west, east, true
}

func (cp *compiler) arith(b Binary) evalFn {
	l, r, op := cp.expr(b.L), cp.expr(b.R), b.Op
	return func(f *Frame, c Consts) (value, error) {
		x, err := l(f, c)
		if err != nil {
			return value{}, err
		}
		y, err := r(f, c)
		if err != nil {
			return value{}, err
		}
		if x.kind != kindNum || y.kind != kindNum {
			if op == "+" && x.kind == kindStr && y.kind == kindStr {
				return strValue(x.str + y.str), nil
			}
			return value{}, evalErrf("arithmetic %q needs numbers, got %s and %s", op, x.typeName(), y.typeName())
		}
		switch op {
		case "+":
			return numValue(x.num + y.num), nil
		case "-":
			return numValue(x.num - y.num), nil
		case "*":
			return numValue(x.num * y.num), nil
		case "/":
			if y.num == 0 {
				return value{}, evalErrf("division by zero")
			}
			return numValue(x.num / y.num), nil
		default:
			if y.num == 0 {
				return value{}, evalErrf("modulo by zero")
			}
			return numValue(math.Mod(x.num, y.num)), nil
		}
	}
}

// call resolves the builtin and checks arity now; a miss compiles to a
// node that raises when (and only when) it is evaluated.
func (cp *compiler) call(c Call) evalFn {
	b, ok := builtins[strings.ToLower(c.Func)]
	if !ok {
		return fail(evalErrf("unknown function %q", c.Func))
	}
	if len(c.Args) < b.minArgs || (b.maxArgs >= 0 && len(c.Args) > b.maxArgs) {
		return fail(evalErrf("%s: wrong number of arguments (got %d)", c.Func, len(c.Args)))
	}
	args := make([]evalFn, len(c.Args))
	for i, a := range c.Args {
		args[i] = cp.expr(a)
	}
	switch {
	case b.fn1 != nil:
		return func(f *Frame, c Consts) (value, error) {
			x, err := args[0](f, c)
			if err != nil {
				return value{}, err
			}
			return b.fn1(x)
		}
	case b.fn2 != nil:
		return func(f *Frame, c Consts) (value, error) {
			x, err := args[0](f, c)
			if err != nil {
				return value{}, err
			}
			y, err := args[1](f, c)
			if err != nil {
				return value{}, err
			}
			return b.fn2(x, y)
		}
	}
	return func(f *Frame, c Consts) (value, error) {
		vals := make([]value, len(args))
		for i, a := range args {
			v, err := a(f, c)
			if err != nil {
				return value{}, err
			}
			vals[i] = v
		}
		return b.fn(vals)
	}
}

func (cp *compiler) list(l List) evalFn {
	elems := make([]evalFn, len(l.Elems))
	for i, el := range l.Elems {
		elems[i] = cp.expr(el)
	}
	return func(f *Frame, c Consts) (value, error) {
		out := make([]any, 0, len(elems))
		for _, el := range elems {
			v, err := el(f, c)
			if err != nil {
				return value{}, err
			}
			out = append(out, v.box())
		}
		return value{kind: kindRef, ref: out}, nil
	}
}

// equalValues implements JSON-model equality (deep for lists and objects).
func equalValues(a, b *value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case kindBool, kindNum:
		return a.num == b.num
	case kindStr:
		return a.str == b.str
	case kindRef:
		return valueEqual(a.ref, b.ref)
	}
	return true
}

// valueEqual is equalValues over boxed values; it carries the recursion
// into lists and objects, whose elements are not normalised on the way in.
func valueEqual(a, b any) bool {
	switch av := a.(type) {
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !valueEqual(av[i], bv[i]) {
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
			if !ok || !valueEqual(v, bvv) {
				return false
			}
		}
		return true
	}
	x, y := fromAny(a), fromAny(b)
	return x.kind != kindRef && y.kind != kindRef && equalValues(&x, &y)
}

// compareValues orders two values of the same scalar type; ok is false for
// mismatched or non-orderable types.
func compareValues(a, b *value) (int, bool) {
	switch {
	case a.kind == kindNum && b.kind == kindNum:
		switch {
		case a.num < b.num:
			return -1, true
		case a.num > b.num:
			return 1, true
		}
		return 0, true
	case a.kind == kindStr && b.kind == kindStr:
		return strings.Compare(a.str, b.str), true
	}
	return 0, false
}

// likePattern is a SQL LIKE pattern split at its % wildcards; _ matches
// any single byte inside a segment.
type likePattern []string

func compileLike(pattern string) likePattern { return strings.Split(pattern, "%") }

func likeMatch(s, pattern string) bool { return compileLike(pattern).match(s) }

// segAt reports whether seg matches s at offset i; it must fit.
func segAt(s string, i int, seg string) bool {
	for j := 0; j < len(seg); j++ {
		if seg[j] != '_' && seg[j] != s[i+j] {
			return false
		}
	}
	return true
}

// match anchors the first and last segments and finds the ones between
// leftmost-first, which is complete because segments have fixed length.
func (p likePattern) match(s string) bool {
	first, last := p[0], p[len(p)-1]
	if len(p) == 1 {
		return len(s) == len(first) && segAt(s, 0, first)
	}
	if len(s) < len(first)+len(last) || !segAt(s, 0, first) || !segAt(s, len(s)-len(last), last) {
		return false
	}
	pos, end := len(first), len(s)-len(last)
	for _, seg := range p[1 : len(p)-1] {
		for pos+len(seg) <= end && !segAt(s, pos, seg) {
			pos++
		}
		if pos+len(seg) > end {
			return false
		}
		pos += len(seg)
	}
	return true
}
