package aql

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// channelBodies is every channel body of internal/workload/usecase.go and
// the four of bench/workloads.go (copied: importing either from here would
// be an import cycle). They seed FuzzCompiledEval and the table test.
var channelBodies = []string{
	"select * from EmergencyReports r where geo_distance(r.location.lat, r.location.lon, $lat, $lon) <= $radiusKm",
	"select * from EmergencyReports r where r.etype = $etype and geo_distance(r.location.lat, r.location.lon, $lat, $lon) <= $radiusKm",
	"select * from EmergencyReports r where r.severity >= $minSeverity",
	"select * from Shelters s where geo_distance(s.location.lat, s.location.lon, $lat, $lon) <= $radiusKm and s.capacity > 0",
	"select * from Shelters s where s.capacity >= $minCapacity",
	"select r.etype as etype, count(*) as reports, max(r.severity) as worst from EmergencyReports r where r.severity >= $minSeverity group by r.etype order by reports desc",
	"select * from EmergencyReports r where r.etype = $etype",
	"select * from Pubs r where r.key = $key",
	"select * from Pubs r where r.severity >= $minSeverity and geo_distance(r.location.lat, r.location.lon, $lat, $lon) <= $radiusKm",
}

// edgeExprs pin the behaviours the compiled engine must not change.
var edgeExprs = []string{
	"false and nosuch(1)",               // short-circuit hides an unknown function
	"true or sqrt(-1) > 0",              // ... and a raising right side
	"true and abs(1, 2)",                // arity error surfaces when reached
	"false and $unbound",                // unbound parameter hidden
	"$unbound = 1",                      // ... and raised
	"r.missing = null",                  // missing field is null
	"r.missing < 1",                     // mismatched types never order
	"r.s < 1 or r.a >= 'x'",             // ...
	"r.i = 3 and $i = 3 and $f32 = 1.5", // Go ints and float32 normalise
	"$negzero = 0 and 1 / $negzero > 0", // -0.0 equals 0 and divides by zero
	"-r.s", "not r.a", "r.a + r.s", "r.s + r.s", "r.a % 0", "r.a / 0",
	"r.a in r.list", "r.a in 2", "r.a in [1, 'a', r.b]", "[1, 2] = [1, 2]",
	"r.s like 'a%'", "r.s like $s", "r.a like 'a'", "r = r", "r.o = r.o", "exists(r)",
	"len(r.list) + len(r.o) + len(r.s) + len(null)", "len(r.a)", "len(r.other)",
	"coalesce(r.missing, null, r.a)", "min(r.a, r.s)", "max(3, r.a, -1)", "upper(r.a)",
	"contains(r.s, 1)", "contains(1, r.s)", "starts_with(r.s, 'a')", "lower('ABC') = r.s",
	"geo_distance(r.a, r.b, $p, $q) <= $p", "geo_distance(r.a, r.s, $unbound, $q) <= $p",
	"geo_distance(r.a, r.b, $p, $q) <= r.s", "geo_distance(r.a, r.b, $p, $q) <= $unbound",
	"geo_distance(r.s, r.b, $p, $q) <= $unbound", "GEO_DISTANCE(r.a, r.b, 1, 2) <= 1e9",
	"geo_distance(r.nan, r.b, $p, $q) <= $p", "geo_distance(r.a, r.b, $p, $q) <= r.nan",
	"geo_distance(r.a, r.b, $p) <= 1", "r.nan <= 1", "r.nan = r.nan", "r.other = r.other",
	"abs(*)", "count(*)", "42", "'str'", "null", "r.a and true", "not null",
}

// valuePool is what record fields and parameters are drawn from: every
// numeric Go form the evaluator normalises, -0.0, NaN, the JSON kinds and
// a foreign Go type.
var valuePool = []any{
	0.0, math.Copysign(0, -1), 1.0, -1.0, 2.5, 33.64, -117.8, 90.0, -90.0, 180.0, 1e300,
	math.NaN(), math.Inf(1), 3, int32(5), int64(4), float32(1.5),
	"", "a", "abc", "fire", "%b_", true, false, nil,
	[]any{1.0, "a", 2}, []any{}, map[string]any{"x": 1.0, "y": "a"}, uint8(7),
}

func pick(rng *rand.Rand) any { return valuePool[rng.Intn(len(valuePool))] }

// genEnv draws a record and a parameter binding; fields and parameters
// are sometimes left out (missing field, unbound parameter).
func genEnv(rng *rand.Rand) *Env {
	rec := map[string]any{"o": map[string]any{"x": pick(rng)}, "location": map[string]any{}}
	for _, k := range []string{"a", "b", "s", "list", "i", "nan", "other", "etype", "severity", "key", "capacity"} {
		if rng.Intn(5) > 0 {
			rec[k] = pick(rng)
		}
	}
	for _, k := range []string{"lat", "lon"} {
		if rng.Intn(5) > 0 {
			rec["location"].(map[string]any)[k] = pick(rng)
		}
	}
	params := map[string]any{}
	for _, k := range []string{"p", "q", "s", "i", "f32", "negzero", "lat", "lon", "radiusKm", "etype", "minSeverity", "minCapacity", "key"} {
		if rng.Intn(6) > 0 {
			params[k] = pick(rng)
		}
	}
	return &Env{Alias: "r", Record: rec, Params: params}
}

// fixedEnv is the environment the edge expressions are written against.
func fixedEnv() *Env {
	return &Env{
		Alias: "r",
		Record: map[string]any{
			"a": 1.0, "b": 2.0, "s": "abc", "i": 3, "nan": math.NaN(), "other": uint8(7),
			"list": []any{1, "a", 2.0}, "o": map[string]any{"x": 1.0},
		},
		Params: map[string]any{
			"p": 33.0, "q": -117.0, "s": "a%", "i": 3, "f32": float32(1.5),
			"negzero": math.Copysign(0, -1),
		},
	}
}

// genExpr writes a random expression as source text, so it reaches both
// evaluators through the parser like a real channel body does.
func genExpr(rng *rand.Rand, depth int) string {
	leaves := []string{
		"0", "1", "2.5", "-0.0", "1e9", "'a'", "'abc'", "'%b_'", "true", "false", "null",
		"r.a", "r.b", "r.s", "r.i", "r.list", "r.o", "r.o.x", "r.missing", "r.nan", "r.other", "a", "r",
		"$p", "$q", "$s", "$i", "$f32", "$negzero", "$unbound",
	}
	if depth <= 0 || rng.Intn(4) == 0 {
		return leaves[rng.Intn(len(leaves))]
	}
	sub := func() string { return genExpr(rng, depth-1) }
	leaf := func() string { return leaves[rng.Intn(len(leaves))] }
	switch rng.Intn(8) {
	case 0:
		return "(" + sub() + " " + []string{"and", "or"}[rng.Intn(2)] + " " + sub() + ")"
	case 1:
		return "(" + sub() + " " + []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)] + " " + sub() + ")"
	case 2:
		return "(" + sub() + " " + []string{"+", "-", "*", "/", "%"}[rng.Intn(5)] + " " + sub() + ")"
	case 3:
		return "(" + []string{"- ", "not "}[rng.Intn(2)] + sub() + ")"
	case 4:
		return "(" + sub() + " in [" + sub() + ", " + sub() + "])"
	case 5:
		return "(" + sub() + " like " + []string{"'a%'", "'%b_'", "'abc'", "$s", sub()}[rng.Intn(5)] + ")"
	case 6:
		return fmt.Sprintf("(geo_distance(%s, %s, %s, %s) <= %s)", leaf(), leaf(), leaf(), leaf(), leaf())
	default:
		names := []string{"geo_distance", "abs", "floor", "ceil", "round", "sqrt", "min", "max", "lower",
			"upper", "contains", "starts_with", "len", "coalesce", "exists", "nosuch", "count"}
		args := make([]string, rng.Intn(5))
		for i := range args {
			args[i] = sub()
		}
		return names[rng.Intn(len(names))] + "(" + strings.Join(args, ", ") + ")"
	}
}

// sameValue is deep equality that tells -0 from 0 and lets NaN equal NaN.
func sameValue(a, b any) bool {
	switch av := a.(type) {
	case float64:
		bv, ok := b.(float64)
		return ok && (math.Float64bits(av) == math.Float64bits(bv) || (av != av && bv != bv))
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !sameValue(av[i], bv[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) || (av == nil) != (bv == nil) {
			return false
		}
		for k, v := range av {
			w, ok := bv[k]
			if !ok || !sameValue(v, w) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkAgainstReference requires the compiled engine and the reference
// tree-walker to agree on e: same value, same error-or-not, same error
// text, as a value and as a predicate.
func checkAgainstReference(t *testing.T, e Expr, env *Env) {
	t.Helper()
	want, wantErr := refEval(e, env)
	got, gotErr := Eval(e, env)
	if errText(gotErr) != errText(wantErr) || (wantErr == nil && !sameValue(got, want)) {
		t.Fatalf("%s\n record %#v\n params %#v\ncompiled  %#v, %s\nreference %#v, %s",
			e, env.Record, env.Params, got, errText(gotErr), want, errText(wantErr))
	}
	wantB, wantErr := refEvalPredicate(e, env)
	gotB, gotErr := EvalPredicate(e, env)
	if errText(gotErr) != errText(wantErr) || gotB != wantB {
		t.Fatalf("predicate %s\n record %#v\n params %#v\ncompiled  %v, %s\nreference %v, %s",
			e, env.Record, env.Params, gotB, errText(gotErr), wantB, errText(wantErr))
	}
}

// exprsOf parses src as a query (yielding every expression in it) or as a
// standalone expression.
func exprsOf(src string) (exprs []Expr, alias string) {
	if q, err := ParseQuery(src); err == nil {
		if q.Where != nil {
			exprs = append(exprs, q.Where)
		}
		for _, p := range q.Proj {
			if _, agg := isAggregateCall(p.Expr); !agg {
				exprs = append(exprs, p.Expr)
			}
		}
		return append(exprs, q.GroupBy...), q.Alias
	}
	if e, err := ParseExpr(src); err == nil {
		return []Expr{e}, "r"
	}
	return nil, ""
}

func TestCompiledMatchesReference(t *testing.T) {
	for _, src := range append(append([]string(nil), channelBodies...), edgeExprs...) {
		exprs, alias := exprsOf(src)
		if len(exprs) == 0 {
			t.Fatalf("%q does not parse", src)
		}
		rng := rand.New(rand.NewSource(1))
		for _, e := range exprs {
			env := fixedEnv()
			env.Alias = alias
			checkAgainstReference(t, e, env)
			for i := 0; i < 200; i++ {
				env := genEnv(rng)
				env.Alias = alias
				checkAgainstReference(t, e, env)
			}
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		src := genExpr(rng, 3)
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("generated %q: %v", src, err)
		}
		checkAgainstReference(t, e, genEnv(rng))
	}
}

// FuzzCompiledEval is the differential oracle for the compiled engine:
// the fuzzed source (when it parses) and an expression generated from the
// fuzzed seed are evaluated over environments drawn from that seed, and
// every result must match the reference tree-walker.
func FuzzCompiledEval(f *testing.F) {
	for i, src := range append(append([]string(nil), channelBodies...), edgeExprs...) {
		f.Add(src, uint64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		exprs, alias := exprsOf(src)
		gen, err := ParseExpr(genExpr(rng, 4))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			env := genEnv(rng)
			checkAgainstReference(t, gen, env)
			env.Alias = alias
			for _, e := range exprs {
				checkAgainstReference(t, e, env)
			}
		}
	})
}

// The latitude-band reject may only ever say "farther than r" when the
// haversine agrees, so the peephole never changes a result; and GeoBox's
// box must hold every in-range point the predicate calls within r, so the
// cluster's geo index never drops a match.
func TestLatBandNeverDisagrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nan, inf := math.NaN(), math.Inf(1)
	lats := []float64{-90, 90, 0, math.Copysign(0, -1), 89.9999999, -89.9999999, 45, 33.5, 1e-200, -1e-200, 5e-324, nan, inf}
	lons := []float64{-180, 180, 179.9999999, -179.9999999, 0, -118, nan, -inf}
	coord := func(edge []float64, span float64) float64 {
		switch rng.Intn(4) {
		case 0:
			return edge[rng.Intn(len(edge))]
		case 1:
			return edge[rng.Intn(len(edge))] + (rng.Float64()*2-1)*1e-6
		}
		return (rng.Float64()*2 - 1) * span
	}
	inRange := func(lat, lon float64) bool { return math.Abs(lat) <= 90 && math.Abs(lon) <= 180 }
	rejected, boxed := 0, 0
	for i := 0; i < 1_000_000; i++ {
		lat1, lon1 := coord(lats, 90), coord(lons, 180)
		lat2, lon2 := coord(lats, 90), coord(lons, 180)
		switch rng.Intn(4) {
		case 0, 1: // a neighbour, as on a subscription grid
			lat2, lon2 = lat1+(rng.Float64()*2-1)*0.05, lon1+(rng.Float64()*2-1)*0.05
		case 2: // round point 2, out to where its circle touches a pole
			lat1, lon1 = onCircle(lat2, lon2, rng.Float64()*2*math.Pi, rng.Float64()*(90-math.Abs(lat2))*math.Pi/180)
		}
		d := haversineKm(lat1, lon1, lat2, lon2)
		band := earthRadiusKm * math.Abs(lat2-lat1) * math.Pi / 180
		var r float64
		switch rng.Intn(8) {
		case 0:
			r = 0
		case 1:
			r = d // exactly on the boundary
		case 2:
			r = band
		case 3:
			r = d * (1 + (rng.Float64()*2-1)*1e-9)
		case 4:
			r = band * (1 + (rng.Float64()*2-1)*1e-8)
		case 5:
			r = -rng.Float64()
		default:
			r = rng.Float64() * 2 * d
		}
		if latBandExceeds(lat1, lon1, lat2, lon2, r) {
			rejected++
			if d <= r {
				t.Fatalf("band rejects (%v,%v)-(%v,%v) at r=%v but haversine is %v", lat1, lon1, lat2, lon2, r, d)
			}
		}
		south, north, west, east, ok := GeoBox(lat2, lon2, r)
		if !ok {
			if math.Abs(lat2) < 89 && math.Abs(lon2) < 179 && r >= 0 && r < 1 {
				t.Fatalf("GeoBox(%v, %v, %v) declines a small circle far from the poles and ±180°", lat2, lon2, r)
			}
			continue
		}
		if !inRange(lat2, lon2) || !(r >= 0) || south < -90 || north > 90 || west < -180 || east > 180 {
			t.Fatalf("GeoBox(%v, %v, %v) = [%v, %v] × [%v, %v], ok; want ok=false", lat2, lon2, r, south, north, west, east)
		}
		// The predicate holds unless the distance is greater (NaN holds);
		// an out-of-range record visits every group, so it needs no box.
		if !(d > r) && inRange(lat1, lon1) {
			boxed++
			if !(lat1 >= south && lat1 <= north && lon1 >= west && lon1 <= east) {
				t.Fatalf("(%v,%v) is %v km from (%v,%v), within r=%v, but outside GeoBox [%v, %v] × [%v, %v]",
					lat1, lon1, d, lat2, lon2, r, south, north, west, east)
			}
		}
	}
	if rejected < 100_000 {
		t.Errorf("band rejected only %d of 1e6 cases; the test no longer exercises it", rejected)
	}
	if boxed < 100_000 {
		t.Errorf("only %d of 1e6 cases put a point within its circle's box; the test no longer exercises GeoBox", boxed)
	}
	for _, c := range [][3]float64{
		{90 - 1e-3, 0, 1}, {-90 + 1e-3, 0, 1}, // the circle reaches a pole
		{0, 180 - 1e-3, 1}, {0, -180 + 1e-3, 1}, // or crosses the antimeridian
		{0, 0, -1e-12}, {0, 0, nan}, {0, 0, inf}, {nan, 0, 1}, {0, nan, 1}, {inf, 0, 1}, {0, -inf, 1},
		{95, 0, 1}, {0, 200, 1}, // a centre off the globe
	} {
		if s, n, w, e, ok := GeoBox(c[0], c[1], c[2]); ok {
			t.Errorf("GeoBox(%v, %v, %v) = [%v, %v] × [%v, %v], ok; want ok=false", c[0], c[1], c[2], s, n, w, e)
		}
	}
}

// onCircle returns the point at angular distance delta (radians) from
// (lat, lon) along the bearing theta.
func onCircle(lat, lon, theta, delta float64) (float64, float64) {
	phi, lambda := lat*math.Pi/180, lon*math.Pi/180
	phi1 := math.Asin(math.Sin(phi)*math.Cos(delta) + math.Cos(phi)*math.Sin(delta)*math.Cos(theta))
	lambda1 := lambda + math.Atan2(math.Sin(theta)*math.Sin(delta)*math.Cos(phi), math.Cos(delta)-math.Sin(phi)*math.Sin(phi1))
	return phi1 * 180 / math.Pi, lambda1 * 180 / math.Pi
}

// The split-at-% matcher must agree with the dynamic-programming LIKE it
// replaced, on every pattern and subject over a small alphabet.
func TestLikeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	word := func(alphabet string, n int) string {
		b := make([]byte, rng.Intn(n))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 200_000; i++ {
		s, p := word("ab", 8), word("ab%_", 7)
		if got, want := likeMatch(s, p), refLikeMatch(s, p); got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, reference %v", s, p, got, want)
		}
	}
}

// A group whose predicate is false costs no allocation: that is what lets
// the cluster scan thousands of bindings per publication.
func TestRunNoMatchAllocatesNothing(t *testing.T) {
	q, err := ParseQuery(channelBodies[8])
	if err != nil {
		t.Fatal(err)
	}
	frames := q.Frames([]map[string]any{
		{"severity": 5.0, "location": map[string]any{"lat": 33.5, "lon": -118.0}},
		{"severity": 1.0, "location": map[string]any{"lat": 33.7, "lon": -117.9}},
	})
	bindings := []Consts{
		q.Bind(map[string]any{"minSeverity": 9.0, "lat": 33.5, "lon": -118.0, "radiusKm": 0.5}),  // severity fails
		q.Bind(map[string]any{"minSeverity": 1.0, "lat": 34.5, "lon": -118.0, "radiusKm": 0.5}),  // band rejects
		q.Bind(map[string]any{"minSeverity": 1.0, "lat": 33.5, "lon": -118.02, "radiusKm": 0.5}), // haversine rejects
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range bindings {
			if rows, err := q.Run(frames, c); err != nil || len(rows) != 0 {
				t.Fatalf("rows %v, err %v; want no match", rows, err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("non-matching bindings cost %v allocs per run, want 0", allocs)
	}
}
