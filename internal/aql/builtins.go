package aql

import (
	"math"
	"strings"
)

// builtin is the implementation of one library function. Exactly one of
// fn1/fn2/fn is set: the fixed small arities take their arguments
// directly so a call allocates nothing.
type builtin struct {
	minArgs, maxArgs int // maxArgs < 0: variadic
	fn1              func(a value) (value, error)
	fn2              func(a, b value) (value, error)
	fn               func(args []value) (value, error)
}

// builtins is the function library available in channel bodies. The
// emergency usecase leans on geo_distance; the rest round out a usable
// predicate language.
var builtins = map[string]builtin{
	"geo_distance": {minArgs: 4, maxArgs: 4, fn: func(args []value) (value, error) {
		for i, a := range args {
			if err := wantNumber("geo_distance", i, a); err != nil {
				return value{}, err
			}
		}
		return numValue(haversineKm(args[0].num, args[1].num, args[2].num, args[3].num)), nil
	}},
	"abs":   num1("abs", math.Abs),
	"floor": num1("floor", math.Floor),
	"ceil":  num1("ceil", math.Ceil),
	"round": num1("round", math.Round),
	"sqrt": {minArgs: 1, maxArgs: 1, fn1: func(a value) (value, error) {
		if err := wantNumber("sqrt", 0, a); err != nil {
			return value{}, err
		}
		if a.num < 0 {
			return value{}, evalErrf("sqrt of negative number")
		}
		return numValue(math.Sqrt(a.num)), nil
	}},
	"min":         fold("min", func(n, best float64) bool { return n < best }),
	"max":         fold("max", func(n, best float64) bool { return n > best }),
	"lower":       str1("lower", func(s string) value { return strValue(strings.ToLower(s)) }),
	"upper":       str1("upper", func(s string) value { return strValue(strings.ToUpper(s)) }),
	"contains":    str2("contains", strings.Contains),
	"starts_with": str2("starts_with", strings.HasPrefix),
	"len": {minArgs: 1, maxArgs: 1, fn1: func(a value) (value, error) {
		switch v := a.ref.(type) {
		case []any:
			return numValue(float64(len(v))), nil
		case map[string]any:
			return numValue(float64(len(v))), nil
		}
		switch a.kind {
		case kindStr:
			return numValue(float64(len(a.str))), nil
		case kindNull:
			return numValue(0), nil
		}
		return value{}, evalErrf("len: unsupported type %s", a.typeName())
	}},
	"coalesce": {minArgs: 1, maxArgs: -1, fn: func(args []value) (value, error) {
		for _, a := range args {
			if a.kind != kindNull {
				return a, nil
			}
		}
		return value{}, nil
	}},
	"exists": {minArgs: 1, maxArgs: 1, fn1: func(a value) (value, error) {
		return boolValue(a.kind != kindNull), nil
	}},
}

func wantNumber(fn string, i int, a value) error {
	if a.kind != kindNum {
		return evalErrf("%s: argument %d must be a number, got %s", fn, i+1, a.typeName())
	}
	return nil
}

func wantString(fn string, a value) error {
	if a.kind != kindStr {
		return evalErrf("%s: argument must be a string, got %s", fn, a.typeName())
	}
	return nil
}

func num1(name string, op func(float64) float64) builtin {
	return builtin{minArgs: 1, maxArgs: 1, fn1: func(a value) (value, error) {
		if err := wantNumber(name, 0, a); err != nil {
			return value{}, err
		}
		return numValue(op(a.num)), nil
	}}
}

// fold is min/max over one or more numbers; every argument is
// type-checked before any is compared.
func fold(name string, better func(n, best float64) bool) builtin {
	return builtin{minArgs: 1, maxArgs: -1, fn: func(args []value) (value, error) {
		for i, a := range args {
			if err := wantNumber(name, i, a); err != nil {
				return value{}, err
			}
		}
		best := args[0].num
		for _, a := range args[1:] {
			if better(a.num, best) {
				best = a.num
			}
		}
		return numValue(best), nil
	}}
}

func str1(name string, op func(string) value) builtin {
	return builtin{minArgs: 1, maxArgs: 1, fn1: func(a value) (value, error) {
		if err := wantString(name, a); err != nil {
			return value{}, err
		}
		return op(a.str), nil
	}}
}

func str2(name string, op func(s, t string) bool) builtin {
	return builtin{minArgs: 2, maxArgs: 2, fn2: func(a, b value) (value, error) {
		if err := wantString(name, a); err != nil {
			return value{}, err
		}
		if err := wantString(name, b); err != nil {
			return value{}, err
		}
		return boolValue(op(a.str, b.str)), nil
	}}
}

const earthRadiusKm = 6371.0

// haversineKm returns the great-circle distance in kilometers.
func haversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	toRad := func(deg float64) float64 { return deg * math.Pi / 180 }
	dLat := toRad(lat2 - lat1)
	dLon := toRad(lon2 - lon1)
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(toRad(lat1))*math.Cos(toRad(lat2))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}
