package broker

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The notification socket's frame reader, the mirror of the writers
// (appendResults, appendResultsReply, appendPushJSON and AppendGetRequest). Every retrieval over the socket decodes three frames —
// the request at the broker, the push frame and the reply at the
// subscriber — and encoding/json spends reflection and an allocation per
// key and string on each. wireReader reads the same bytes into the same
// values: a frame is copied to a string once and every string that needs
// no unquoting is a substring of that copy; numbers are float64 in an any
// and int64 in a field, objects in an any map[string]any and arrays []any,
// as encoding/json makes them.
//
// It reads what the writers write and declines the rest: a syntax error,
// a type mismatch, a struct key that is repeated, escaped, not ASCII or
// matches a field only case-insensitively, an out-of-range number, nesting
// past wireMaxDepth. A declined frame is decoded by encoding/json into a
// zero value of the type without its methods, and a type error from it
// names the type itself; so every input decodes to the value and the
// error encoding/json gives for the type (FuzzWireDecode,
// TestWireDecodeErrorsNameTheType), and the writers' output never takes
// that path (TestWireWritersTakeDirectPath).

// wireMaxDepth bounds nesting; deeper frames are left to encoding/json.
const wireMaxDepth = 512

// wireReader is a cursor over one frame.
type wireReader struct {
	src   string // the frame, copied once
	pos   int
	depth int
	buf   []byte // scratch for unquoting
}

// ws skips whitespace and returns the next byte, 0 at the end.
func (r *wireReader) ws() byte {
	for ; r.pos < len(r.src); r.pos++ {
		switch c := r.src[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next byte after whitespace.
func (r *wireReader) eat(c byte) bool {
	if r.ws() != c {
		return false
	}
	r.pos++
	return true
}

// end reports whether only whitespace is left.
func (r *wireReader) end() bool {
	r.ws()
	return r.pos == len(r.src)
}

// literal consumes the word w (true, false or null).
func (r *wireReader) literal(w string) bool {
	if !strings.HasPrefix(r.src[r.pos:], w) {
		return false
	}
	r.pos += len(w)
	return true
}

// number consumes a number in JSON's grammar and returns its text.
func (r *wireReader) number() (string, bool) {
	r.ws()
	s, i := r.src, r.pos
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = digits(s, i)
	default:
		return "", false
	}
	if i < len(s) && s[i] == '.' {
		if i = digits(s, i+1); s[i-1] == '.' {
			return "", false
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if j := digits(s, i); j > i {
			i = j
		} else {
			return "", false
		}
	}
	n := s[r.pos:i]
	r.pos = i
	return n, true
}

func digits(s string, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// int64 consumes a number that is an int64, as encoding/json reads one
// into an int64 field.
func (r *wireReader) int64() (int64, bool) {
	n, ok := r.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(n, 10, 64)
	return v, err == nil
}

// bool consumes true or false.
func (r *wireReader) bool() (bool, bool) {
	switch r.ws() {
	case 't':
		return true, r.literal("true")
	case 'f':
		return false, r.literal("false")
	}
	return false, false
}

// rawString consumes a string and returns what is between its quotes;
// plain reports that it is also the string's value: no escapes and valid
// UTF-8.
func (r *wireReader) rawString() (raw string, plain, ok bool) {
	if r.ws() != '"' {
		return "", false, false
	}
	s, start := r.src, r.pos+1
	plain = true
	for i := start; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			r.pos = i + 1
			return s[start:i], plain, true
		case c == '\\':
			plain = false
			if i+1 == len(s) {
				return "", false, false
			}
			switch e := s[i+1]; {
			case e == 'u':
				if i+6 > len(s) || hex4(s[i+2:i+6]) < 0 {
					return "", false, false
				}
				i += 6
			case unescaped[e] != 0:
				i += 2
			default:
				return "", false, false
			}
		case c < ' ':
			return "", false, false
		case c < utf8.RuneSelf:
			i++
		default:
			rr, size := utf8.DecodeRuneInString(s[i:])
			if rr == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		}
	}
	return "", false, false
}

// str consumes a string and returns its value.
func (r *wireReader) str() (string, bool) {
	raw, plain, ok := r.rawString()
	if !ok || plain {
		return raw, ok
	}
	return r.unquote(raw), true
}

// unquote is the value of the string whose validated text between quotes
// is q, with encoding/json's replacements: U+FFFD for a byte of invalid
// UTF-8 and for a \u surrogate that does not begin a valid pair.
func (r *wireReader) unquote(q string) string {
	b := r.buf[:0]
	for i := 0; i < len(q); {
		switch c := q[i]; {
		case c == '\\':
			if q[i+1] != 'u' {
				b = append(b, unescaped[q[i+1]])
				i += 2
				continue
			}
			rr := hex4(q[i+2 : i+6])
			i += 6
			if utf16.IsSurrogate(rr) {
				next := utf8.RuneError
				if i+6 <= len(q) && q[i] == '\\' && q[i+1] == 'u' {
					next = hex4(q[i+2 : i+6])
				}
				if rr = utf16.DecodeRune(rr, next); rr != utf8.RuneError {
					i += 6
				}
			}
			b = utf8.AppendRune(b, rr)
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRuneInString(q[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
	r.buf = b
	return string(b)
}

// unescaped maps the byte after a backslash to the byte it stands for.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 is the value of four hex digits, -1 if they are not.
func hex4(s string) rune {
	var v rune
	for i := 0; i < 4; i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// value consumes any value and, if keep, returns it as encoding/json
// decodes it into an any. A skipped value is only validated: encoding/json
// neither builds nor range-checks a value no field takes.
func (r *wireReader) value(keep bool) (any, bool) {
	switch c := r.ws(); c {
	case '{', '[':
		if r.depth++; r.depth > wireMaxDepth {
			return nil, false
		}
		var v any
		var ok bool
		if c == '{' {
			v, ok = r.object(keep)
		} else {
			v, ok = r.array(keep)
		}
		r.depth--
		return v, ok
	case '"':
		return r.str()
	case 't':
		return true, r.literal("true")
	case 'f':
		return false, r.literal("false")
	case 'n':
		return nil, r.literal("null")
	}
	n, ok := r.number()
	if !ok || !keep {
		return nil, ok
	}
	f, err := strconv.ParseFloat(n, 64)
	return f, err == nil
}

// object consumes an object, the reader at its '{'; kept, it is a
// map[string]any in which a repeated key's last value wins.
func (r *wireReader) object(keep bool) (any, bool) {
	r.pos++
	var m map[string]any
	if keep {
		m = make(map[string]any)
	}
	if r.eat('}') {
		return m, true
	}
	for {
		k, ok := r.str()
		if !ok || !r.eat(':') {
			return nil, false
		}
		v, ok := r.value(keep)
		if !ok {
			return nil, false
		}
		if keep {
			m[k] = v
		}
		if !r.eat(',') {
			return m, r.eat('}')
		}
	}
}

// array consumes an array, the reader at its '['; kept, it is an []any.
func (r *wireReader) array(keep bool) (any, bool) {
	r.pos++
	var a []any
	if keep {
		a = []any{}
	}
	if r.eat(']') {
		return a, true
	}
	for {
		v, ok := r.value(keep)
		if !ok {
			return nil, false
		}
		if keep {
			a = append(a, v)
		}
		if !r.eat(',') {
			return a, r.eat(']')
		}
	}
}

// fields consumes an object decoded into a struct whose JSON names are
// names, calling field(i) to consume the value of names[i] and skipping
// the value of any other key. It declines what encoding/json resolves by
// rules this reader does not copy: a repeated name (merged into the first
// value), a key that is escaped or not ASCII, or one that matches a name
// only case-insensitively.
func (r *wireReader) fields(names []string, field func(i int) bool) bool {
	if !r.eat('{') {
		return false
	}
	if r.eat('}') {
		return true
	}
	var seen uint
	for {
		k, plain, ok := r.rawString()
		if !ok || !plain || !r.eat(':') {
			return false
		}
		i := 0
		for i < len(names) && names[i] != k {
			i++
		}
		switch {
		case i < len(names):
			if seen&(1<<i) != 0 || !field(i) {
				return false
			}
			seen |= 1 << i
		case foldsToAny(k, names):
			return false
		default:
			if _, ok := r.value(false); !ok {
				return false
			}
		}
		if !r.eat(',') {
			return r.eat('}')
		}
	}
}

// foldsToAny reports whether encoding/json might match key to one of
// names case-insensitively: it is not ASCII, or equals one up to case.
func foldsToAny(key string, names []string) bool {
	for i := 0; i < len(key); i++ {
		if key[i] >= utf8.RuneSelf {
			return true
		}
	}
	for _, n := range names {
		if strings.EqualFold(key, n) {
			return true
		}
	}
	return false
}

var (
	resultsResponseNames = []string{"results", "latest_ns", "stale"}
	resultItemNames      = []string{"id", "timestamp_ns", "size", "rows", "from_cache"}
	pushNames            = []string{"type", "fs", "bs", "latest_ns", "tp"}
	getRequestNames      = []string{"get", "id", "ack", "tp"}
)

// resultsResponseFields, pushFields and getRequestFields are the decoded
// types without their UnmarshalJSON: what a declined frame is decoded into.
type (
	resultsResponseFields ResultsResponse
	pushFields            PushNotification
	getRequestFields      getRequest
)

// declinedErr is err from decoding a declined frame into alias A, as
// encoding/json reports it for T: a *json.UnmarshalTypeError names T
// where it named A.
func declinedErr[T, A any](err error) error {
	if te, ok := err.(*json.UnmarshalTypeError); ok {
		alias, typ := reflect.TypeFor[A](), reflect.TypeFor[T]()
		if te.Struct == alias.Name() {
			te.Struct = typ.Name()
		}
		if te.Type == alias {
			te.Type = typ
		}
	}
	return err
}

// UnmarshalJSON decodes a results body or socket reply into a zero
// ResultsResponse, as encoding/json does.
func (rr *ResultsResponse) UnmarshalJSON(data []byte) error {
	*rr = ResultsResponse{}
	if r := (wireReader{src: string(data)}); r.resultsResponse(rr) && r.end() {
		return nil
	}
	var f resultsResponseFields
	err := json.Unmarshal(data, &f)
	*rr = ResultsResponse(f)
	return declinedErr[ResultsResponse, resultsResponseFields](err)
}

func (r *wireReader) resultsResponse(v *ResultsResponse) bool {
	return r.fields(resultsResponseNames, func(i int) (ok bool) {
		switch i {
		case 0:
			return list(r, &v.Results, r.resultItem)
		case 1:
			v.LatestNS, ok = r.int64()
		default:
			v.Stale, ok = r.bool()
		}
		return ok
	})
}

func (r *wireReader) resultItem() (it ResultItem, ok bool) {
	ok = r.fields(resultItemNames, func(i int) (ok bool) {
		switch i {
		case 0:
			it.ID, ok = r.str()
		case 1:
			it.TimestampNS, ok = r.int64()
		case 2:
			it.Size, ok = r.int64()
		case 3:
			return list(r, &it.Rows, r.row)
		default:
			it.FromCache, ok = r.bool()
		}
		return ok
	})
	return it, ok
}

// list consumes null, leaving *s nil, or an array, into a non-nil *s,
// whose elements elem consumes.
func list[T any](r *wireReader, s *[]T, elem func() (T, bool)) bool {
	if r.ws() != '[' {
		return r.literal("null")
	}
	r.pos++
	*s = []T{}
	if r.eat(']') {
		return true
	}
	for {
		v, ok := elem()
		if !ok {
			return false
		}
		*s = append(*s, v)
		if !r.eat(',') {
			return r.eat(']')
		}
	}
}

// row consumes a row of ResultItem.Rows: an object, or null.
func (r *wireReader) row() (map[string]any, bool) {
	if r.ws() != '{' {
		return nil, r.literal("null")
	}
	v, ok := r.value(true)
	row, _ := v.(map[string]any)
	return row, ok
}

// UnmarshalJSON decodes a push frame into a zero PushNotification, as
// encoding/json does.
func (n *PushNotification) UnmarshalJSON(data []byte) error {
	*n = PushNotification{}
	if r := (wireReader{src: string(data)}); r.push(n) && r.end() {
		return nil
	}
	var f pushFields
	err := json.Unmarshal(data, &f)
	*n = PushNotification(f)
	return declinedErr[PushNotification, pushFields](err)
}

func (r *wireReader) push(v *PushNotification) bool {
	return r.fields(pushNames, func(i int) (ok bool) {
		switch i {
		case 0:
			v.Type, ok = r.str()
		case 1:
			v.FrontendSub, ok = r.str()
		case 2:
			v.BackendSub, ok = r.str()
		case 3:
			v.LatestNS, ok = r.int64()
		default:
			v.Traceparent, ok = r.str()
		}
		return ok
	})
}

// UnmarshalJSON decodes a retrieval request frame into a zero getRequest,
// as encoding/json does.
func (g *getRequest) UnmarshalJSON(data []byte) error {
	*g = getRequest{}
	if r := (wireReader{src: string(data)}); r.getRequest(g) && r.end() {
		return nil
	}
	var f getRequestFields
	err := json.Unmarshal(data, &f)
	*g = getRequest(f)
	return declinedErr[getRequest, getRequestFields](err)
}

func (r *wireReader) getRequest(v *getRequest) bool {
	return r.fields(getRequestNames, func(i int) (ok bool) {
		switch i {
		case 0:
			v.Get, ok = r.str()
		case 1:
			v.ID, ok = r.int64()
		case 2:
			v.Ack, ok = r.int64()
		default:
			v.TP, ok = r.str()
		}
		return ok
	})
}
