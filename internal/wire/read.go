// Package wire is the repository's JSON codec: a cursor that reads the
// documents the system writes and writers that append them, both exact to
// encoding/json. It takes no reflection and, reading, makes one string
// copy of a document and shares it.
//
// The rule on both sides is the same: what the codec cannot take to the
// byte is declined, and the caller hands it to encoding/json. The Reader
// declines a syntax error, a type mismatch, a struct key that is repeated,
// escaped, not ASCII or matches a field only case-insensitively, an
// out-of-range number and nesting past MaxDepth; AppendValue declines any
// Go type outside the JSON data model, NaN and ±Inf. So every input gives
// the value, bytes and error text encoding/json gives (FuzzWire), and the
// system's own writers never take the fallback
// (TestWireWritersTakeDirectPath).
//
// The per-document readers and writers live beside their types, in broker
// and bdms, built on this cursor and these writers.
package wire

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxDepth bounds nesting; deeper documents are left to encoding/json.
const MaxDepth = 512

// Reader is a cursor over one document. A string it returns that needed
// no unquoting is a substring of the document; numbers are float64 in an
// any and int64 where a reader asks for one, objects in an any are
// map[string]any and arrays []any, as encoding/json makes them.
type Reader struct {
	src   string
	pos   int
	depth int
	buf   []byte // scratch for unquoting
}

// NewReader returns a Reader at the start of src.
func NewReader(src string) Reader { return Reader{src: src} }

// peek skips whitespace and returns the next byte, 0 at the end.
func (r *Reader) peek() byte {
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
func (r *Reader) eat(c byte) bool {
	if r.peek() != c {
		return false
	}
	r.pos++
	return true
}

// End reports whether only whitespace is left.
func (r *Reader) End() bool {
	r.peek()
	return r.pos == len(r.src)
}

// literal consumes the word w (true, false or null).
func (r *Reader) literal(w string) bool {
	if !strings.HasPrefix(r.src[r.pos:], w) {
		return false
	}
	r.pos += len(w)
	return true
}

// number consumes a number in JSON's grammar and returns its text.
func (r *Reader) number() (string, bool) {
	r.peek()
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

// Int64 consumes a number that is an int64, as encoding/json reads one
// into an int64 (or time.Duration) field.
func (r *Reader) Int64() (int64, bool) {
	n, ok := r.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(n, 10, 64)
	return v, err == nil
}

// Bool consumes true or false.
func (r *Reader) Bool() (bool, bool) {
	switch r.peek() {
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
func (r *Reader) rawString() (raw string, plain, ok bool) {
	if r.peek() != '"' {
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

// Str consumes a string and returns its value.
func (r *Reader) Str() (string, bool) {
	raw, plain, ok := r.rawString()
	if !ok || plain {
		return raw, ok
	}
	return r.unquote(raw), true
}

// unquote is the value of the string whose validated text between quotes
// is q, with encoding/json's replacements: U+FFFD for a byte of invalid
// UTF-8 and for a \u surrogate that does not begin a valid pair.
func (r *Reader) unquote(q string) string {
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

// Value consumes any value and returns it as encoding/json decodes it
// into an any.
func (r *Reader) Value() (any, bool) { return r.value(true) }

// Raw consumes any value and returns its text, as encoding/json hands it
// to a json.RawMessage: validated, not range-checked.
func (r *Reader) Raw() (string, bool) {
	r.peek()
	start := r.pos
	if _, ok := r.value(false); !ok {
		return "", false
	}
	return r.src[start:r.pos], true
}

// Map consumes an object, or null (a nil map), as encoding/json decodes
// either into a map[string]any.
func (r *Reader) Map() (map[string]any, bool) {
	if r.peek() != '{' {
		return nil, r.literal("null")
	}
	v, ok := r.value(true)
	m, _ := v.(map[string]any)
	return m, ok
}

// value consumes any value and, if keep, returns it. A skipped value is
// only validated: encoding/json neither builds nor range-checks a value no
// field takes.
func (r *Reader) value(keep bool) (any, bool) {
	switch c := r.peek(); c {
	case '{', '[':
		if !r.enter() {
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
		return r.Str()
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

// enter counts a level of nesting, false past MaxDepth.
func (r *Reader) enter() bool {
	r.depth++
	return r.depth <= MaxDepth
}

// object consumes an object, the reader at its '{'; kept, it is a
// map[string]any in which a repeated key's last value wins.
func (r *Reader) object(keep bool) (any, bool) {
	r.pos++
	var m map[string]any
	if keep {
		m = make(map[string]any)
	}
	if r.eat('}') {
		return m, true
	}
	for {
		k, ok := r.Str()
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
func (r *Reader) array(keep bool) (any, bool) {
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

// Fields consumes an object decoded into a struct whose JSON names are
// names (at most 64), calling field(i) to consume the value of names[i]
// and skipping the value of any other key. It declines what encoding/json
// resolves by rules this reader does not copy: a repeated name (merged
// into the first value), a key that is escaped or not ASCII, or one that
// matches a name only case-insensitively.
func (r *Reader) Fields(names []string, field func(i int) bool) bool {
	if r.peek() != '{' || !r.enter() {
		return false
	}
	r.pos++
	ok := r.fields(names, field)
	r.depth--
	return ok
}

func (r *Reader) fields(names []string, field func(i int) bool) bool {
	if r.eat('}') {
		return true
	}
	var seen uint64
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

// List consumes null, leaving *s nil, or an array, into a non-nil *s,
// whose elements elem consumes.
func List[T any](r *Reader, s *[]T, elem func() (T, bool)) bool {
	if r.peek() != '[' {
		return r.literal("null")
	}
	if !r.enter() {
		return false
	}
	r.pos++
	ok := list(r, s, elem)
	r.depth--
	return ok
}

func list[T any](r *Reader, s *[]T, elem func() (T, bool)) bool {
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

// RenameTypeError is err from encoding/json decoding a declined document
// into A, a method-less copy of T, as encoding/json reports it for T: a
// *json.UnmarshalTypeError names T where it named A.
func RenameTypeError[T, A any](err error) error {
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
