package wire

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string exactly as encoding/json
// writes it: HTML-significant characters, U+2028 and U+2029 escaped,
// invalid UTF-8 replaced by U+FFFD.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\\ufffd"...)
		case c == 0x2028 || c == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendValue appends v as json.Marshal writes it — keys sorted, strings
// HTML-escaped, floats in encoding/json's format — for a value of the JSON
// data model: nil, bool, string, float64, map[string]any, []any and
// []map[string]any. It returns false, and dst unchanged, for anything else
// inside v (another Go type, NaN, ±Inf, nesting past MaxDepth); the caller
// then uses json.Marshal.
func AppendValue(dst []byte, v any) ([]byte, bool) {
	out, ok := appendValue(dst, v, 0)
	if !ok {
		return dst, false
	}
	return out, true
}

func appendValue(dst []byte, v any, depth int) ([]byte, bool) {
	switch v := v.(type) {
	case nil:
		return append(dst, "null"...), true
	case bool:
		return strconv.AppendBool(dst, v), true
	case string:
		return AppendJSONString(dst, v), true
	case float64:
		return appendFloat(dst, v)
	case map[string]any:
		return appendObject(dst, v, depth)
	case []any:
		return appendArray(dst, v, depth)
	case []map[string]any:
		return appendArray(dst, v, depth)
	}
	return dst, false
}

// appendFloat writes f as encoding/json's floatEncoder does for a float64.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

func appendObject(dst []byte, m map[string]any, depth int) ([]byte, bool) {
	if m == nil {
		return append(dst, "null"...), true
	}
	if depth++; depth > MaxDepth {
		return dst, false
	}
	var stack [16]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, k)
		dst = append(dst, ':')
		var ok bool
		if dst, ok = appendValue(dst, m[k], depth); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

func appendArray[E any](dst []byte, a []E, depth int) ([]byte, bool) {
	if a == nil {
		return append(dst, "null"...), true
	}
	if depth++; depth > MaxDepth {
		return dst, false
	}
	dst = append(dst, '[')
	for i, e := range a {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = appendValue(dst, e, depth); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

// scratch holds Marshal's buffers, so an encoding allocates only its
// result, as json.Marshal's pooled encoder does.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// Marshal is json.Marshal(v): its bytes written by AppendValue, or by
// json.Marshal itself when AppendValue declines v.
func Marshal(v any) ([]byte, error) {
	bp := scratch.Get().(*[]byte)
	b, ok := AppendValue((*bp)[:0], v)
	var out []byte
	if ok {
		out = append([]byte(nil), b...)
	}
	if cap(b) <= 64<<10 { // a rare large encoding is not kept for every later one
		*bp = b
		scratch.Put(bp)
	}
	if !ok {
		return json.Marshal(v)
	}
	return out, nil
}
