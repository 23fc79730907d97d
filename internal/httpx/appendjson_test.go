package httpx

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzAppendJSONString holds the spliced bodies' string encoder to
// json.Marshal, byte for byte.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "bsub-000001-r000001", `"\`, "<>&", "\u2028\u2029",
		"\x00\x1f\x7f", "\b\f\n\r\t", "na\u00efve \U0001f525", "\xff\xfe", "\xe2\x80", "a\xc3(b"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("AppendJSONString(%q) = %s, want %s", s, got[1:], want)
		}
	})
}
