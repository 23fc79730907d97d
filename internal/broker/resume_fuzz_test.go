package broker

import (
	"strings"
	"testing"
	"time"
)

// FuzzParseResumeToken drives the resume-token codec with arbitrary
// input. Properties: no panic, only the checksummed rt1- form is accepted
// (a bare decimal is rejected), accepted tokens are never negative, any
// accepted value survives a Format/Parse round trip unchanged — a broker
// handing its marker to a client must get the same marker back on failover
// resubscribe — and flipping a checksum digit of an accepted token makes
// it rejected.
func FuzzParseResumeToken(f *testing.F) {
	seeds := []string{
		"",
		"0",                             // bare decimal: rejected
		"123456789",                     // bare decimal: rejected
		"9223372036854775807",           // max int64
		"9223372036854775808",           // overflows int64
		"-1",                            // negative value
		"+42",                           // signed decimal
		"1_000",                         // underscores
		"rt1-0-620a68e2",                // v1 shape, wrong checksum for ns=0
		"rt1-3b9aca00-0",                // checksum too short
		"rt1-3b9aca00-00000000",         // checksum mismatch
		"rt1--00000000",                 // empty timestamp
		"rt1-zz-00000000",               // non-hex timestamp
		"rt1-ffffffffffffffff-00000000", // timestamp overflows int64
		"rt2-0-00000000",                // unknown version
		FormatResumeToken(0),
		FormatResumeToken(time.Second),
		FormatResumeToken(time.Duration(1 << 62)),
		strings.Repeat("9", 64),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ts, err := ParseResumeToken(s)
		if err != nil {
			return
		}
		if !strings.HasPrefix(strings.TrimSpace(s), resumeTokenPrefix) {
			t.Fatalf("ParseResumeToken(%q) accepted a token without the %s prefix", s, resumeTokenPrefix)
		}
		if ts < 0 {
			t.Fatalf("ParseResumeToken(%q) accepted negative timestamp %d", s, ts)
		}
		tok := FormatResumeToken(ts)
		back, err := ParseResumeToken(tok)
		if err != nil {
			t.Fatalf("round trip: ParseResumeToken(FormatResumeToken(%d)) = error %v (token %q from input %q)", ts, err, tok, s)
		}
		if back != ts {
			t.Fatalf("round trip: %q -> %d -> %q -> %d", s, ts, tok, back)
		}
		last := tok[len(tok)-1]
		flipped := tok[:len(tok)-1] + string("0123456789abcdef"[(strings.IndexByte("0123456789abcdef", last)+1)%16])
		if _, err := ParseResumeToken(flipped); err == nil {
			t.Fatalf("checksum flip %q of %q still accepted", flipped, tok)
		}
	})
}
