package broker

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"
)

// Resume tokens travel from broker to client (SubscribeResponse.LatestNS,
// push notification markers) and back on failover resubscribe. The string
// form is self-describing and checksummed, so a truncated or corrupted
// token is rejected at the edge instead of silently resuming from a garbage
// offset and replaying (or skipping) history.
//
//	rt1-<hex ns>-<8 hex fnv32a checksum>

// resumeTokenPrefix tags the checksummed v1 token form.
const resumeTokenPrefix = "rt1-"

// FormatResumeToken renders an acknowledged-marker timestamp as a v1
// resume token. Negative timestamps clamp to zero (the epoch marker).
func FormatResumeToken(ts time.Duration) string {
	if ts < 0 {
		ts = 0
	}
	ns := uint64(ts)
	return fmt.Sprintf("%s%x-%08x", resumeTokenPrefix, ns, resumeChecksum(ns))
}

// ParseResumeToken decodes a resume token into the acknowledged-marker
// timestamp it carries. Errors mean the token is
// malformed or fails its checksum; callers should reject the resume
// request rather than guess.
func ParseResumeToken(s string) (time.Duration, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("resume token: empty")
	}
	rest, tagged := strings.CutPrefix(s, resumeTokenPrefix)
	nsHex, sumHex, split := strings.Cut(rest, "-")
	if !tagged || !split {
		return 0, fmt.Errorf("resume token: malformed (want %s<hex ns>-<hex sum>)", resumeTokenPrefix)
	}
	// 63 bits keeps the value representable as a non-negative int64
	// nanosecond timestamp.
	ns, err := strconv.ParseUint(nsHex, 16, 63)
	if err != nil {
		return 0, fmt.Errorf("resume token: bad timestamp %q: %v", nsHex, err)
	}
	if len(sumHex) != 8 {
		return 0, fmt.Errorf("resume token: checksum must be 8 hex digits, got %q", sumHex)
	}
	sum, err := strconv.ParseUint(sumHex, 16, 32)
	if err != nil {
		return 0, fmt.Errorf("resume token: bad checksum %q: %v", sumHex, err)
	}
	if uint32(sum) != resumeChecksum(ns) {
		return 0, fmt.Errorf("resume token: checksum mismatch (token corrupted or truncated)")
	}
	return time.Duration(ns), nil
}

// resumeChecksum is FNV-1a over the big-endian timestamp — cheap
// corruption detection, not authentication.
func resumeChecksum(ns uint64) uint32 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], ns)
	h := fnv.New32a()
	h.Write(b[:])
	return h.Sum32()
}
