package wsock

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzReadFrame checks the frame decoder never panics on arbitrary wire
// bytes and enforces its size limit.
func FuzzReadFrame(f *testing.F) {
	f.Add(rawFrame(true, OpText, []byte("hello")), true)
	f.Add(rawFrame(false, OpBinary, make([]byte, 200)), false)
	f.Add([]byte{0x81, 0x85, 1, 2, 3, 4, 'a', 'b', 'c', 'd', 'e'}, true)
	f.Add([]byte{0xFF, 0xFF}, false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, expectMask bool) {
		fr, err := readFrame(bufio.NewReader(bytes.NewReader(data)), expectMask, 1<<16)
		if err != nil {
			return
		}
		if int64(len(fr.payload)) > 1<<16 {
			t.Fatalf("payload %d exceeds the size limit", len(fr.payload))
		}
	})
}

// FuzzFrameRoundTrip: whatever we write, we must read back identically.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte("payload"), true, byte(1))
	f.Add([]byte{}, false, byte(2))
	f.Fuzz(func(t *testing.T, payload []byte, mask bool, opByte byte) {
		op := OpText
		if opByte%2 == 0 {
			op = OpBinary
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, op, payload, mask, [4]byte{opByte, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		fr, err := readFrame(bufio.NewReader(&buf), mask, DefaultMaxMessageSize)
		if err != nil {
			t.Fatalf("own frame failed to decode: %v", err)
		}
		if fr.op != op || !bytes.Equal(fr.payload, payload) {
			t.Fatalf("round trip mismatch: op %v->%v, %d bytes", op, fr.op, len(payload))
		}
	})
}
