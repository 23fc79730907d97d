// Package wsock is a minimal RFC 6455 WebSocket implementation (server
// upgrade, client dial, frame codec, ping/pong, close handshake) built only
// on the standard library. The paper's prototype pushes notifications to
// subscribers over Tornado websockets; this package is the equivalent
// substrate for the Go broker and client.
//
// The implementation supports unfragmented text and binary messages up to a
// configurable size, transparent ping/pong handling, and a graceful close
// handshake — the subset the BAD notification path needs. Extensions
// (compression, subprotocol negotiation) are intentionally not implemented.
package wsock

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcode identifies a WebSocket frame type.
type Opcode byte

// RFC 6455 opcodes.
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xA
)

// control reports whether the opcode is a control frame.
func (op Opcode) control() bool { return op >= OpClose }

// DefaultMaxMessageSize bounds accepted message payloads.
const DefaultMaxMessageSize = 16 << 20

// Errors returned by the codec and connection.
var (
	// ErrClosed is returned after the close handshake completes.
	ErrClosed = errors.New("wsock: connection closed")
	// ErrMessageTooBig is returned for frames above the size limit.
	ErrMessageTooBig = errors.New("wsock: message exceeds size limit")
	// ErrProtocol is returned on any RFC 6455 violation.
	ErrProtocol = errors.New("wsock: protocol violation")
	// ErrRejected is returned by Dial when the server answers the upgrade
	// with anything but 101: it does not speak WebSocket there.
	ErrRejected = errors.New("wsock: handshake rejected")
)

// frame is one decoded WebSocket frame.
type frame struct {
	fin     bool
	op      Opcode
	payload []byte
}

// readFrame decodes a single frame from br, unmasking if needed.
// expectMask enforces the RFC rule that client->server frames are masked
// and server->client frames are not. The header is read in place from
// br's buffer (next), so decoding it allocates nothing; the payload is
// the frame's one allocation.
func readFrame(br *bufio.Reader, expectMask bool, maxSize int64) (frame, error) {
	hdr, err := next(br, 2)
	if err != nil {
		return frame{}, err
	}
	fin := hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return frame{}, fmt.Errorf("%w: nonzero RSV bits", ErrProtocol)
	}
	op := Opcode(hdr[0] & 0x0F)
	masked := hdr[1]&0x80 != 0
	if masked != expectMask {
		return frame{}, fmt.Errorf("%w: unexpected mask bit %v", ErrProtocol, masked)
	}
	length := int64(hdr[1] & 0x7F)
	switch length {
	case 126:
		ext, err := next(br, 2)
		if err != nil {
			return frame{}, err
		}
		length = int64(binary.BigEndian.Uint16(ext))
	case 127:
		ext, err := next(br, 8)
		if err != nil {
			return frame{}, err
		}
		v := binary.BigEndian.Uint64(ext)
		if v > uint64(maxSize) {
			return frame{}, ErrMessageTooBig
		}
		length = int64(v)
	}
	if length > maxSize {
		return frame{}, ErrMessageTooBig
	}
	if op.control() && (length > 125 || !fin) {
		return frame{}, fmt.Errorf("%w: invalid control frame", ErrProtocol)
	}
	var maskKey [4]byte
	if masked {
		key, err := next(br, 4)
		if err != nil {
			return frame{}, err
		}
		copy(maskKey[:], key)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return frame{}, err
	}
	if masked {
		maskBytes(payload, maskKey)
	}
	return frame{fin: fin, op: op, payload: payload}, nil
}

// next consumes the next n header bytes of br and returns them in br's
// buffer, valid until br's next read. Its errors are io.ReadFull's: EOF
// when br had nothing, ErrUnexpectedEOF when it ended inside the n bytes.
func next(br *bufio.Reader, n int) ([]byte, error) {
	p, err := br.Peek(n)
	if err != nil {
		if err == io.EOF && len(p) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	_, _ = br.Discard(n)
	return p, nil
}

// maxHeaderSize is the largest possible frame header: 2 base bytes, 8
// extended-length bytes, 4 mask-key bytes.
const maxHeaderSize = 14

// appendHeader appends the header of an unfragmented frame to dst.
func appendHeader(dst []byte, op Opcode, length int, mask bool, maskKey [4]byte) []byte {
	b0 := 0x80 | byte(op) // FIN always set: we never fragment writes
	var b1 byte
	if mask {
		b1 = 0x80
	}
	switch {
	case length <= 125:
		dst = append(dst, b0, b1|byte(length))
	case length <= 0xFFFF:
		dst = append(dst, b0, b1|126, byte(length>>8), byte(length))
	default:
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(length))
		dst = append(dst, b0, b1|127)
		dst = append(dst, ext[:]...)
	}
	if mask {
		dst = append(dst, maskKey[:]...)
	}
	return dst
}

// appendFrame appends the complete wire form of an unfragmented frame
// (header plus payload, masked in place when mask is set) to dst, so the
// caller can push the whole frame to the socket with one Write.
func appendFrame(dst []byte, op Opcode, payload []byte, mask bool, maskKey [4]byte) []byte {
	dst = appendHeader(dst, op, len(payload), mask, maskKey)
	start := len(dst)
	dst = append(dst, payload...)
	if mask {
		maskBytes(dst[start:], maskKey)
	}
	return dst
}

// writeFrame encodes a single unfragmented frame to w, masking with the
// given key when mask is set. This is the unpooled two-write path kept for
// payloads too large to stage in a scratch buffer; small frames go through
// appendFrame and a single Write.
func writeFrame(w io.Writer, op Opcode, payload []byte, mask bool, maskKey [4]byte) error {
	var hdr [maxHeaderSize]byte
	h := appendHeader(hdr[:0], op, len(payload), mask, maskKey)
	if _, err := w.Write(h); err != nil {
		return err
	}
	if mask {
		masked := make([]byte, len(payload))
		copy(masked, payload)
		maskBytes(masked, maskKey)
		payload = masked
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// maskBytes XORs payload with the 4-byte mask key in place.
func maskBytes(payload []byte, key [4]byte) {
	for i := range payload {
		payload[i] ^= key[i&3]
	}
}

// closePayload builds a close frame payload with a status code and reason.
func closePayload(code uint16, reason string) []byte {
	if len(reason) > 123 {
		reason = reason[:123]
	}
	out := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(out[:2], code)
	copy(out[2:], reason)
	return out
}

// parseClosePayload decodes a received close frame payload. An empty
// payload (allowed by RFC 6455) yields (CloseNoStatus, "").
func parseClosePayload(p []byte) (code uint16, reason string) {
	if len(p) < 2 {
		return CloseNoStatus, ""
	}
	return binary.BigEndian.Uint16(p[:2]), string(p[2:])
}

// Close status codes (RFC 6455 §7.4.1).
const (
	// CloseNormal is the normal-closure status code.
	CloseNormal uint16 = 1000
	// CloseGoingAway signals the endpoint is going down.
	CloseGoingAway uint16 = 1001
	// CloseServiceRestart tells the client the server is restarting and it
	// should reconnect; the broker's drain path sends it with the successor
	// broker URL as the reason.
	CloseServiceRestart uint16 = 1012
	// CloseNoStatus is the synthetic code for a close frame that carried no
	// payload.
	CloseNoStatus uint16 = 1005
)
