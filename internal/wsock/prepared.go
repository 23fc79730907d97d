package wsock

import (
	"fmt"
	"sync"
)

// PreparedMessage is a text or binary message pre-encoded into its final
// server-to-client wire form: frame header and payload assembled into one
// contiguous buffer at construction time. Broadcasting one event to many
// connections then costs a single buffered Write per connection — no
// per-send encoding, masking, or allocation — which is what the broker's
// notification fan-out needs when thousands of subscribers share one
// backend subscription.
//
// A PreparedMessage is immutable after construction and safe to write from
// any number of goroutines concurrently, interleaved with regular
// WriteMessage calls on the same connections.
type PreparedMessage struct {
	op      Opcode
	payload []byte // private copy; masked fallback for client connections
	frame   []byte // unmasked wire form: header + payload
}

// NewPreparedMessage encodes an unfragmented text or binary message into
// its unmasked wire form. The payload is copied, so the caller may reuse
// its buffer.
func NewPreparedMessage(op Opcode, payload []byte) (*PreparedMessage, error) {
	pm := &PreparedMessage{}
	if err := pm.Encode(op, payload); err != nil {
		return nil, err
	}
	return pm, nil
}

// Encode encodes a message into pm in place, reusing whatever payload and
// frame buffers pm already holds; it is how an embedded (zero-value)
// PreparedMessage is filled. Re-encoding a PreparedMessage that writers
// may still see is a data race: once shared it is immutable.
func (pm *PreparedMessage) Encode(op Opcode, payload []byte) error {
	if op != OpText && op != OpBinary {
		return fmt.Errorf("%w: prepared messages need text or binary opcode", ErrProtocol)
	}
	pm.op = op
	pm.payload = append(pm.payload[:0], payload...)
	pm.frame = appendFrame(pm.frame[:0], op, pm.payload, false, [4]byte{})
	return nil
}

// Opcode returns the message's opcode.
func (pm *PreparedMessage) Opcode() Opcode { return pm.op }

// Payload returns the message payload. The returned slice must not be
// mutated.
func (pm *PreparedMessage) Payload() []byte { return pm.payload }

// WritePreparedMessage sends a pre-encoded message with one buffer write.
// Server connections write the shared frame bytes directly; client
// connections fall back to a regular masked write (RFC 6455 requires a
// fresh mask key per frame, so the prepared form cannot be shared there).
func (c *Conn) WritePreparedMessage(pm *PreparedMessage) error {
	if c.client {
		return c.write(pm.op, pm.payload)
	}
	c.closeMu.Lock()
	if c.closed {
		c.closeMu.Unlock()
		return ErrClosed
	}
	c.closeMu.Unlock()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.flushHandshake(); err != nil {
		return err
	}
	_, err := c.nc.Write(pm.frame)
	return err
}

// frameBufPool recycles frame-assembly scratch buffers so the steady-state
// write path allocates nothing: header and payload are copied into one
// pooled buffer and written with a single Write call.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledFrame bounds the buffers the pool retains; one-off giant
// messages fall through to the unpooled two-write path rather than pinning
// megabytes in the pool.
const maxPooledFrame = 64 << 10
