package wsock

import (
	"bufio"
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"time"
)

// Conn is an established WebSocket connection. Reads must happen from a
// single goroutine; writes are internally serialized and may come from any
// goroutine.
type Conn struct {
	nc     net.Conn
	br     *bufio.Reader
	client bool // client connections mask outgoing frames

	writeMu sync.Mutex
	// handshake is a hijacked connection's unsent 101 response (nil once
	// written, and on every other connection); see Hijack. Guarded by
	// writeMu.
	handshake []byte
	closeMu   sync.Mutex
	closed    bool
	// peerCode/peerReason hold the status of a close frame received from
	// the peer (0/"" until one arrives). The broker's graceful drain uses
	// the reason to carry the successor broker URL, so clients read it
	// after ReadMessage returns ErrClosed.
	peerCode   uint16
	peerReason string

	maxMessageSize int64

	// partial fragmented-message state
	fragOp  Opcode
	fragBuf []byte
}

func newConn(nc net.Conn, br *bufio.Reader, client bool) *Conn {
	if br == nil {
		br = bufio.NewReader(nc)
	}
	return &Conn{nc: nc, br: br, client: client, maxMessageSize: DefaultMaxMessageSize}
}

// NewConn wraps an already-established transport (an in-process pipe, or a
// connection whose HTTP upgrade happened elsewhere) as a WebSocket
// connection. client selects the client role: outgoing frames masked,
// incoming frames expected unmasked.
func NewConn(nc net.Conn, client bool) *Conn { return newConn(nc, nil, client) }

// SetMaxMessageSize bounds accepted message payloads (bytes).
func (c *Conn) SetMaxMessageSize(n int64) {
	if n > 0 {
		c.maxMessageSize = n
	}
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// SetReadDeadline bounds the next read.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// SetWriteDeadline bounds subsequent writes. The broker's pooled push
// writers use it so one stalled subscriber socket cannot pin a shared
// writer indefinitely: a write that outlives the deadline fails and the
// session is dropped (the client reconnects and catches up via
// GetResults).
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// ReadMessage returns the next complete text or binary message. Control
// frames are handled transparently: pings are answered with pongs, pongs
// are skipped, and a close frame completes the close handshake and returns
// ErrClosed.
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	for {
		f, err := readFrame(c.br, !c.client, c.maxMessageSize)
		if err != nil {
			return 0, nil, err
		}
		switch f.op {
		case OpPing:
			if err := c.writeControl(OpPong, f.payload); err != nil {
				return 0, nil, err
			}
		case OpPong:
			// keep-alive response; nothing to do
		case OpClose:
			code, reason := parseClosePayload(f.payload)
			c.closeMu.Lock()
			alreadyClosed := c.closed
			c.closed = true
			if c.peerCode == 0 {
				c.peerCode, c.peerReason = code, reason
			}
			c.closeMu.Unlock()
			if !alreadyClosed {
				// Echo the close and tear down.
				_ = c.writeControl(OpClose, f.payload)
			}
			_ = c.nc.Close()
			return 0, nil, ErrClosed
		case OpText, OpBinary:
			if !f.fin {
				if c.fragBuf != nil {
					return 0, nil, fmt.Errorf("%w: nested fragmentation", ErrProtocol)
				}
				c.fragOp = f.op
				c.fragBuf = append([]byte(nil), f.payload...)
				continue
			}
			return f.op, f.payload, nil
		case OpContinuation:
			if c.fragBuf == nil {
				return 0, nil, fmt.Errorf("%w: continuation without start", ErrProtocol)
			}
			if int64(len(c.fragBuf)+len(f.payload)) > c.maxMessageSize {
				return 0, nil, ErrMessageTooBig
			}
			c.fragBuf = append(c.fragBuf, f.payload...)
			if f.fin {
				op, buf := c.fragOp, c.fragBuf
				c.fragBuf = nil
				return op, buf, nil
			}
		default:
			return 0, nil, fmt.Errorf("%w: unknown opcode %#x", ErrProtocol, byte(f.op))
		}
	}
}

// WriteMessage sends an unfragmented text or binary message.
func (c *Conn) WriteMessage(op Opcode, payload []byte) error {
	if op != OpText && op != OpBinary {
		return fmt.Errorf("%w: WriteMessage needs text or binary opcode", ErrProtocol)
	}
	return c.write(op, payload)
}

// Ping sends a ping control frame.
func (c *Conn) Ping(payload []byte) error { return c.writeControl(OpPing, payload) }

func (c *Conn) write(op Opcode, payload []byte) error {
	c.closeMu.Lock()
	if c.closed {
		c.closeMu.Unlock()
		return ErrClosed
	}
	c.closeMu.Unlock()
	return c.writeLocked(op, payload)
}

func (c *Conn) writeControl(op Opcode, payload []byte) error {
	return c.writeLocked(op, payload)
}

// writeLocked serializes the frame write. Frames small enough to pool are
// assembled (header + payload, masked in place for clients) into one
// recycled scratch buffer and pushed with a single Write — the notification
// hot path does no per-send allocation and one syscall; oversized frames
// fall back to the two-write path.
func (c *Conn) writeLocked(op Opcode, payload []byte) error {
	var key [4]byte
	if c.client {
		if _, err := rand.Read(key[:]); err != nil {
			return fmt.Errorf("wsock: mask key: %w", err)
		}
	}
	if len(payload) > maxPooledFrame {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
		if err := c.flushHandshake(); err != nil {
			return err
		}
		return writeFrame(c.nc, op, payload, c.client, key)
	}
	bp := frameBufPool.Get().(*[]byte)
	buf := appendFrame((*bp)[:0], op, payload, c.client, key)
	c.writeMu.Lock()
	err := c.flushHandshake()
	if err == nil {
		_, err = c.nc.Write(buf)
	}
	c.writeMu.Unlock()
	*bp = buf[:0]
	frameBufPool.Put(bp)
	return err
}

// closeWriteTimeout bounds the best-effort close-frame write so closing a
// connection with a stalled peer cannot hang.
const closeWriteTimeout = 250 * time.Millisecond

// Close performs the closing handshake (best effort) and closes the
// underlying connection. It is safe to call multiple times and concurrently
// with reads and writes: a write in flight is bounded by closeWriteTimeout,
// so a goroutine blocked mid-write on a stalled peer fails by then and the
// connection is torn down without the close frame such a peer would not
// have read; any other peer gets the frame.
func (c *Conn) Close() error { return c.CloseWith(CloseNormal, "") }

// CloseWith is Close with an explicit status code and reason in the close
// frame. The broker's graceful drain sends (CloseServiceRestart,
// successorURL) so clients fail over to the named broker without
// consulting the BCS.
func (c *Conn) CloseWith(code uint16, reason string) error {
	c.closeMu.Lock()
	if c.closed {
		c.closeMu.Unlock()
		return nil
	}
	c.closed = true
	c.closeMu.Unlock()
	// The deadline bounds a write already blocked as well as ours, so the
	// lock is ours within the timeout.
	_ = c.nc.SetWriteDeadline(time.Now().Add(closeWriteTimeout))
	c.writeMu.Lock()
	_ = c.flushHandshake()
	var key [4]byte
	if c.client {
		_, _ = rand.Read(key[:])
	}
	_ = writeFrame(c.nc, OpClose, closePayload(code, reason), c.client, key)
	c.writeMu.Unlock()
	return c.nc.Close()
}

// CloseStatus returns the status code and reason of the close frame the
// peer sent, or (0, "") when the connection ended without one (process
// kill, network drop). Valid once ReadMessage has returned ErrClosed.
func (c *Conn) CloseStatus() (code uint16, reason string) {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	return c.peerCode, c.peerReason
}
