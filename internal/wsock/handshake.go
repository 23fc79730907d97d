package wsock

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// rfc6455GUID is the magic GUID appended to the client key when computing
// Sec-WebSocket-Accept.
const rfc6455GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// acceptKey computes the Sec-WebSocket-Accept value for a client key.
func acceptKey(clientKey string) string {
	h := sha1.Sum([]byte(clientKey + rfc6455GUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Upgrade performs the server side of the WebSocket handshake on an
// incoming HTTP request and returns the established connection: Hijack
// followed by Accept. On failure it writes the error response itself.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	c, err := Hijack(w, r)
	if err != nil {
		return nil, err
	}
	if err := c.Accept(); err != nil {
		_ = c.nc.Close()
		return nil, err
	}
	return c, nil
}

// Hijack validates the handshake request and takes the connection over
// without answering it: no byte of the 101 response has been written when
// it returns. The response leaves ahead of the connection's first write,
// whichever that is — Accept, a message, or a close frame — so a server
// can register the connection where its messages originate first and
// answer the peer second: whatever was sent to the connection since it
// was registered is on the wire behind the 101. On failure Hijack writes
// the error response itself.
func Hijack(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if r.Method != http.MethodGet {
		http.Error(w, "websocket: method must be GET", http.StatusMethodNotAllowed)
		return nil, fmt.Errorf("%w: method %s", ErrProtocol, r.Method)
	}
	if !headerContainsToken(r.Header, "Connection", "upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		http.Error(w, "websocket: not an upgrade request", http.StatusBadRequest)
		return nil, fmt.Errorf("%w: missing upgrade headers", ErrProtocol)
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "websocket: unsupported version", http.StatusUpgradeRequired)
		return nil, fmt.Errorf("%w: version %q", ErrProtocol, r.Header.Get("Sec-WebSocket-Version"))
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "websocket: missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, fmt.Errorf("%w: missing key", ErrProtocol)
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket: server does not support hijacking", http.StatusInternalServerError)
		return nil, fmt.Errorf("wsock: response writer is not a Hijacker")
	}
	nc, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("wsock: hijack: %w", err)
	}
	c := newConn(nc, rw.Reader, false)
	c.handshake = []byte("HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n")
	return c, nil
}

// Accept answers a hijacked handshake with the 101 response, unless an
// earlier write on the connection already carried it.
func (c *Conn) Accept() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.flushHandshake(); err != nil {
		return fmt.Errorf("wsock: write handshake response: %w", err)
	}
	return nil
}

// flushHandshake writes a hijacked connection's pending 101 response
// ahead of the caller's own write. Caller holds writeMu.
func (c *Conn) flushHandshake() error {
	if c.handshake == nil {
		return nil
	}
	_, err := c.nc.Write(c.handshake)
	c.handshake = nil
	return err
}

// headerContainsToken reports whether a comma-separated header contains a
// token (case-insensitively).
func headerContainsToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// Dial establishes a client WebSocket connection to a ws:// URL.
func Dial(rawURL string, timeout time.Duration) (*Conn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("wsock: parse url: %w", err)
	}
	if u.Scheme != "ws" && u.Scheme != "http" {
		return nil, fmt.Errorf("wsock: unsupported scheme %q (only ws/http)", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	nc, err := net.DialTimeout("tcp", host, timeout)
	if err != nil {
		return nil, fmt.Errorf("wsock: dial %s: %w", host, err)
	}

	var keyBytes [16]byte
	if _, err := rand.Read(keyBytes[:]); err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("wsock: nonce: %w", err)
	}
	key := base64.StdEncoding.EncodeToString(keyBytes[:])

	path := u.RequestURI()
	if path == "" {
		path = "/"
	}
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if err := nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("wsock: set deadline: %w", err)
	}
	if _, err := nc.Write([]byte(req)); err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("wsock: write handshake: %w", err)
	}
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
	if err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("wsock: read handshake response: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		_ = nc.Close()
		return nil, fmt.Errorf("%w: HTTP %d", ErrRejected, resp.StatusCode)
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != acceptKey(key) {
		_ = nc.Close()
		return nil, fmt.Errorf("%w: bad Sec-WebSocket-Accept", ErrProtocol)
	}
	if err := nc.SetDeadline(time.Time{}); err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("wsock: clear deadline: %w", err)
	}
	return newConn(nc, br, true), nil
}
