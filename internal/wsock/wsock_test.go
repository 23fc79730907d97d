package wsock

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAcceptKeyRFCExample(t *testing.T) {
	// The worked example from RFC 6455 section 1.3.
	got := acceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Errorf("acceptKey = %q, want %q", got, want)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		[]byte("x"),
		[]byte(strings.Repeat("a", 125)),
		[]byte(strings.Repeat("b", 126)),   // 16-bit length
		[]byte(strings.Repeat("c", 70000)), // 64-bit length
	}
	for _, masked := range []bool{true, false} {
		for _, p := range payloads {
			var buf bytes.Buffer
			key := [4]byte{1, 2, 3, 4}
			if err := writeFrame(&buf, OpText, p, masked, key); err != nil {
				t.Fatal(err)
			}
			f, err := readFrame(bufio.NewReader(&buf), masked, DefaultMaxMessageSize)
			if err != nil {
				t.Fatalf("readFrame(len=%d, masked=%v): %v", len(p), masked, err)
			}
			if f.op != OpText || !f.fin {
				t.Errorf("frame = %+v", f)
			}
			if !bytes.Equal(f.payload, p) {
				t.Errorf("payload mismatch for len=%d masked=%v", len(p), masked)
			}
		}
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(payload []byte, key [4]byte, masked bool) bool {
		var buf bytes.Buffer
		if err := writeFrame(&buf, OpBinary, payload, masked, key); err != nil {
			return false
		}
		fr, err := readFrame(bufio.NewReader(&buf), masked, DefaultMaxMessageSize)
		if err != nil {
			return false
		}
		return bytes.Equal(fr.payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadFrameMaskMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, OpText, []byte("hi"), false, [4]byte{}); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(bufio.NewReader(&buf), true, DefaultMaxMessageSize); !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
}

func TestReadFrameTooBig(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, OpBinary, make([]byte, 1000), false, [4]byte{}); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(bufio.NewReader(&buf), false, 100); !errors.Is(err, ErrMessageTooBig) {
		t.Errorf("err = %v, want ErrMessageTooBig", err)
	}
}

func TestMaskBytesInvolution(t *testing.T) {
	f := func(data []byte, key [4]byte) bool {
		orig := append([]byte(nil), data...)
		maskBytes(data, key)
		maskBytes(data, key)
		return bytes.Equal(data, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// startEchoServer runs a WebSocket echo server and returns its URL.
func startEchoServer(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			op, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if err := conn.WriteMessage(op, msg); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestEndToEndEcho(t *testing.T) {
	url := startEchoServer(t)
	conn, err := Dial(url, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	msgs := []string{"hello", "", strings.Repeat("big", 50000)}
	for _, m := range msgs {
		if err := conn.WriteMessage(OpText, []byte(m)); err != nil {
			t.Fatal(err)
		}
		op, got, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if op != OpText || string(got) != m {
			t.Errorf("echo of %d bytes came back wrong", len(m))
		}
	}
}

func TestEndToEndBinary(t *testing.T) {
	url := startEchoServer(t)
	conn, err := Dial(url, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte{0, 1, 2, 255, 254}
	if err := conn.WriteMessage(OpBinary, payload); err != nil {
		t.Fatal(err)
	}
	op, got, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpBinary || !bytes.Equal(got, payload) {
		t.Error("binary echo mismatch")
	}
}

func TestPingPong(t *testing.T) {
	url := startEchoServer(t)
	conn, err := Dial(url, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Ping then a text message; the pong is consumed transparently and
	// the text echo arrives.
	if err := conn.Ping([]byte("keepalive")); err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(OpText, []byte("after-ping")); err != nil {
		t.Fatal(err)
	}
	_, got, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "after-ping" {
		t.Errorf("got %q", got)
	}
}

func TestCloseHandshake(t *testing.T) {
	closed := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		_, _, err = conn.ReadMessage()
		closed <- err
	}))
	defer srv.Close()
	conn, err := Dial(srv.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-closed:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("server read err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never observed close")
	}
	// Writes after close fail.
	if err := conn.WriteMessage(OpText, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close = %v, want ErrClosed", err)
	}
	// Double close is fine.
	if err := conn.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	url := startEchoServer(t)
	conn, err := Dial(url, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const writers, per = 4, 25
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if err := conn.WriteMessage(OpText, []byte("m")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	received := 0
	for received < writers*per {
		_, _, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		received++
	}
	wg.Wait()
}

func TestUpgradeRejectsPlainRequests(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err == nil {
			t.Error("plain GET should not upgrade")
		}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestUpgradeRejectsWrongVersion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = Upgrade(w, r)
	}))
	defer srv.Close()
	req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Sec-WebSocket-Version", "8")
	req.Header.Set("Sec-WebSocket-Key", "AAAAAAAAAAAAAAAAAAAAAA==")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Errorf("status = %d, want 426", resp.StatusCode)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("://bad", time.Second); err == nil {
		t.Error("bad URL should fail")
	}
	if _, err := Dial("wss://example.com", time.Second); err == nil {
		t.Error("wss (TLS) is unsupported and should fail")
	}
	if _, err := Dial("ws://127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Error("unreachable host should fail")
	}
	// An HTTP server that does not upgrade.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	if _, err := Dial(srv.URL, time.Second); err == nil {
		t.Error("non-upgrading server should fail the handshake")
	}
}

func TestHeaderContainsToken(t *testing.T) {
	h := http.Header{}
	h.Add("Connection", "keep-alive, Upgrade")
	if !headerContainsToken(h, "Connection", "upgrade") {
		t.Error("token in comma list should match case-insensitively")
	}
	if headerContainsToken(h, "Connection", "websocket") {
		t.Error("absent token should not match")
	}
}

func TestUpgradeNonHijackableWriter(t *testing.T) {
	// httptest.ResponseRecorder does not implement http.Hijacker.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/ws", nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Sec-WebSocket-Version", "13")
	req.Header.Set("Sec-WebSocket-Key", "AAAAAAAAAAAAAAAAAAAAAA==")
	if _, err := Upgrade(rec, req); err == nil {
		t.Error("non-hijackable writer should fail the upgrade")
	}
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
}

func TestUpgradeMissingKey(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/ws", nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Sec-WebSocket-Version", "13")
	if _, err := Upgrade(rec, req); err == nil {
		t.Error("missing key should fail")
	}
}

func TestUpgradeWrongMethod(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/ws", nil)
	if _, err := Upgrade(rec, req); err == nil {
		t.Error("POST should fail the upgrade")
	}
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("status = %d, want 405", rec.Code)
	}
}

func TestConnRemoteAddrAndMaxSize(t *testing.T) {
	url := startEchoServer(t)
	conn, err := Dial(url, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.RemoteAddr() == nil {
		t.Error("RemoteAddr should be set")
	}
	conn.SetMaxMessageSize(8)
	if err := conn.WriteMessage(OpText, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.ReadMessage(); !errors.Is(err, ErrMessageTooBig) {
		t.Errorf("err = %v, want ErrMessageTooBig", err)
	}
}

func TestWriteMessageRejectsControlOpcodes(t *testing.T) {
	url := startEchoServer(t)
	conn, err := Dial(url, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMessage(OpPing, nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("WriteMessage(OpPing) = %v, want ErrProtocol", err)
	}
}

// TestHijackAnswersWithTheFirstWrite: a hijacked connection has sent
// nothing; the 101 leaves ahead of whatever is written first — a message
// from a writer that was handed the connection before the handler accepted
// it, or a close frame — exactly once, and Accept after that is a no-op.
func TestHijackAnswersWithTheFirstWrite(t *testing.T) {
	firsts := map[string]func(c *Conn) error{
		"message": func(c *Conn) error { return c.WriteMessage(OpText, []byte("owed since registration")) },
		"prepared": func(c *Conn) error {
			pm, err := NewPreparedMessage(OpText, []byte("owed since registration"))
			if err != nil {
				return err
			}
			return c.WritePreparedMessage(pm)
		},
		"close": func(c *Conn) error { return c.CloseWith(CloseServiceRestart, "http://successor") },
	}
	for name, first := range firsts {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				conn, err := Hijack(w, r)
				if err != nil {
					return
				}
				defer conn.Close()
				if err := first(conn); err != nil {
					t.Errorf("first write: %v", err)
				}
				if err := conn.Accept(); err != nil {
					t.Errorf("Accept after the first write: %v", err)
				}
				_ = conn.WriteMessage(OpText, []byte("second"))
			}))
			defer srv.Close()
			conn, err := Dial(srv.URL, 5*time.Second)
			if err != nil {
				t.Fatalf("handshake not answered by the first write: %v", err)
			}
			defer conn.Close()
			if name == "close" {
				if _, _, err := conn.ReadMessage(); !errors.Is(err, ErrClosed) {
					t.Fatalf("read = %v, want ErrClosed", err)
				}
				if code, reason := conn.CloseStatus(); code != CloseServiceRestart || reason != "http://successor" {
					t.Errorf("close = (%d, %q), want the migrate frame", code, reason)
				}
				return
			}
			for _, want := range []string{"owed since registration", "second"} {
				_, msg, err := conn.ReadMessage()
				if err != nil || string(msg) != want {
					t.Fatalf("read %q, %v; want %q (a second 101 would corrupt the stream)", msg, err, want)
				}
			}
		})
	}
}
