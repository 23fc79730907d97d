package httpx

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func TestWriteAndReadJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in map[string]any
		if err := ReadJSON(r, &in); err != nil {
			WriteError(w, http.StatusBadRequest, "bad: %v", err)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"echo": in["x"]})
	}))
	defer srv.Close()

	var out map[string]any
	if err := DoJSON(srv.Client(), http.MethodPost, srv.URL, map[string]any{"x": 7.0}, &out); err != nil {
		t.Fatal(err)
	}
	if out["echo"] != 7.0 {
		t.Errorf("echo = %v", out["echo"])
	}
}

func TestDoJSONErrorPayload(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteError(w, http.StatusConflict, "thing %s exists", "X")
	}))
	defer srv.Close()
	err := DoJSON(srv.Client(), http.MethodGet, srv.URL, nil, nil)
	if err == nil {
		t.Fatal("non-2xx should error")
	}
	if !strings.Contains(err.Error(), "thing X exists") {
		t.Errorf("error should carry server payload: %v", err)
	}
	if !strings.Contains(err.Error(), "409") {
		t.Errorf("error should carry the status: %v", err)
	}
}

func TestDoJSONNonJSONError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "plain text failure", http.StatusInternalServerError)
	}))
	defer srv.Close()
	err := DoJSON(srv.Client(), http.MethodGet, srv.URL, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "HTTP 500") {
		t.Errorf("err = %v", err)
	}
}

func TestDoJSONDecodesResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]int{"n": 3})
	}))
	defer srv.Close()
	// out == nil discards the body.
	if err := DoJSON(srv.Client(), http.MethodGet, srv.URL, nil, nil); err != nil {
		t.Fatal(err)
	}
	// bad target type fails decode.
	var wrong []string
	if err := DoJSON(srv.Client(), http.MethodGet, srv.URL, nil, &wrong); err == nil {
		t.Error("mismatched decode target should fail")
	}
}

func TestDoJSONBadURL(t *testing.T) {
	if err := DoJSON(http.DefaultClient, "GET", "http://127.0.0.1:1/x", nil, nil); err == nil {
		t.Error("unreachable host should fail")
	}
	if err := DoJSON(http.DefaultClient, "bad method", "http://x", nil, nil); err == nil {
		t.Error("bad method should fail")
	}
}

func TestDoJSONUnencodableBody(t *testing.T) {
	if err := DoJSON(http.DefaultClient, http.MethodPost, "http://x", func() {}, nil); err == nil {
		t.Error("unencodable body should fail before sending")
	}
}

func TestReadJSONBadBody(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader("{broken"))
	var v map[string]any
	if err := ReadJSON(req, &v); err == nil {
		t.Error("broken JSON should fail")
	}
}

func TestWriteErrorEnvelopeShape(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusNotFound, "no such %s", "thing")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body is not the envelope: %v (%q)", err, rec.Body.String())
	}
	if env.Error.Code != CodeNotFound {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeNotFound)
	}
	if env.Error.Message != "no such thing" {
		t.Errorf("message = %q", env.Error.Message)
	}
	if env.Error.Retryable {
		t.Error("404 must not be retryable")
	}
}

func TestWriteErrorRetryableStatuses(t *testing.T) {
	for status, want := range map[int]bool{
		http.StatusTooManyRequests:     true,
		http.StatusBadGateway:          true,
		http.StatusServiceUnavailable:  true,
		http.StatusGatewayTimeout:      true,
		http.StatusBadRequest:          false,
		http.StatusInternalServerError: false,
	} {
		rec := httptest.NewRecorder()
		WriteError(rec, status, "x")
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("status %d: %v", status, err)
		}
		if env.Error.Retryable != want {
			t.Errorf("status %d: retryable = %v, want %v", status, env.Error.Retryable, want)
		}
	}
}

func TestWriteErrorCodeExplicit(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteErrorCode(rec, http.StatusBadRequest, CodeConflict, "taken")
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeConflict {
		t.Errorf("code = %q, want explicit %q", env.Error.Code, CodeConflict)
	}
}

func TestDoJSONStatusError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteError(w, http.StatusServiceUnavailable, "backend down")
	}))
	defer srv.Close()
	err := DoJSON(srv.Client(), http.MethodGet, srv.URL, nil, nil)
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a StatusError: %v", err)
	}
	if se.Status != http.StatusServiceUnavailable || se.Code != CodeUnavailable ||
		se.Message != "backend down" || !se.Retryable {
		t.Errorf("StatusError = %+v", se)
	}
}

// TestDoJSONLegacyErrorBody: a pre-v1 {"error": "msg"} body is no longer
// decoded; it yields a StatusError with the status-derived code only.
func TestDoJSONLegacyErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusNotFound, map[string]string{"error": "old shape"})
	}))
	defer srv.Close()
	err := DoJSON(srv.Client(), http.MethodGet, srv.URL, nil, nil)
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a StatusError: %v", err)
	}
	if se.Status != http.StatusNotFound || se.Code != CodeNotFound || se.Message != "" {
		t.Errorf("non-envelope body: %+v", se)
	}
}

func TestCodeForStatusDefaults(t *testing.T) {
	if got := CodeForStatus(http.StatusInternalServerError); got != CodeInternal {
		t.Errorf("500 -> %q", got)
	}
	if got := CodeForStatus(http.StatusTeapot); got != CodeBadRequest {
		t.Errorf("418 -> %q", got)
	}
}

// jsonOfSize is a JSON document of exactly n bytes: {"x":"aaa…"}.
func jsonOfSize(n int) []byte {
	b := []byte(`{"x":"`)
	b = append(b, strings.Repeat("a", n-len(b)-2)...)
	return append(b, `"}`...)
}

// TestBodyOverLimitIsTyped: a body of MaxBodyBytes+1 fails with a
// *TooLargeError naming the bound and the URL — on a response, whether or
// not its length was declared, and on a request, which WriteReadError
// answers 413 — while a body of exactly MaxBodyBytes still decodes.
func TestBodyOverLimitIsTyped(t *testing.T) {
	for _, tc := range []struct {
		name    string
		size    int
		chunked bool
		fits    bool
	}{
		{"at the limit, declared", MaxBodyBytes, false, true},
		{"over the limit, declared", MaxBodyBytes + 1, false, false},
		{"over the limit, chunked", MaxBodyBytes + 1, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := jsonOfSize(tc.size)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				if !tc.chunked {
					w.Header().Set("Content-Length", strconv.Itoa(len(body)))
				}
				_, _ = w.Write(body)
			}))
			defer srv.Close()
			var out map[string]string
			err := DoJSON(srv.Client(), http.MethodGet, srv.URL+"/v1/deep", nil, &out)
			checkTooLarge(t, err, tc.fits, srv.URL+"/v1/deep")
			if tc.fits && len(out["x"]) != tc.size-8 {
				t.Errorf("decoded %d bytes of x, want %d", len(out["x"]), tc.size-8)
			}

			req := httptest.NewRequest(http.MethodPost, "/v1/subscriptions", bytes.NewReader(body))
			err = ReadJSON(req, &out)
			checkTooLarge(t, err, tc.fits, "/v1/subscriptions")
			if !tc.fits {
				rec := httptest.NewRecorder()
				WriteReadError(rec, err)
				if rec.Code != http.StatusRequestEntityTooLarge {
					t.Errorf("WriteReadError answered %d, want 413", rec.Code)
				}
			}
		})
	}
	rec := httptest.NewRecorder()
	WriteReadError(rec, ReadJSON(httptest.NewRequest(http.MethodPost, "/", strings.NewReader("{broken")), new(any)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("broken JSON answered %d, want 400", rec.Code)
	}
}

func checkTooLarge(t *testing.T, err error, fits bool, url string) {
	t.Helper()
	if fits {
		if err != nil {
			t.Errorf("body at the limit: %v", err)
		}
		return
	}
	var tooLarge *TooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("err = %v, want a *TooLargeError", err)
	}
	if tooLarge.Limit != MaxBodyBytes || tooLarge.URL != url {
		t.Errorf("TooLargeError = %+v, want limit %d and URL %s", tooLarge, MaxBodyBytes, url)
	}
	if msg := err.Error(); !strings.Contains(msg, "16777216") || !strings.Contains(msg, url) {
		t.Errorf("message %q names neither the limit nor the URL", msg)
	}
}
