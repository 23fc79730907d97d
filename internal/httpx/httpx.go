// Package httpx holds the small JSON-over-HTTP helpers shared by the data
// cluster, broker and BCS servers and clients: JSON body codecs and the
// unified v1 error envelope.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"gobad/internal/obs"
)

// MaxBodyBytes bounds request/response bodies read by this package.
const MaxBodyBytes = 16 << 20

// Stable machine-readable error codes carried by the v1 error envelope.
// Servers pick the code from the HTTP status via CodeForStatus unless they
// write one explicitly with WriteErrorCode.
const (
	CodeBadRequest  = "bad_request"
	CodeNotFound    = "not_found"
	CodeConflict    = "conflict"
	CodeRateLimited = "rate_limited"
	CodeUnavailable = "unavailable"
	CodeInternal    = "internal"
)

// ErrorInfo is the body of the unified v1 error envelope.
type ErrorInfo struct {
	// Code is a stable machine-readable error class (see the Code*
	// constants).
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Retryable reports whether the caller may retry the identical
	// request and expect it to eventually succeed.
	Retryable bool `json:"retryable"`
}

// ErrorEnvelope is the uniform JSON error payload returned by every v1
// route:
//
//	{"error": {"code": "...", "message": "...", "retryable": false}}
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

// CodeForStatus maps an HTTP status to the default envelope code.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusTooManyRequests:
		return CodeRateLimited
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	default:
		if status >= 500 {
			return CodeInternal
		}
		return CodeBadRequest
	}
}

// retryableStatus reports whether a status signals a transient condition.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// WriteJSON encodes v as the response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if v == nil {
		return
	}
	// Encoding errors past WriteHeader can only be logged by the caller's
	// server config; ignore here.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteJSONBody writes body, a JSON document appended by hand (newline
// included), as WriteJSON writes an encoded one.
func WriteJSONBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// WriteError writes the unified error envelope, deriving the code and
// retryability from the status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteErrorCode(w, status, CodeForStatus(status), format, args...)
}

// WriteErrorCode writes the unified error envelope with an explicit code.
func WriteErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorInfo{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		Retryable: retryableStatus(status),
	}})
}

// TooLargeError reports a body that did not fit in MaxBodyBytes. It names
// the bound and the URL, so a response that outgrew it (a deep backlog in
// one results answer) reads as exactly that, not as corrupt JSON.
type TooLargeError struct {
	URL   string
	Limit int64
}

// Error implements error.
func (e *TooLargeError) Error() string {
	return fmt.Sprintf("httpx: body of %s exceeds the %d-byte limit", e.URL, e.Limit)
}

// limitedBody hands out at most MaxBodyBytes of a body and then reads one
// byte past the bound: EOF there is the body's end, a byte is a
// *TooLargeError.
type limitedBody struct {
	r    io.Reader
	left int64 // bytes still handed out
	url  string
}

func (l *limitedBody) Read(p []byte) (int, error) {
	if l.left <= 0 {
		var one [1]byte
		if _, err := io.ReadFull(l.r, one[:]); err != nil {
			return 0, err // io.EOF: the body ended at the bound
		}
		return 0, &TooLargeError{URL: l.url, Limit: MaxBodyBytes}
	}
	if int64(len(p)) > l.left {
		p = p[:l.left]
	}
	n, err := l.r.Read(p)
	l.left -= int64(n)
	return n, err
}

// readBody reads a whole body of at most MaxBodyBytes. size is the length
// the sender declared (-1: unknown): a known length is read into one
// buffer of that size (+1, so EOF is seen without growing it) instead of
// growing one from 512 bytes.
func readBody(body io.Reader, size int64, url string) ([]byte, error) {
	l := limitedBody{r: body, left: MaxBodyBytes, url: url}
	capacity := int64(512)
	if size >= 0 && size <= MaxBodyBytes {
		capacity = size + 1
	}
	buf := make([]byte, 0, capacity)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := l.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// ReadJSON decodes the request body into v, reading at most MaxBodyBytes;
// a larger body fails with a *TooLargeError (WriteReadError answers it
// 413). Unknown fields are ignored, not rejected: that is what lets a
// receiver accept a newer or older peer's payload (a pre-"results"
// cluster's "result" field degrades to a PULL notification at the broker).
func ReadJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(&limitedBody{r: r.Body, left: MaxBodyBytes, url: r.RequestURI})
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("httpx: decode request body: %w", err)
	}
	return nil
}

// WriteReadError answers a ReadJSON failure: 413 for a body over
// MaxBodyBytes, 400 for anything else.
func WriteReadError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *TooLargeError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteError(w, status, "%v", err)
}

// DoJSON performs an HTTP request with a JSON body (nil for none) and
// decodes the JSON response into out (nil to discard). Non-2xx responses
// are returned as errors carrying the server's error payload. It is
// DoJSONContext with a background context.
func DoJSON(client *http.Client, method, url string, in, out any) error {
	return DoJSONContext(context.Background(), client, method, url, in, out)
}

// DoJSONContext is DoJSON bound to ctx: the request is cancelled when ctx
// is done, so callers can impose deadlines on broker<->cluster fetches.
func DoJSONContext(ctx context.Context, client *http.Client, method, url string, in, out any) error {
	_, _, err := DoJSONHeader(ctx, client, method, url, nil, in, out)
	return err
}

// DoJSONHeader is DoJSONContext with wire metadata exposed: hdr (may be
// nil) supplies extra request headers — e.g. a peer-lookup hop guard or an
// If-None-Match tag — and the response status and headers are returned
// alongside the decode. A 304 Not Modified is a success with out left
// untouched, so conditional fetches branch on the status instead of
// unwrapping errors. An in that is a json.RawMessage is sent as it is: it
// must be compact JSON already (a document appended by hand).
func DoJSONHeader(ctx context.Context, client *http.Client, method, url string, hdr http.Header, in, out any) (int, http.Header, error) {
	var body io.Reader
	if raw, ok := in.(json.RawMessage); ok {
		body = bytes.NewReader(raw)
	} else if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, nil, fmt.Errorf("httpx: encode request: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, nil, fmt.Errorf("httpx: build request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	// Propagate the trace across the wire: the outbound call is a child
	// span of whatever span the context carries (e.g. the broker handler
	// that triggered this cluster fetch), so broker and cluster log lines
	// share one trace ID.
	if sc, ok := obs.SpanFromContext(ctx); ok {
		req.Header.Set(obs.TraceparentHeader, sc.Child().Traceparent())
	}
	if id := obs.RequestIDFromContext(ctx); id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("httpx: %s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body, resp.ContentLength, url)
	if err != nil {
		return resp.StatusCode, resp.Header, fmt.Errorf("httpx: read response: %w", err)
	}
	if resp.StatusCode == http.StatusNotModified {
		return resp.StatusCode, resp.Header, nil
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := decodeError(resp.StatusCode, data)
		se.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		return resp.StatusCode, resp.Header, fmt.Errorf("httpx: %s %s: %w", method, url, se)
	}
	if out == nil {
		return resp.StatusCode, resp.Header, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, resp.Header, fmt.Errorf("httpx: decode response: %w", err)
	}
	return resp.StatusCode, resp.Header, nil
}

// StatusError is the client-side representation of a non-2xx response; it
// carries the envelope fields so callers can branch on Code/Retryable.
type StatusError struct {
	Status    int
	Code      string
	Message   string
	Retryable bool
	// RetryAfter is the server's Retry-After hint (0 when absent); the
	// Retryer uses it as a floor under its computed backoff delay.
	RetryAfter time.Duration
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.Message, e.Status)
	}
	return fmt.Sprintf("HTTP %d", e.Status)
}

// decodeError parses a non-2xx body into a StatusError. A body that is not
// the v1 envelope keeps the status-derived code and an empty message.
func decodeError(status int, data []byte) *StatusError {
	se := &StatusError{Status: status, Code: CodeForStatus(status), Retryable: retryableStatus(status)}
	var env ErrorEnvelope
	if json.Unmarshal(data, &env) == nil && env.Error.Message != "" {
		se.Code = env.Error.Code
		se.Message = env.Error.Message
		se.Retryable = env.Error.Retryable
	}
	return se
}

// parseRetryAfter interprets a Retry-After header value: either a decimal
// number of seconds or an HTTP-date. Unparseable or past values yield 0.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}
