package bdms

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"gobad/internal/httpx"
	"gobad/internal/wire"
)

// The readers of the documents on the cluster→broker leg and the ingest
// path, the mirror of the writers in resultsbody.go: the webhook envelope
// (ReadCallback) and its stream frame and answer (ParseEnvelopeFrame,
// ParseCallbackReply), the pull path's results body (bdms.Client) and the
// two ingest bodies (Server). Each reads with the wire package's cursor from
// one string copy of the body. On the broker's
// side the IDs a broker keeps — a result's ID in its cache, an entry's
// subscription ID in its spans — and each result's rows get memory of
// their own: the broker caches and evicts each object on its own, so none
// may pin a whole body. The other strings, and an ingested record's, share
// the body's copy. A body the cursor declines goes to encoding/json, so
// every input decodes to the value and the error encoding/json gives
// (FuzzWire in internal/wire).

var (
	resultObjectNames = []string{"id", "subscription_id", "timestamp", "prev_ns", "rows", "size"}
	notificationNames = []string{"subscription_id", "latest_ns", "results", "more"}
	// An envelope frame is an envelope with two fields more.
	envelopeFrameNames = []string{"subscription_id", "latest_ns", "results", "more", "id", "tp"}
	callbackReplyNames = []string{"failed", "re"}
	failedEntryNames   = []string{"subscription_id", "code"}
	resultsNames       = []string{"results"}
	batchIngestNames   = []string{"records"}
)

func readResultObject(r *wire.Reader) (obj ResultObject, ok bool) {
	ok = r.Fields(resultObjectNames, func(i int) (ok bool) {
		switch i {
		case 0:
			obj.ID, ok = readID(r)
		case 1:
			obj.SubscriptionID, ok = r.Str()
		case 2:
			var ts int64
			ts, ok = r.Int64()
			obj.Timestamp = time.Duration(ts)
		case 3:
			obj.PrevNS, ok = r.Int64()
		case 4:
			var rows string
			if rows, ok = r.Raw(); ok {
				obj.Rows = append(make(json.RawMessage, 0, len(rows)), rows...)
			}
		default:
			obj.Size, ok = r.Int64()
		}
		return ok
	})
	return obj, ok
}

// readID reads a string that gets memory of its own, for a broker to keep.
func readID(r *wire.Reader) (string, bool) {
	s, ok := r.Str()
	return strings.Clone(s), ok
}

func readResultObjects(r *wire.Reader, objs *[]ResultObject) bool {
	return wire.List(r, objs, func() (ResultObject, bool) { return readResultObject(r) })
}

func readNotificationPayload(r *wire.Reader, p *NotificationPayload) bool {
	return r.Fields(notificationNames, func(i int) bool { return readNotificationField(r, p, i) })
}

// readNotificationField reads the value of p's field notificationNames[i].
func readNotificationField(r *wire.Reader, p *NotificationPayload, i int) (ok bool) {
	switch i {
	case 0:
		p.SubscriptionID, ok = readID(r)
	case 1:
		p.LatestNS, ok = r.Int64()
	case 2:
		return readResultObjects(r, &p.Results)
	default:
		return wire.List(r, &p.More, func() (NotificationPayload, bool) {
			var e NotificationPayload
			ok := readNotificationPayload(r, &e)
			return e, ok
		})
	}
	return ok
}

// ReadCallback reads the webhook envelope a callback request carries and
// returns its entries, head first, each without the entries after it.
func ReadCallback(r *http.Request) ([]NotificationPayload, error) {
	var p NotificationPayload
	err := httpx.ReadJSONWith(r, &p, func(body string) bool {
		var q NotificationPayload
		rd := wire.NewReader(body)
		if !readNotificationPayload(&rd, &q) || !rd.End() {
			return false
		}
		p = q
		return true
	})
	if err != nil {
		return nil, err
	}
	return entriesOf(p), nil
}

// entriesOf splits an envelope into its entries, head first, each without
// the entries after it.
func entriesOf(p NotificationPayload) []NotificationPayload {
	more := p.More
	p.More = nil
	return append([]NotificationPayload{p}, more...)
}

// ParseEnvelopeFrame reads an envelope frame of a callback stream, the
// mirror of appendEnvelopeFrame: its entries as ReadCallback returns a
// POST's, its id and its traceparent; or, for a frame encoding/json cannot
// decode into an envelopeFrame, the error it gives and nothing else.
func ParseEnvelopeFrame(frame []byte) (entries []NotificationPayload, id int64, tp string, err error) {
	var f envelopeFrame
	if r := wire.NewReader(string(frame)); !readEnvelopeFrame(&r, &f) || !r.End() {
		f = envelopeFrame{}
		if err = json.Unmarshal(frame, &f); err != nil {
			return nil, 0, "", err
		}
	}
	return entriesOf(f.NotificationPayload), f.ID, f.TP, nil
}

func readEnvelopeFrame(r *wire.Reader, f *envelopeFrame) bool {
	return r.Fields(envelopeFrameNames, func(i int) (ok bool) {
		switch i {
		case 4:
			f.ID, ok = r.Int64()
		case 5:
			f.TP, ok = r.Str()
		default:
			return readNotificationField(r, &f.NotificationPayload, i)
		}
		return ok
	})
}

// ParseCallbackReply reads a callback stream's answer frame, the mirror of
// AppendCallbackReply: its fields as encoding/json decodes the frame into a
// callbackReply, and the error it gives.
func ParseCallbackReply(frame []byte) (resp CallbackResponse, re int64, err error) {
	var v callbackReply
	if r := wire.NewReader(string(frame)); !readCallbackReply(&r, &v) || !r.End() {
		v = callbackReply{}
		err = json.Unmarshal(frame, &v)
	}
	return v.CallbackResponse, v.Re, err
}

func readCallbackReply(r *wire.Reader, v *callbackReply) bool {
	return r.Fields(callbackReplyNames, func(i int) (ok bool) {
		if i == 1 {
			v.Re, ok = r.Int64()
			return ok
		}
		return wire.List(r, &v.Failed, func() (f FailedEntry, ok bool) {
			ok = r.Fields(failedEntryNames, func(i int) (ok bool) {
				if i == 0 {
					f.SubscriptionID, ok = r.Str()
				} else {
					f.Code, ok = r.Str()
				}
				return ok
			})
			return f, ok
		})
	})
}

// resultsReply decodes the results body for bdms.Client: read by the
// cursor, or by encoding/json into the reply type when it declines.
type resultsReply struct{ out *ResultsResponse }

func (d resultsReply) UnmarshalJSON(data []byte) error {
	var v ResultsResponse
	if r := wire.NewReader(string(data)); readResultsBody(&r, &v) && r.End() {
		*d.out = v
		return nil
	}
	return json.Unmarshal(data, d.out)
}

func readResultsBody(r *wire.Reader, v *ResultsResponse) bool {
	return r.Fields(resultsNames, func(int) bool { return readResultObjects(r, &v.Results) })
}

func readBatchIngestBody(r *wire.Reader, recs *[]map[string]any) bool {
	return r.Fields(batchIngestNames, func(int) bool { return wire.List(r, recs, r.Map) })
}

// readRecord reads the single ingest route's body, one record: an object
// or null. Its strings share one string copy of the body.
func readRecord(r *http.Request) (map[string]any, error) {
	var data map[string]any
	err := httpx.ReadJSONWith(r, &data, func(body string) bool {
		rd := wire.NewReader(body)
		m, ok := rd.Map()
		if ok = ok && rd.End(); ok {
			data = m
		}
		return ok
	})
	return data, err
}

// readBatch reads the batch ingest route's BatchIngestRequest. Its records
// share one string copy of the body.
func readBatch(r *http.Request) ([]map[string]any, error) {
	var req BatchIngestRequest
	err := httpx.ReadJSONWith(r, &req, func(body string) bool {
		var recs []map[string]any
		rd := wire.NewReader(body)
		ok := readBatchIngestBody(&rd, &recs) && rd.End()
		if ok {
			req.Records = recs
		}
		return ok
	})
	return req.Records, err
}
