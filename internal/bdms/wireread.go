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
// (ReadCallback), the pull path's results and results:batch bodies
// (bdms.Client) and the two ingest bodies (Server). Each reads with the
// wire package's cursor from one string copy of the body. On the broker's
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
	resultsNames      = []string{"results"}
	rangesNames       = []string{"ranges"}
	rangeResultsNames = []string{"results", "error"}
	batchIngestNames  = []string{"records"}
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
	return r.Fields(notificationNames, func(i int) (ok bool) {
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
	})
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
	more := p.More
	p.More = nil
	return append([]NotificationPayload{p}, more...), nil
}

// resultsReply and resultsBatchReply decode the results and results:batch
// bodies for bdms.Client: read by the cursor, or by encoding/json into the
// reply type when it declines.
type (
	resultsReply      struct{ out *ResultsResponse }
	resultsBatchReply struct{ out *ResultsBatchResponse }
)

func (d resultsReply) UnmarshalJSON(data []byte) error {
	var v ResultsResponse
	if r := wire.NewReader(string(data)); readResultsBody(&r, &v) && r.End() {
		*d.out = v
		return nil
	}
	return json.Unmarshal(data, d.out)
}

func (d resultsBatchReply) UnmarshalJSON(data []byte) error {
	var v ResultsBatchResponse
	if r := wire.NewReader(string(data)); readResultsBatchBody(&r, &v) && r.End() {
		*d.out = v
		return nil
	}
	return json.Unmarshal(data, d.out)
}

func readResultsBody(r *wire.Reader, v *ResultsResponse) bool {
	return r.Fields(resultsNames, func(int) bool { return readResultObjects(r, &v.Results) })
}

func readResultsBatchBody(r *wire.Reader, v *ResultsBatchResponse) bool {
	readRange := func() (rr RangeResults, ok bool) {
		ok = r.Fields(rangeResultsNames, func(i int) (ok bool) {
			if i == 0 {
				return readResultObjects(r, &rr.Results)
			}
			rr.Error, ok = r.Str()
			return ok
		})
		return rr, ok
	}
	return r.Fields(rangesNames, func(int) bool { return wire.List(r, &v.Ranges, readRange) })
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
