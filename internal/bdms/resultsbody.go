package bdms

import (
	"slices"
	"strconv"

	"gobad/internal/wire"
)

// The documents that carry result rows on the ingest, push and pull paths —
// a WAL result or ingest record, the webhook envelope, the results and
// results:batch bodies — are appended here field by field, as
// encoding/json writes them, with each result's rows spliced in and an
// ingest's data written by wire.AppendValue. The rows are json.Marshal's
// bytes already (evaluate made them, or encodeResults for a range read):
// compact and escaped. Handed back to encoding/json as a RawMessage they
// would be re-scanned byte by byte to compact what is compact, which on
// the WAL's result records, under the cluster lock, cost more than
// encoding the rows had. TestResultsBodiesMatchEncodingJSON and
// TestWireWritersTakeDirectPath hold every one to encoding/json's bytes;
// their readers are in wireread.go.

// appendResultObject appends obj as encoding/json writes a ResultObject.
// No rows is null, as a nil RawMessage is.
func appendResultObject(dst []byte, obj ResultObject) []byte {
	dst = append(dst, `{"id":`...)
	dst = wire.AppendJSONString(dst, obj.ID)
	dst = append(dst, `,"subscription_id":`...)
	dst = wire.AppendJSONString(dst, obj.SubscriptionID)
	dst = append(dst, `,"timestamp":`...)
	dst = strconv.AppendInt(dst, int64(obj.Timestamp), 10)
	if obj.PrevNS != 0 {
		dst = append(dst, `,"prev_ns":`...)
		dst = strconv.AppendInt(dst, obj.PrevNS, 10)
	}
	dst = append(dst, `,"rows":`...)
	if len(obj.Rows) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, obj.Rows...)
	}
	dst = append(dst, `,"size":`...)
	dst = strconv.AppendInt(dst, obj.Size, 10)
	return append(dst, '}')
}

// appendResultObjects appends a []ResultObject: null when nil.
func appendResultObjects(dst []byte, objs []ResultObject) []byte {
	if objs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, obj := range objs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendResultObject(dst, obj)
	}
	return append(dst, ']')
}

// appendResultRecord appends a WAL result record as logResults makes it:
// kind, at_ns, sub and result set, nothing else.
func appendResultRecord(dst []byte, rec walRecord) []byte {
	dst = append(dst, `{"kind":"`+walKindResult+`","at_ns":`...)
	dst = strconv.AppendInt(dst, rec.AtNS, 10)
	if rec.Sub != "" {
		dst = append(dst, `,"sub":`...)
		dst = wire.AppendJSONString(dst, rec.Sub)
	}
	if rec.Result != nil {
		dst = append(dst, `,"result":`...)
		dst = appendResultObject(dst, *rec.Result)
	}
	return append(dst, '}')
}

// appendIngestRecord appends a WAL ingest record as logIngest and
// logIngestBatch make it — kind, dataset, data and at_ns, nothing else —
// or returns false when the codec declines its data.
func appendIngestRecord(dst []byte, rec walRecord) ([]byte, bool) {
	dst = append(dst, `{"kind":"`+walKindIngest+`"`...)
	if rec.Dataset != "" {
		dst = append(dst, `,"dataset":`...)
		dst = wire.AppendJSONString(dst, rec.Dataset)
	}
	if len(rec.Data) > 0 {
		var ok bool
		if dst, ok = wire.AppendValue(append(dst, `,"data":`...), rec.Data); !ok {
			return dst, false
		}
	}
	dst = append(dst, `,"at_ns":`...)
	dst = strconv.AppendInt(dst, rec.AtNS, 10)
	return append(dst, '}'), true
}

// appendNotificationPayload appends a webhook envelope, its entries' pushed
// results spliced in.
func appendNotificationPayload(dst []byte, p NotificationPayload) []byte {
	dst = append(dst, `{"subscription_id":`...)
	dst = wire.AppendJSONString(dst, p.SubscriptionID)
	dst = append(dst, `,"latest_ns":`...)
	dst = strconv.AppendInt(dst, p.LatestNS, 10)
	if len(p.Results) > 0 {
		dst = append(dst, `,"results":`...)
		dst = appendResultObjects(dst, p.Results)
	}
	if len(p.More) > 0 {
		dst = append(dst, `,"more":[`...)
		for i, e := range p.More {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendNotificationPayload(dst, e)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendResultsResponse appends the results route's body, newline
// included.
func appendResultsResponse(dst []byte, results []ResultObject) []byte {
	dst = slices.Grow(dst, resultsSize(results))
	dst = append(dst, `{"results":`...)
	dst = appendResultObjects(dst, results)
	return append(dst, "}\n"...)
}

// appendResultsBatchResponse appends the results:batch route's body,
// newline included.
func appendResultsBatchResponse(dst []byte, ranges []RangeResults) []byte {
	size := 0
	for _, r := range ranges {
		size += resultsSize(r.Results) + len(r.Error)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"ranges":`...)
	if ranges == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, r := range ranges {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			if len(r.Results) > 0 {
				dst = append(dst, `"results":`...)
				dst = appendResultObjects(dst, r.Results)
			}
			if r.Error != "" {
				if len(r.Results) > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, `"error":`...)
				dst = wire.AppendJSONString(dst, r.Error)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// resultsSize is what appending objs will take, give or take escapes in
// the IDs.
func resultsSize(objs []ResultObject) int {
	n := 32
	for _, obj := range objs {
		n += 80 + len(obj.ID) + len(obj.SubscriptionID) + len(obj.Rows)
	}
	return n
}
