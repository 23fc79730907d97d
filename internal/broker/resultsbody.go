package broker

import (
	"strconv"

	"gobad/internal/httpx"
)

// The results route's body writer. One cached result object serves every
// retriever of its backend subscription, so the route must not decode and
// re-encode its rows once per retriever: appendResults writes the
// ResultsResponse a subscriber decodes field by field, as encoding/json
// would, and splices each item's rows in as the bytes the cache holds.
// (Routing those bytes through encoding/json as a RawMessage would still
// re-scan every byte of them.) TestResultsBodyMatchesEncodingJSON holds it
// to encoding/json's output, and FuzzAppendJSONString (httpx) its string
// encoder.

// appendResults appends the JSON body of ret's ResultsResponse, newline
// included.
func appendResults(dst []byte, ret Retrieval) []byte {
	dst = append(dst, `{"results":[`...)
	for i, it := range ret.Items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = httpx.AppendJSONString(dst, it.ID)
		dst = append(dst, `,"timestamp_ns":`...)
		dst = strconv.AppendInt(dst, it.TimestampNS, 10)
		dst = append(dst, `,"size":`...)
		dst = strconv.AppendInt(dst, it.Size, 10)
		// ResultItem.Rows is omitempty: rows that decode to no rows are
		// left out, as encoding/json leaves out an empty slice.
		if s := string(it.Rows); s != "" && s != "null" && s != "[]" {
			dst = append(dst, `,"rows":`...)
			dst = append(dst, it.Rows...)
		}
		dst = append(dst, `,"from_cache":`...)
		dst = strconv.AppendBool(dst, it.FromCache)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"latest_ns":`...)
	dst = strconv.AppendInt(dst, int64(ret.Latest), 10)
	if ret.Stale {
		dst = append(dst, `,"stale":true`...)
	}
	return append(dst, "}\n"...)
}

// resultsBodySize is what appendResults will need for ret, give or take
// escapes in the IDs.
func resultsBodySize(ret Retrieval) int {
	n := 64
	for _, it := range ret.Items {
		n += 96 + len(it.ID) + len(it.Rows)
	}
	return n
}
