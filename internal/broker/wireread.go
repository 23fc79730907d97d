package broker

import (
	"encoding/json"

	"gobad/internal/wire"
)

// The notification socket's frame readers, the mirror of the writers
// (appendResults, appendResultsReply, appendPushJSON and AppendGetRequest).
// Every retrieval over the socket decodes three frames — the request at
// the broker, the push frame and the reply at the subscriber — each read
// by the wire package's cursor from one string copy of the frame. A frame
// the cursor declines is decoded by encoding/json into a zero value of the
// type without its methods, and a type error from it names the type
// itself; so every input decodes to the value and the error encoding/json
// gives for the type (FuzzWire in internal/wire).

var (
	resultsResponseNames = []string{"results", "latest_ns", "stale"}
	resultItemNames      = []string{"id", "timestamp_ns", "size", "rows", "from_cache"}
	pushNames            = []string{"type", "fs", "bs", "latest_ns", "tp"}
	getRequestNames      = []string{"get", "id", "ack", "tp"}
)

// resultsResponseFields and pushFields are the decoded types without their
// UnmarshalJSON: what a declined frame is decoded into.
type (
	resultsResponseFields ResultsResponse
	pushFields            PushNotification
)

// UnmarshalJSON decodes a results body or socket reply into a zero
// ResultsResponse, as encoding/json does.
func (rr *ResultsResponse) UnmarshalJSON(data []byte) error {
	*rr = ResultsResponse{}
	if r := wire.NewReader(string(data)); readResultsResponse(&r, rr) && r.End() {
		return nil
	}
	var f resultsResponseFields
	err := json.Unmarshal(data, &f)
	*rr = ResultsResponse(f)
	return wire.RenameTypeError[ResultsResponse, resultsResponseFields](err)
}

func readResultsResponse(r *wire.Reader, v *ResultsResponse) bool {
	return r.Fields(resultsResponseNames, func(i int) (ok bool) {
		switch i {
		case 0:
			return wire.List(r, &v.Results, func() (ResultItem, bool) { return readResultItem(r) })
		case 1:
			v.LatestNS, ok = r.Int64()
		default:
			v.Stale, ok = r.Bool()
		}
		return ok
	})
}

func readResultItem(r *wire.Reader) (it ResultItem, ok bool) {
	ok = r.Fields(resultItemNames, func(i int) (ok bool) {
		switch i {
		case 0:
			it.ID, ok = r.Str()
		case 1:
			it.TimestampNS, ok = r.Int64()
		case 2:
			it.Size, ok = r.Int64()
		case 3:
			return wire.List(r, &it.Rows, r.Map)
		default:
			it.FromCache, ok = r.Bool()
		}
		return ok
	})
	return it, ok
}

// UnmarshalJSON decodes a push frame into a zero PushNotification, as
// encoding/json does.
func (n *PushNotification) UnmarshalJSON(data []byte) error {
	*n = PushNotification{}
	if r := wire.NewReader(string(data)); readPush(&r, n) && r.End() {
		return nil
	}
	var f pushFields
	err := json.Unmarshal(data, &f)
	*n = PushNotification(f)
	return wire.RenameTypeError[PushNotification, pushFields](err)
}

func readPush(r *wire.Reader, v *PushNotification) bool {
	return r.Fields(pushNames, func(i int) (ok bool) {
		switch i {
		case 0:
			v.Type, ok = r.Str()
		case 1:
			v.FrontendSub, ok = r.Str()
		case 2:
			v.BackendSub, ok = r.Str()
		case 3:
			v.LatestNS, ok = r.Int64()
		default:
			v.Traceparent, ok = r.Str()
		}
		return ok
	})
}

// ParseGetRequest reads a retrieval request frame, the mirror of
// AppendGetRequest: its fields as encoding/json decodes the frame into a
// getRequest, and the error it gives.
func ParseGetRequest(frame []byte) (fs string, id, ack int64, tp string, err error) {
	var g getRequest
	if r := wire.NewReader(string(frame)); !readGetRequest(&r, &g) || !r.End() {
		g = getRequest{}
		err = json.Unmarshal(frame, &g)
	}
	return g.Get, g.ID, g.Ack, g.TP, err
}

func readGetRequest(r *wire.Reader, v *getRequest) bool {
	return r.Fields(getRequestNames, func(i int) (ok bool) {
		switch i {
		case 0:
			v.Get, ok = r.Str()
		case 1:
			v.ID, ok = r.Int64()
		case 2:
			v.Ack, ok = r.Int64()
		default:
			v.TP, ok = r.Str()
		}
		return ok
	})
}
