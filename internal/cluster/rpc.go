package cluster

import (
	"errors"
	"fmt"
	"math"

	"scalekv/internal/row"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

// codec is the one wire codec every node, client and coordinator speaks.
var codec wire.FastCodec

// call runs one synchronous RPC: marshal req, send it, decode the reply
// as an R (see decode).
func call[R wire.Reply](conn transport.Caller, req wire.Message) (R, error) {
	payload, err := codec.Marshal(req)
	if err != nil {
		var zero R
		return zero, err
	}
	raw, err := conn.Call(payload)
	if err != nil {
		var zero R
		return zero, err
	}
	return decode[R](raw)
}

// decode unmarshals a reply frame that should hold an R, and is the one
// place a node's error becomes the caller's: a reply whose ErrMsg is set
// comes back as an error carrying the node's text, and so does a
// wire.ErrorResponse, a node's answer to a request it could not serve.
// Only a wrong-epoch rejection is retryable (the client refreshes its
// ring and re-routes); any other error is the answer of a healthy node,
// which would answer the same again.
func decode[R wire.Reply](raw []byte) (R, error) {
	var zero R
	msg, err := codec.Unmarshal(raw)
	if err != nil {
		return zero, err
	}
	r, ok := msg.(R)
	if !ok {
		return zero, replyErr(msg)
	}
	switch text := r.ErrText(); {
	case text == "":
		return r, nil
	case wire.IsWrongEpoch(text):
		return zero, retryable(errors.New(text))
	default:
		return zero, errors.New(text)
	}
}

// replyErr is the error for a reply of a type the caller did not ask
// for.
func replyErr(msg wire.Message) error {
	if e, ok := msg.(*wire.ErrorResponse); ok {
		return fmt.Errorf("cluster: node error: %s", e.ErrMsg)
	}
	return fmt.Errorf("cluster: unexpected response %T", msg)
}

// callerFunc adapts a function to transport.Caller, for a call that
// needs its connection chosen lazily or its timeout bounded.
type callerFunc func(payload []byte) ([]byte, error)

func (f callerFunc) Call(payload []byte) ([]byte, error) { return f(payload) }

// pageRange walks the StreamRange cursor over the inclusive token range
// [lo, hi] on one node at epoch 0, handing each page's entries to fn
// before the next page is fetched. The entries alias their page's frame.
// maxCells bounds a page (0: the node's default). It returns how many
// pages were read.
func pageRange(conn transport.Caller, lo, hi int64, maxCells uint32, fn func([]row.Entry) error) (pages int, err error) {
	req := &wire.StreamRangeRequest{Lo: lo, Hi: hi, AfterToken: math.MinInt64, MaxCells: maxCells}
	for {
		page, err := call[*wire.StreamRangeResponse](conn, req)
		if err != nil {
			return pages, err
		}
		pages++
		if err := fn(page.Entries); err != nil {
			return pages, err
		}
		if !page.More {
			return pages, nil
		}
		req.AfterToken, req.AfterPK = page.NextToken, page.NextPK
	}
}
