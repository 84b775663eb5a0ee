package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scalekv/internal/hashring"
	"scalekv/internal/storage"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Op; Parent is the ID of the span that caused this one, -1 for
// the request's root.
type span struct {
	Op, ID, Parent int
	Name           string // "<layer>.<what>"
	Start, End     int64  // ns since the pass began
}

// Span IDs within one op. The hand-assembled path has a fixed shape, so
// the IDs are fixed too.
const (
	spanOp      = iota // bench.op: the whole request, client side
	spanEncReq         // wire.encode of the request
	spanCall           // transport.call: send to reply received
	spanHandler        // bench.handler: the server side of the call
	spanDecReq         // wire.decode of the request
	spanEngine         // storage.<op>
	spanEncResp        // wire.encode of the response
	spanDecResp        // wire.decode of the response
	spansPerOp
)

// tracer collects spans in memory. A nil tracer records nothing, which
// is how the untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // client and handler goroutines both append
	spans []span
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// end closes a span that began at start and returns its end, which the
// caller uses as the next span's start: one clock read per boundary.
func (t *tracer) end(op, id, parent int, name string, start int64) int64 {
	if t == nil {
		return 0
	}
	end := int64(time.Since(t.t0))
	t.add(op, id, parent, name, start, end)
	return end
}

func (t *tracer) add(op, id, parent int, name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{op, id, parent, name, start, end})
	t.mu.Unlock()
}

// handPath is a request path assembled from the layers' public
// functions only — codec.Marshal, transport.Client.Call to a
// transport.Serve handler this file owns, codec.Unmarshal, the
// storage.Engine op, and back — so every boundary can be timed from
// outside. It serves from the cluster nodes' own engines, over the
// workload's own transport. What the real cluster.Client adds on top of
// it (routing, epoch check, node queue, handoffs) is cluster.self_ns.
type handPath struct {
	b       *bed
	codec   wire.FastCodec
	primary []hashring.NodeID // per partition index, resolved before any clock starts
	servers []*transport.Server
	conns   []*transport.Client // per node

	// The handler learns the pass's tracer and the serial op in flight
	// from these; a Count request carries its op in QueryID instead,
	// because many are in flight at once.
	tr    atomic.Pointer[tracer]
	curOp atomic.Int64

	wireBytes uint64     // request + response payloads of the traced pass
	samples   []wirePair // its first messages
}

// wirePair is one op's request and response as decoded messages.
type wirePair struct{ req, resp wire.Message }

const wireSamples = 256

// endpoint opens a listener on the workload's transport and returns a
// dialer for it.
func endpoint(tcp bool, network *transport.Network, name string) (transport.Listener, func() (transport.Conn, error), error) {
	if tcp {
		l, err := transport.ListenTCP("127.0.0.1:0", 0)
		if err != nil {
			return nil, nil, err
		}
		return l, func() (transport.Conn, error) { return transport.DialTCP(l.Addr(), 0) }, nil
	}
	l, err := network.Listen(name)
	if err != nil {
		return nil, nil, err
	}
	return l, func() (transport.Conn, error) { return network.Dial(name) }, nil
}

func newHandPath(b *bed) (*handPath, error) {
	h := &handPath{b: b, primary: make([]hashring.NodeID, len(b.ks.pks))}
	ring := b.cl.Topology()
	for i, pk := range b.ks.pks {
		h.primary[i] = ring.Primary(pk)
	}
	network := transport.NewNetwork()
	for i, n := range b.cl.Nodes {
		l, dial, err := endpoint(b.sp.tcp, network, fmt.Sprintf("bench-%d", i))
		if err != nil {
			h.close()
			return nil, err
		}
		h.servers = append(h.servers, transport.Serve(l, h.handler(n.Engine())))
		conn, err := dial()
		if err != nil {
			h.close()
			return nil, err
		}
		h.conns = append(h.conns, transport.NewClient(conn))
	}
	return h, nil
}

func (h *handPath) close() {
	for _, c := range h.conns {
		c.Close()
	}
	for _, s := range h.servers {
		s.Close()
	}
}

// handler is the server side: decode, engine op, encode — the same
// engine calls cluster.Node makes, without the node around them.
func (h *handPath) handler(eng *storage.Engine) transport.Handler {
	return func(payload []byte) []byte {
		tr := h.tr.Load()
		enter := tr.now()
		msg, err := h.codec.Unmarshal(payload)
		id := int(h.curOp.Load())
		if cr, ok := msg.(*wire.CountRequest); ok {
			id = int(cr.QueryID)
		}
		s := tr.end(id, spanDecReq, spanHandler, "wire.decode", enter)

		var resp wire.Message
		name := "storage.none"
		switch req := msg.(type) {
		case *wire.GetRequest:
			name = "storage.get"
			cell, found, gerr := eng.GetVersioned(req.PK, req.CK)
			r := &wire.GetResponse{}
			if found && !cell.Tombstone {
				r.Value, r.Found, r.VerSeq, r.VerNode = cell.Value, true, cell.Ver.Seq, cell.Ver.Node
			}
			r.ErrMsg = errMsg(gerr)
			resp = r
		case *wire.PutRequest:
			name = "storage.put"
			resp = &wire.PutResponse{ErrMsg: errMsg(eng.Put(req.PK, req.CK, req.Value))}
		case *wire.ScanRequest:
			name = "storage.scan"
			cells, serr := eng.ScanPartition(req.PK, req.From, req.To)
			resp = &wire.ScanResponse{Cells: cells, ErrMsg: errMsg(serr)}
		case *wire.CountRequest:
			name = "storage.count"
			r := &wire.CountResponse{QueryID: req.QueryID, Seq: req.Seq, Counts: make(map[uint8]uint64)}
			r.ErrMsg = errMsg(eng.AggregatePartition(req.PK, func(_, value []byte) {
				r.Elements++
				if len(value) > 0 {
					r.Counts[value[0]]++
				}
			}))
			resp = r
		default:
			resp = &wire.GetResponse{ErrMsg: fmt.Sprintf("bench handler: bad request %T: %v", msg, err)}
		}
		s = tr.end(id, spanEngine, spanHandler, name, s)

		out, err := h.codec.Marshal(resp)
		if err != nil {
			panic(fmt.Sprintf("bench handler: encode %T: %v", resp, err)) // own message types: a bug
		}
		s = tr.end(id, spanEncResp, spanHandler, "wire.encode", s)
		tr.add(id, spanHandler, spanCall, "bench.handler", enter, s)
		return out
	}
}

func errMsg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// roundTrip sends one request down the path and returns the decoded
// response, recording the client-side spans.
func (h *handPath) roundTrip(tr *tracer, id int, node hashring.NodeID, req wire.Message) (wire.Message, error) {
	h.curOp.Store(int64(id))
	root := tr.now()
	payload, err := h.codec.Marshal(req)
	if err != nil {
		return nil, err
	}
	s := tr.end(id, spanEncReq, spanOp, "wire.encode", root)
	raw, err := h.conns[node].Call(payload)
	if err != nil {
		return nil, err
	}
	s = tr.end(id, spanCall, spanOp, "transport.call", s)
	resp, err := h.codec.Unmarshal(raw)
	s = tr.end(id, spanDecResp, spanOp, "wire.decode", s)
	tr.add(id, spanOp, -1, "bench.op", root, s)
	if err != nil {
		return nil, err
	}
	h.sample(tr, len(payload)+len(raw), req, resp)
	return resp, nil
}

// sample keeps, for the traced pass only, the bytes on the wire and the
// first few message pairs.
func (h *handPath) sample(tr *tracer, bytes int, req, resp wire.Message) {
	if tr == nil {
		return
	}
	h.wireBytes += uint64(bytes)
	if len(h.samples) < wireSamples {
		h.samples = append(h.samples, wirePair{req, resp})
	}
}

// do is bed.do over the hand-assembled path: same ops, same checks.
func (h *handPath) do(tr *tracer, id int, o op, val []byte) (int, error) {
	ks := h.b.ks
	pk, node := ks.pks[o.pk], h.primary[o.pk]
	switch o.kind {
	case opPut:
		resp, err := h.roundTrip(tr, id, node, &wire.PutRequest{PK: pk, CK: ks.cks[o.ck], Value: val})
		if err != nil {
			return 0, err
		}
		r, ok := resp.(*wire.PutResponse)
		if !ok || r.ErrMsg != "" {
			return 0, fmt.Errorf("hand path put: %T %v", resp, resp)
		}
		return 1, nil
	case opGet:
		resp, err := h.roundTrip(tr, id, node, &wire.GetRequest{PK: pk, CK: ks.cks[o.ck]})
		if err != nil {
			return 0, err
		}
		r, ok := resp.(*wire.GetResponse)
		if !ok || r.ErrMsg != "" {
			return 0, fmt.Errorf("hand path get: %T %v", resp, resp)
		}
		return 1, ks.verifyGet(r.Value, r.Found, o.pk, o.ck)
	case opScan:
		resp, err := h.roundTrip(tr, id, node, &wire.ScanRequest{PK: pk})
		if err != nil {
			return 0, err
		}
		r, ok := resp.(*wire.ScanResponse)
		if !ok || r.ErrMsg != "" {
			return 0, fmt.Errorf("hand path scan: %T %v", resp, resp)
		}
		return len(r.Cells), ks.verifyScan(r.Cells, o.pk)
	}
	return 0, fmt.Errorf("op kind %v has no point path", o.kind)
}

// countAll is Client.CountAll over the hand-assembled path: every
// request of the query is sent before the first reply is collected. Op
// IDs run from firstID, one per partition.
func (h *handPath) countAll(tr *tracer, firstID int, q *countQuery) error {
	type inflight struct {
		ch          <-chan []byte
		root, since int64
		req         *wire.CountRequest
		reqBytes    int
	}
	pending := make([]inflight, len(q.pks))
	for i, pk := range q.pks {
		id := firstID + i
		root := tr.now()
		req := &wire.CountRequest{QueryID: uint64(id), Seq: uint32(i), PK: pk}
		payload, err := h.codec.Marshal(req)
		if err != nil {
			return err
		}
		s := tr.end(id, spanEncReq, spanOp, "wire.encode", root)
		ch, err := h.conns[h.primary[q.idx[i]]].Go(payload)
		if err != nil {
			return err
		}
		pending[i] = inflight{ch, root, s, req, len(payload)}
	}
	var elements uint64
	var counts [4]uint64
	for i, p := range pending {
		id := firstID + i
		raw, ok := <-p.ch
		if !ok {
			return fmt.Errorf("hand path count: connection closed")
		}
		s := tr.end(id, spanCall, spanOp, "transport.call", p.since)
		resp, err := h.codec.Unmarshal(raw)
		s = tr.end(id, spanDecResp, spanOp, "wire.decode", s)
		tr.add(id, spanOp, -1, "bench.op", p.root, s)
		r, ok := resp.(*wire.CountResponse)
		if err != nil || !ok || r.ErrMsg != "" {
			return fmt.Errorf("hand path count: %T %v %v", resp, resp, err)
		}
		h.sample(tr, p.reqBytes+len(raw), p.req, r)
		elements += r.Elements
		for ty := range counts {
			counts[ty] += r.Counts[uint8(ty)]
		}
	}
	if elements != q.elements || counts != q.counts {
		return fmt.Errorf("hand path count: %d cells %v by type, want %d %v", elements, counts, q.elements, q.counts)
	}
	return nil
}

// layerOf is the part of a span name before the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums, per span name, each span's duration minus what its
// child spans cover. Children lie inside their parent here, so their
// durations subtract directly.
func selfTimes(spans []span) (self map[string]int64, total map[string]int64) {
	type key struct{ op, id int }
	covered := make(map[key]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[key{s.Op, s.Parent}] += s.End - s.Start
		}
	}
	self, total = map[string]int64{}, map[string]int64{}
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered[key{s.Op, s.ID}]
	}
	return self, total
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, `{"op":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.Op, s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
