package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"scalekv/internal/enc"
	"scalekv/internal/row"
)

// FastCodec is the Kryo analogue: registered numeric type IDs and
// hand-written binary encodings. Frame layout: uvarint typeID, then the
// type's compact field encoding in the order walk lists the fields, no
// names, no tags.
//
// Neither end copies more than it must. Marshal builds the frame in a
// pooled scratch buffer and returns one allocation of exactly its
// length. Unmarshal copies no []byte field: each is a view into the
// frame, capped at its own last byte so that an append reallocates
// instead of overwriting the next field, and a zero-length field
// decodes as nil. The frame therefore belongs to the decoded message
// (see Codec).
type FastCodec struct{}

// Name implements Codec.
func (FastCodec) Name() string { return "fast" }

// ErrTruncated reports a frame shorter than its encoding requires,
// including one whose element count promises more elements than its
// remaining bytes can hold.
var ErrTruncated = errors.New("wire: truncated frame")

// scratchPool holds Marshal's build buffers. A buffer that grew past
// maxPooledScratch (a large stream page) is left to the collector rather
// than pinned for every later small message.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledScratch = 1 << 20

// Marshal implements Codec.
func (FastCodec) Marshal(m Message) ([]byte, error) {
	sp := scratchPool.Get().(*[]byte)
	var c coder
	c.buf = (*sp)[:cap(*sp)]
	c.putUvarint(uint64(m.TypeID()))
	walk(&c, m)
	var frame []byte
	if out := c.buf[:c.n]; c.err == nil {
		frame = make([]byte, len(out))
		copy(frame, out) // one makeslicecopy: the frame is never zeroed first
	}
	if cap(c.buf) <= maxPooledScratch {
		*sp = c.buf[:0]
		scratchPool.Put(sp)
	}
	return frame, c.err
}

// Unmarshal implements Codec. Every count is bounded by the bytes left
// before anything is sized from it (coder.count), so an element count
// off the wire can neither panic nor commit memory the frame does not
// back.
func (FastCodec) Unmarshal(data []byte) (Message, error) {
	id, n := enc.Uvarint(data)
	if n <= 0 {
		return nil, ErrTruncated
	}
	if id > math.MaxUint16 {
		// Truncating it would decode 65536 + k as message k.
		return nil, fmt.Errorf("wire: unknown message type %d", id)
	}
	m, err := New(uint16(id))
	if err != nil {
		return nil, err
	}
	var c coder
	c.buf, c.n, c.dec = data, n, true
	walk(&c, m)
	if c.err != nil {
		return nil, c.err
	}
	if c.n != len(data) {
		// A well-formed fast frame is consumed exactly; leftovers mean a
		// foreign format whose length prefix happened to parse as a type
		// ID (e.g. a slow-codec frame).
		return nil, fmt.Errorf("wire: %d trailing bytes in fast frame", len(data)-c.n)
	}
	return m, nil
}

// walk is every message's wire layout, written once: it lists the
// fields of m in frame order, and the coder appends them (Marshal) or
// reads them back into m (Unmarshal). Adding a message is a struct and
// type ID in message.go, a row in registry and an arm here.
func walk(c *coder, m Message) {
	switch v := m.(type) {
	case *CountRequest:
		num(c, &v.QueryID)
		num(c, &v.Seq)
		c.str(&v.PK)
		num(c, &v.TraceSendNanos)
		num(c, &v.Epoch)
	case *CountResponse:
		num(c, &v.QueryID)
		num(c, &v.Seq)
		num(c, &v.NodeID)
		num(c, &v.Elements)
		c.counts(&v.Counts)
		c.str(&v.ErrMsg)
		num(c, &v.RecvNanos)
		num(c, &v.QueueNanos)
		num(c, &v.DBNanos)
	case *PutRequest:
		c.str(&v.PK)
		c.bytes(&v.CK)
		c.bytes(&v.Value)
		num(c, &v.Epoch)
	case *PutResponse:
		c.str(&v.ErrMsg)
	case *GetRequest:
		c.str(&v.PK)
		c.bytes(&v.CK)
		num(c, &v.Epoch)
	case *GetResponse:
		c.bytes(&v.Value)
		c.bool(&v.Found)
		c.str(&v.ErrMsg)
		num(c, &v.VerSeq)
		num(c, &v.VerNode)
		c.bool(&v.Tombstone)
	case *DeleteRequest:
		c.str(&v.PK)
		c.bytes(&v.CK)
		num(c, &v.Epoch)
	case *DeleteResponse:
		c.str(&v.ErrMsg)
	case *ScanRequest:
		c.str(&v.PK)
		c.optBytes(&v.From)
		c.optBytes(&v.To)
		num(c, &v.Epoch)
	case *ScanResponse:
		for i := range seq(c, &v.Cells, 5) { // ck, value, seq, node, flags
			c.cell(&v.Cells[i])
		}
		c.str(&v.ErrMsg)
	case *BatchPutRequest:
		c.entries(&v.Entries)
		num(c, &v.Epoch)
	case *BatchPutResponse:
		num(c, &v.Applied)
		c.str(&v.ErrMsg)
	case *MultiGetRequest:
		for i := range seq(c, &v.Keys, 2) {
			c.str(&v.Keys[i].PK)
			c.bytes(&v.Keys[i].CK)
		}
		num(c, &v.Epoch)
	case *MultiGetResponse:
		for i := range seq(c, &v.Values, 2) {
			c.bytes(&v.Values[i].Value)
			c.bool(&v.Values[i].Found)
		}
		c.str(&v.ErrMsg)
	case *RingStateRequest, *NodeStatsRequest, *EndMigrationRequest:
		// No fields.
	case *RingStateResponse:
		num(c, &v.Epoch)
		num(c, &v.Vnodes)
		num(c, &v.RF)
		c.nodeAddrs(&v.Nodes)
		c.str(&v.ErrMsg)
	case *StreamRangeRequest:
		num(c, &v.Lo)
		num(c, &v.Hi)
		num(c, &v.AfterToken)
		c.str(&v.AfterPK)
		num(c, &v.MaxCells)
	case *StreamRangeResponse:
		c.entries(&v.Entries)
		num(c, &v.NextToken)
		c.str(&v.NextPK)
		c.bool(&v.More)
		c.str(&v.ErrMsg)
	case *DeleteRangeRequest:
		num(c, &v.Lo)
		num(c, &v.Hi)
	case *DeleteRangeResponse:
		num(c, &v.Removed)
		c.str(&v.ErrMsg)
	case *DigestRequest:
		num(c, &v.Lo)
		num(c, &v.Hi)
		num(c, &v.Depth)
	case *DigestResponse:
		for i := range seq(c, &v.Leaves, 2) {
			num(c, &v.Leaves[i].Hash)
			num(c, &v.Leaves[i].Cells)
		}
		c.str(&v.ErrMsg)
	case *NodeStatsResponse:
		num(c, &v.Epoch)
		for i := range seq(c, &v.Shards, 3) {
			sh := &v.Shards[i]
			num(c, &sh.MemtableBytes)
			num(c, &sh.FrozenMemtables)
			num(c, &sh.SSTables)
		}
		num(c, &v.FlushedBytes)
		num(c, &v.FlushCount)
		num(c, &v.CompactionCount)
		num(c, &v.CompactionBytesIn)
		num(c, &v.CompactionBytesOut)
		for i := range seq(c, &v.LevelTables, 1) {
			num(c, &v.LevelTables[i])
		}
		for i := range seq(c, &v.LevelBytes, 1) {
			num(c, &v.LevelBytes[i])
		}
		num(c, &v.CacheHits)
		num(c, &v.CacheMisses)
		num(c, &v.CacheEvictions)
		num(c, &v.CacheBytes)
		num(c, &v.BlockBytesLogical)
		num(c, &v.BlockBytesStored)
		for i := range seq(c, &v.Peers, 4) {
			p := &v.Peers[i]
			num(c, &p.ID)
			c.bool(&p.Up)
			num(c, &p.Suspicion)
			num(c, &p.SinceMillis)
		}
		num(c, &v.DialCount)
		num(c, &v.RedialCount)
		c.str(&v.ErrMsg)
	case *JoinRequest:
		num(c, &v.ID)
		c.str(&v.Addr)
	case *JoinResponse:
		num(c, &v.Epoch)
		num(c, &v.Moves)
		num(c, &v.CellsStreamed)
		num(c, &v.CellsRetired)
		num(c, &v.Pages)
		num(c, &v.StreamNanos)
		num(c, &v.FlipNanos)
		c.str(&v.RetireErr)
		c.str(&v.ErrMsg)
	case *BeginMigrationRequest:
		for i := range seq(c, &v.Moves, 4) {
			mv := &v.Moves[i]
			num(c, &mv.Lo)
			num(c, &mv.Hi)
			num(c, &mv.From)
			num(c, &mv.To)
		}
		c.nodeAddrs(&v.Nodes)
	case *BeginMigrationResponse:
		c.str(&v.ErrMsg)
	case *EndMigrationResponse:
		c.str(&v.ErrMsg)
	case *SetRingStateRequest:
		num(c, &v.Epoch)
		num(c, &v.Vnodes)
		num(c, &v.RF)
		c.nodeAddrs(&v.Nodes)
	case *SetRingStateResponse:
		c.str(&v.ErrMsg)
	case *PingRequest:
		num(c, &v.FromID)
		num(c, &v.Epoch)
	case *PingResponse:
		num(c, &v.ID)
		num(c, &v.Epoch)
		c.str(&v.ErrMsg)
	case *LeaveRequest:
		num(c, &v.ID)
	case *LeaveResponse:
		c.str(&v.ErrMsg)
	case *ErrorResponse:
		c.str(&v.ErrMsg)
	default:
		c.err = fmt.Errorf("wire: fast codec cannot marshal %T", m)
	}
}

// coder carries one frame through walk in one direction: Marshal's
// appends each field at n and only reads the message, Unmarshal's reads
// each field from n, with a sticky error, and stores it. Both advance
// the integer n through one buffer, so the per-field path stores no
// pointer into the coder (a store the garbage collector's write barrier
// would watch). It lives on the caller's stack: nothing it decodes is
// copied into it. Callers set its fields one by one: a composite literal
// is built in a temporary and copied into the address-taken coder with
// 16-byte loads that straddle the temporary's 8-byte stores, a store-
// forwarding stall that cost more than a small message's whole decode.
type coder struct {
	buf []byte // Marshal: scratch grown as needed; Unmarshal: the frame
	n   int    // bytes written, or bytes read
	dec bool
	err error
}

// num carries an unsigned or two's-complement integer as a uvarint. It
// is every integer read, so it reads the varint itself rather than
// through a helper: one call per integer field.
func num[T uint16 | uint32 | uint64 | int64](c *coder, v *T) {
	if !c.dec {
		c.putUvarint(uint64(*v))
		return
	}
	if c.err != nil {
		return
	}
	x, k := binary.Uvarint(c.buf[c.n:])
	if k <= 0 {
		c.err = ErrTruncated
		return
	}
	c.n += k
	*v = T(x)
}

func (c *coder) bool(b *bool) {
	if c.dec {
		*b = c.byte() == 1
		return
	}
	x := byte(0)
	if *b {
		x = 1
	}
	c.putByte(x)
}

// str carries a length-prefixed string; decoding copies it out of the
// frame.
func (c *coder) str(s *string) {
	if c.dec {
		*s = string(c.view())
	} else {
		c.room(binary.MaxVarintLen64 + len(*s))
		n := c.n + binary.PutUvarint(c.buf[c.n:], uint64(len(*s)))
		c.n = n + copy(c.buf[n:], *s)
	}
}

// bytes carries a length-prefixed byte field; decoding yields a view
// into the frame (see view).
func (c *coder) bytes(b *[]byte) {
	if c.dec {
		*b = c.view()
	} else {
		c.room(binary.MaxVarintLen64 + len(*b))
		n := c.n + binary.PutUvarint(c.buf[c.n:], uint64(len(*b)))
		c.n = n + copy(c.buf[n:], *b)
	}
}

// optBytes carries a byte field whose nil-ness is part of its value (a
// scan bound): 0 for nil, 1 and the bytes otherwise.
func (c *coder) optBytes(b *[]byte) {
	present := *b != nil
	c.bool(&present)
	if present {
		c.bytes(b)
	}
}

// entryFlagTombstone marks a deleted entry/cell on the wire.
const entryFlagTombstone = byte(1)

// version carries a cell version plus its flags byte: seq, node, flags.
func (c *coder) version(ver *row.Version, tombstone *bool) {
	num(c, &ver.Seq)
	num(c, &ver.Node)
	if c.dec {
		*tombstone = c.byte()&entryFlagTombstone != 0
	} else if *tombstone {
		c.putByte(entryFlagTombstone)
	} else {
		c.putByte(0)
	}
}

// cell carries one scanned cell: ck, value, version. Scan replies are
// the codec's one long element loop, so this is the one layout spelled
// per direction: encoding reserves room for the whole cell and appends
// it without a call per field.
func (c *coder) cell(cl *row.Cell) {
	if c.dec {
		cl.CK, cl.Value = c.view(), c.view()
		c.version(&cl.Ver, &cl.Tombstone)
		return
	}
	c.room(4*binary.MaxVarintLen64 + 1 + len(cl.CK) + len(cl.Value))
	b, n := c.buf, c.n
	n += binary.PutUvarint(b[n:], uint64(len(cl.CK)))
	n += copy(b[n:], cl.CK)
	n += binary.PutUvarint(b[n:], uint64(len(cl.Value)))
	n += copy(b[n:], cl.Value)
	n += binary.PutUvarint(b[n:], cl.Ver.Seq)
	n += binary.PutUvarint(b[n:], uint64(cl.Ver.Node))
	b[n] = 0
	if cl.Tombstone {
		b[n] = entryFlagTombstone
	}
	c.n = n + 1
}

// entries carries a run of row.Entry: pk, ck, value, version each.
func (c *coder) entries(s *[]row.Entry) {
	for i := range seq(c, s, 6) {
		e := &(*s)[i]
		c.str(&e.PK)
		c.bytes(&e.CK)
		c.bytes(&e.Value)
		c.version(&e.Ver, &e.Tombstone)
	}
}

// nodeAddrs carries an address book: (id, addr) pairs.
func (c *coder) nodeAddrs(s *[]NodeAddr) {
	for i := range seq(c, s, 2) {
		num(c, &(*s)[i].ID)
		c.str(&(*s)[i].Addr)
	}
}

// seq carries the count of a slice whose elements take at least minSize
// bytes each on the wire and returns it; the caller then carries each
// element. Decoding sizes the slice only from a count the rest of the
// frame can hold (count), and an empty one decodes as nil.
func seq[T any](c *coder, s *[]T, minSize int) int {
	if !c.dec {
		c.putUvarint(uint64(len(*s)))
	} else if n := c.count(minSize); n > 0 {
		*s = make([]T, n)
	}
	return len(*s)
}

// counts carries CountResponse's per-type tallies: a count, then (type
// byte, uvarint) pairs in map order.
func (c *coder) counts(m *map[uint8]uint64) {
	if !c.dec {
		c.putUvarint(uint64(len(*m)))
		for ty, n := range *m {
			c.putByte(ty)
			c.putUvarint(n)
		}
		return
	}
	if n := c.count(2); n > 0 {
		*m = make(map[uint8]uint64, min(n, 256))
		for range n {
			ty := c.byte()
			var cnt uint64
			num(c, &cnt)
			(*m)[ty] = cnt
		}
	}
}

// The encoding primitives write at n, growing buf when it is short.

// room makes sure k more bytes fit after n.
func (c *coder) room(k int) {
	if len(c.buf)-c.n < k {
		c.buf = append(c.buf[:c.n], make([]byte, k)...)
		c.buf = c.buf[:cap(c.buf)]
	}
}

func (c *coder) putUvarint(x uint64) {
	c.room(binary.MaxVarintLen64)
	c.n += binary.PutUvarint(c.buf[c.n:], x)
}

func (c *coder) putByte(b byte) {
	c.room(1)
	c.buf[c.n] = b
	c.n++
}

// The decoding primitives read at n; after the first error each returns
// zero without reading.

func (c *coder) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.n == len(c.buf) {
		c.err = ErrTruncated
		return 0
	}
	c.n++
	return c.buf[c.n-1]
}

// view returns a length-prefixed field as a view into the frame, with
// its capacity ending at its own last byte (row.carve's rule), or nil
// when the field is empty.
func (c *coder) view() []byte {
	if c.err != nil {
		return nil
	}
	l, k := binary.Uvarint(c.buf[c.n:])
	if k <= 0 || l > uint64(len(c.buf)-c.n-k) {
		c.err = ErrTruncated
		return nil
	}
	c.n += k
	if l == 0 {
		return nil
	}
	start := c.n
	c.n += int(l)
	return c.buf[start:c.n:c.n]
}

// count reads an element count whose elements take at least minSize
// bytes each on the wire. A count the rest of the frame cannot hold is
// a truncated frame — caught here, before a slice is sized from it.
func (c *coder) count(minSize int) int {
	var n uint64
	num(c, &n)
	if n > uint64((len(c.buf)-c.n)/minSize) {
		c.err = ErrTruncated
		return 0
	}
	return int(n)
}
