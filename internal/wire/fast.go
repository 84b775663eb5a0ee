package wire

import (
	"errors"
	"fmt"
	"sync"

	"scalekv/internal/enc"
	"scalekv/internal/row"
)

// FastCodec is the Kryo analogue: registered numeric type IDs and
// hand-written binary encodings. Frame layout: uvarint typeID, then the
// type's compact field encoding in declaration order, no names, no tags.
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
	out, err := appendMessage(enc.AppendUvarint((*sp)[:0], uint64(m.TypeID())), m)
	var frame []byte
	if err == nil {
		frame = make([]byte, len(out))
		copy(frame, out)
	}
	if cap(out) <= maxPooledScratch {
		*sp = out[:0]
		scratchPool.Put(sp)
	}
	return frame, err
}

// appendMessage appends m's fields to out, which holds its type ID.
func appendMessage(out []byte, m Message) ([]byte, error) {
	switch v := m.(type) {
	case *CountRequest:
		out = enc.AppendUvarint(out, v.QueryID)
		out = enc.AppendUvarint(out, uint64(v.Seq))
		out = appendString(out, v.PK)
		out = enc.AppendUvarint(out, uint64(v.TraceSendNanos))
		out = enc.AppendUvarint(out, v.Epoch)
	case *CountResponse:
		out = enc.AppendUvarint(out, v.QueryID)
		out = enc.AppendUvarint(out, uint64(v.Seq))
		out = enc.AppendUvarint(out, uint64(v.NodeID))
		out = enc.AppendUvarint(out, v.Elements)
		out = enc.AppendUvarint(out, uint64(len(v.Counts)))
		for ty, n := range v.Counts {
			out = append(out, ty)
			out = enc.AppendUvarint(out, n)
		}
		out = appendString(out, v.ErrMsg)
		out = enc.AppendUvarint(out, uint64(v.RecvNanos))
		out = enc.AppendUvarint(out, uint64(v.QueueNanos))
		out = enc.AppendUvarint(out, uint64(v.DBNanos))
	case *PutRequest:
		out = appendString(out, v.PK)
		out = enc.AppendBytes(out, v.CK)
		out = enc.AppendBytes(out, v.Value)
		out = enc.AppendUvarint(out, v.Epoch)
	case *PutResponse:
		out = appendString(out, v.ErrMsg)
	case *GetRequest:
		out = appendString(out, v.PK)
		out = enc.AppendBytes(out, v.CK)
		out = enc.AppendUvarint(out, v.Epoch)
	case *GetResponse:
		out = enc.AppendBytes(out, v.Value)
		out = appendBool(out, v.Found)
		out = appendString(out, v.ErrMsg)
		out = enc.AppendUvarint(out, v.VerSeq)
		out = enc.AppendUvarint(out, uint64(v.VerNode))
		out = appendBool(out, v.Tombstone)
	case *DeleteRequest:
		out = appendString(out, v.PK)
		out = enc.AppendBytes(out, v.CK)
		out = enc.AppendUvarint(out, v.Epoch)
	case *DeleteResponse:
		out = appendString(out, v.ErrMsg)
	case *ScanRequest:
		out = appendString(out, v.PK)
		out = appendOptBytes(out, v.From)
		out = appendOptBytes(out, v.To)
		out = enc.AppendUvarint(out, v.Epoch)
	case *ScanResponse:
		out = enc.AppendUvarint(out, uint64(len(v.Cells)))
		for _, c := range v.Cells {
			out = enc.AppendBytes(out, c.CK)
			out = enc.AppendBytes(out, c.Value)
			out = appendVersion(out, c.Ver, c.Tombstone)
		}
		out = appendString(out, v.ErrMsg)
	case *BatchPutRequest:
		out = enc.AppendUvarint(out, uint64(len(v.Entries)))
		for _, e := range v.Entries {
			out = appendEntry(out, e)
		}
		out = enc.AppendUvarint(out, v.Epoch)
	case *BatchPutResponse:
		out = enc.AppendUvarint(out, v.Applied)
		out = appendString(out, v.ErrMsg)
	case *MultiGetRequest:
		out = enc.AppendUvarint(out, uint64(len(v.Keys)))
		for _, k := range v.Keys {
			out = appendString(out, k.PK)
			out = enc.AppendBytes(out, k.CK)
		}
		out = enc.AppendUvarint(out, v.Epoch)
	case *MultiGetResponse:
		out = enc.AppendUvarint(out, uint64(len(v.Values)))
		for _, val := range v.Values {
			out = enc.AppendBytes(out, val.Value)
			out = appendBool(out, val.Found)
		}
		out = appendString(out, v.ErrMsg)
	case *RingStateRequest:
		// No fields.
	case *RingStateResponse:
		out = enc.AppendUvarint(out, v.Epoch)
		out = enc.AppendUvarint(out, uint64(v.Vnodes))
		out = enc.AppendUvarint(out, uint64(v.RF))
		out = appendNodeAddrs(out, v.Nodes)
		out = appendString(out, v.ErrMsg)
	case *StreamRangeRequest:
		out = enc.AppendUvarint(out, uint64(v.Lo))
		out = enc.AppendUvarint(out, uint64(v.Hi))
		out = enc.AppendUvarint(out, uint64(v.AfterToken))
		out = appendString(out, v.AfterPK)
		out = enc.AppendUvarint(out, uint64(v.MaxCells))
	case *StreamRangeResponse:
		out = enc.AppendUvarint(out, uint64(len(v.Entries)))
		for _, e := range v.Entries {
			out = appendEntry(out, e)
		}
		out = enc.AppendUvarint(out, uint64(v.NextToken))
		out = appendString(out, v.NextPK)
		out = appendBool(out, v.More)
		out = appendString(out, v.ErrMsg)
	case *DeleteRangeRequest:
		out = enc.AppendUvarint(out, uint64(v.Lo))
		out = enc.AppendUvarint(out, uint64(v.Hi))
	case *DeleteRangeResponse:
		out = enc.AppendUvarint(out, v.Removed)
		out = appendString(out, v.ErrMsg)
	case *DigestRequest:
		out = enc.AppendUvarint(out, uint64(v.Lo))
		out = enc.AppendUvarint(out, uint64(v.Hi))
		out = enc.AppendUvarint(out, uint64(v.Depth))
	case *DigestResponse:
		out = enc.AppendUvarint(out, uint64(len(v.Leaves)))
		for _, l := range v.Leaves {
			out = enc.AppendUvarint(out, l.Hash)
			out = enc.AppendUvarint(out, l.Cells)
		}
		out = appendString(out, v.ErrMsg)
	case *NodeStatsRequest:
		// No fields.
	case *NodeStatsResponse:
		out = enc.AppendUvarint(out, v.Epoch)
		out = enc.AppendUvarint(out, uint64(len(v.Shards)))
		for _, sh := range v.Shards {
			out = enc.AppendUvarint(out, sh.MemtableBytes)
			out = enc.AppendUvarint(out, uint64(sh.FrozenMemtables))
			out = enc.AppendUvarint(out, uint64(sh.SSTables))
		}
		out = enc.AppendUvarint(out, v.FlushedBytes)
		out = enc.AppendUvarint(out, v.FlushCount)
		out = enc.AppendUvarint(out, v.CompactionCount)
		out = enc.AppendUvarint(out, v.CompactionBytesIn)
		out = enc.AppendUvarint(out, v.CompactionBytesOut)
		out = enc.AppendUvarint(out, uint64(len(v.LevelTables)))
		for _, n := range v.LevelTables {
			out = enc.AppendUvarint(out, uint64(n))
		}
		out = enc.AppendUvarint(out, uint64(len(v.LevelBytes)))
		for _, n := range v.LevelBytes {
			out = enc.AppendUvarint(out, n)
		}
		out = enc.AppendUvarint(out, v.CacheHits)
		out = enc.AppendUvarint(out, v.CacheMisses)
		out = enc.AppendUvarint(out, v.CacheEvictions)
		out = enc.AppendUvarint(out, v.CacheBytes)
		out = enc.AppendUvarint(out, v.BlockBytesLogical)
		out = enc.AppendUvarint(out, v.BlockBytesStored)
		out = enc.AppendUvarint(out, uint64(len(v.Peers)))
		for _, p := range v.Peers {
			out = enc.AppendUvarint(out, uint64(p.ID))
			out = appendBool(out, p.Up)
			out = enc.AppendUvarint(out, uint64(p.Suspicion))
			out = enc.AppendUvarint(out, p.SinceMillis)
		}
		out = enc.AppendUvarint(out, v.DialCount)
		out = enc.AppendUvarint(out, v.RedialCount)
		out = appendString(out, v.ErrMsg)
	case *JoinRequest:
		out = enc.AppendUvarint(out, uint64(v.ID))
		out = appendString(out, v.Addr)
	case *JoinResponse:
		out = enc.AppendUvarint(out, v.Epoch)
		out = enc.AppendUvarint(out, uint64(v.Moves))
		out = enc.AppendUvarint(out, v.CellsStreamed)
		out = enc.AppendUvarint(out, v.CellsRetired)
		out = enc.AppendUvarint(out, uint64(v.Pages))
		out = enc.AppendUvarint(out, v.StreamNanos)
		out = enc.AppendUvarint(out, v.FlipNanos)
		out = appendString(out, v.RetireErr)
		out = appendString(out, v.ErrMsg)
	case *BeginMigrationRequest:
		out = enc.AppendUvarint(out, uint64(len(v.Moves)))
		for _, mv := range v.Moves {
			out = enc.AppendUvarint(out, uint64(mv.Lo))
			out = enc.AppendUvarint(out, uint64(mv.Hi))
			out = enc.AppendUvarint(out, uint64(mv.From))
			out = enc.AppendUvarint(out, uint64(mv.To))
		}
		out = appendNodeAddrs(out, v.Nodes)
	case *BeginMigrationResponse:
		out = appendString(out, v.ErrMsg)
	case *EndMigrationRequest:
		// No fields.
	case *EndMigrationResponse:
		out = appendString(out, v.ErrMsg)
	case *SetRingStateRequest:
		out = enc.AppendUvarint(out, v.Epoch)
		out = enc.AppendUvarint(out, uint64(v.Vnodes))
		out = enc.AppendUvarint(out, uint64(v.RF))
		out = appendNodeAddrs(out, v.Nodes)
	case *SetRingStateResponse:
		out = appendString(out, v.ErrMsg)
	case *PingRequest:
		out = enc.AppendUvarint(out, uint64(v.FromID))
		out = enc.AppendUvarint(out, v.Epoch)
	case *PingResponse:
		out = enc.AppendUvarint(out, uint64(v.ID))
		out = enc.AppendUvarint(out, v.Epoch)
		out = appendString(out, v.ErrMsg)
	case *LeaveRequest:
		out = enc.AppendUvarint(out, uint64(v.ID))
	case *LeaveResponse:
		out = appendString(out, v.ErrMsg)
	default:
		return out, fmt.Errorf("wire: fast codec cannot marshal %T", m)
	}
	return out, nil
}

// appendString is enc.AppendBytes for a string, without converting it.
func appendString(out []byte, s string) []byte {
	return append(enc.AppendUvarint(out, uint64(len(s))), s...)
}

// appendBool encodes a bool as one byte.
func appendBool(out []byte, b bool) []byte {
	if b {
		return append(out, 1)
	}
	return append(out, 0)
}

// entryFlagTombstone marks a deleted entry/cell on the wire.
const entryFlagTombstone = byte(1)

// appendVersion encodes a cell version plus flags: seq, node, flags.
func appendVersion(out []byte, ver row.Version, tombstone bool) []byte {
	out = enc.AppendUvarint(out, ver.Seq)
	out = enc.AppendUvarint(out, uint64(ver.Node))
	flags := byte(0)
	if tombstone {
		flags = entryFlagTombstone
	}
	return append(out, flags)
}

// appendEntry encodes one row.Entry: pk, ck, value, version, flags.
func appendEntry(out []byte, e row.Entry) []byte {
	out = appendString(out, e.PK)
	out = enc.AppendBytes(out, e.CK)
	out = enc.AppendBytes(out, e.Value)
	return appendVersion(out, e.Ver, e.Tombstone)
}

// appendNodeAddrs encodes an address book: count, then (id, addr) pairs.
func appendNodeAddrs(out []byte, nodes []NodeAddr) []byte {
	out = enc.AppendUvarint(out, uint64(len(nodes)))
	for _, n := range nodes {
		out = enc.AppendUvarint(out, uint64(n.ID))
		out = appendString(out, n.Addr)
	}
	return out
}

// Unmarshal implements Codec. Every count is bounded by the bytes left
// before anything is sized from it (decoder.count), so an element count
// off the wire can neither panic nor commit memory the frame does not
// back.
func (FastCodec) Unmarshal(data []byte) (Message, error) {
	id, n := enc.Uvarint(data)
	if n <= 0 {
		return nil, ErrTruncated
	}
	m, err := newMessage(uint16(id))
	if err != nil {
		return nil, err
	}
	d := decoder{buf: data[n:]}
	switch v := m.(type) {
	case *CountRequest:
		v.QueryID = d.uvarint()
		v.Seq = uint32(d.uvarint())
		v.PK = string(d.bytes())
		v.TraceSendNanos = int64(d.uvarint())
		v.Epoch = d.uvarint()
	case *CountResponse:
		v.QueryID = d.uvarint()
		v.Seq = uint32(d.uvarint())
		v.NodeID = uint32(d.uvarint())
		v.Elements = d.uvarint()
		if cnt := d.count(2); cnt > 0 { // type, count
			v.Counts = make(map[uint8]uint64, min(cnt, 256))
			for range cnt {
				ty := d.byte()
				v.Counts[ty] = d.uvarint()
			}
		}
		v.ErrMsg = string(d.bytes())
		v.RecvNanos = int64(d.uvarint())
		v.QueueNanos = int64(d.uvarint())
		v.DBNanos = int64(d.uvarint())
	case *PutRequest:
		v.PK = string(d.bytes())
		v.CK = d.bytes()
		v.Value = d.bytes()
		v.Epoch = d.uvarint()
	case *PutResponse:
		v.ErrMsg = string(d.bytes())
	case *GetRequest:
		v.PK = string(d.bytes())
		v.CK = d.bytes()
		v.Epoch = d.uvarint()
	case *GetResponse:
		v.Value = d.bytes()
		v.Found = d.byte() == 1
		v.ErrMsg = string(d.bytes())
		v.VerSeq = d.uvarint()
		v.VerNode = uint16(d.uvarint())
		v.Tombstone = d.byte() == 1
	case *DeleteRequest:
		v.PK = string(d.bytes())
		v.CK = d.bytes()
		v.Epoch = d.uvarint()
	case *DeleteResponse:
		v.ErrMsg = string(d.bytes())
	case *ScanRequest:
		v.PK = string(d.bytes())
		v.From = d.optBytes()
		v.To = d.optBytes()
		v.Epoch = d.uvarint()
	case *ScanResponse:
		if cnt := d.count(5); cnt > 0 { // ck, value, seq, node, flags
			v.Cells = make([]row.Cell, cnt)
			for i := range v.Cells {
				c := &v.Cells[i]
				c.CK, c.Value = d.bytes(), d.bytes()
				c.Ver, c.Tombstone = d.version()
			}
		}
		v.ErrMsg = string(d.bytes())
	case *BatchPutRequest:
		v.Entries = d.entries()
		v.Epoch = d.uvarint()
	case *BatchPutResponse:
		v.Applied = d.uvarint()
		v.ErrMsg = string(d.bytes())
	case *MultiGetRequest:
		if cnt := d.count(2); cnt > 0 { // pk, ck
			v.Keys = make([]GetKey, cnt)
			for i := range v.Keys {
				v.Keys[i] = GetKey{PK: string(d.bytes()), CK: d.bytes()}
			}
		}
		v.Epoch = d.uvarint()
	case *MultiGetResponse:
		if cnt := d.count(2); cnt > 0 { // value, found
			v.Values = make([]MultiGetValue, cnt)
			for i := range v.Values {
				v.Values[i] = MultiGetValue{Value: d.bytes(), Found: d.byte() == 1}
			}
		}
		v.ErrMsg = string(d.bytes())
	case *RingStateRequest:
		// No fields.
	case *RingStateResponse:
		v.Epoch = d.uvarint()
		v.Vnodes = uint32(d.uvarint())
		v.RF = uint32(d.uvarint())
		v.Nodes = d.nodeAddrs()
		v.ErrMsg = string(d.bytes())
	case *StreamRangeRequest:
		v.Lo = int64(d.uvarint())
		v.Hi = int64(d.uvarint())
		v.AfterToken = int64(d.uvarint())
		v.AfterPK = string(d.bytes())
		v.MaxCells = uint32(d.uvarint())
	case *StreamRangeResponse:
		v.Entries = d.entries()
		v.NextToken = int64(d.uvarint())
		v.NextPK = string(d.bytes())
		v.More = d.byte() == 1
		v.ErrMsg = string(d.bytes())
	case *DeleteRangeRequest:
		v.Lo = int64(d.uvarint())
		v.Hi = int64(d.uvarint())
	case *DeleteRangeResponse:
		v.Removed = d.uvarint()
		v.ErrMsg = string(d.bytes())
	case *DigestRequest:
		v.Lo = int64(d.uvarint())
		v.Hi = int64(d.uvarint())
		v.Depth = uint32(d.uvarint())
	case *DigestResponse:
		if cnt := d.count(2); cnt > 0 { // hash, cells
			v.Leaves = make([]DigestLeaf, cnt)
			for i := range v.Leaves {
				v.Leaves[i] = DigestLeaf{Hash: d.uvarint(), Cells: d.uvarint()}
			}
		}
		v.ErrMsg = string(d.bytes())
	case *NodeStatsRequest:
		// No fields.
	case *NodeStatsResponse:
		v.Epoch = d.uvarint()
		if cnt := d.count(3); cnt > 0 { // memtable bytes, frozen, tables
			v.Shards = make([]ShardStat, cnt)
			for i := range v.Shards {
				v.Shards[i] = ShardStat{
					MemtableBytes:   d.uvarint(),
					FrozenMemtables: uint32(d.uvarint()),
					SSTables:        uint32(d.uvarint()),
				}
			}
		}
		v.FlushedBytes = d.uvarint()
		v.FlushCount = d.uvarint()
		v.CompactionCount = d.uvarint()
		v.CompactionBytesIn = d.uvarint()
		v.CompactionBytesOut = d.uvarint()
		if cnt := d.count(1); cnt > 0 {
			v.LevelTables = make([]uint32, cnt)
			for i := range v.LevelTables {
				v.LevelTables[i] = uint32(d.uvarint())
			}
		}
		if cnt := d.count(1); cnt > 0 {
			v.LevelBytes = make([]uint64, cnt)
			for i := range v.LevelBytes {
				v.LevelBytes[i] = d.uvarint()
			}
		}
		v.CacheHits = d.uvarint()
		v.CacheMisses = d.uvarint()
		v.CacheEvictions = d.uvarint()
		v.CacheBytes = d.uvarint()
		v.BlockBytesLogical = d.uvarint()
		v.BlockBytesStored = d.uvarint()
		if cnt := d.count(4); cnt > 0 { // id, up, suspicion, since
			v.Peers = make([]PeerStat, cnt)
			for i := range v.Peers {
				v.Peers[i] = PeerStat{
					ID:          uint32(d.uvarint()),
					Up:          d.byte() == 1,
					Suspicion:   uint32(d.uvarint()),
					SinceMillis: d.uvarint(),
				}
			}
		}
		v.DialCount = d.uvarint()
		v.RedialCount = d.uvarint()
		v.ErrMsg = string(d.bytes())
	case *JoinRequest:
		v.ID = uint32(d.uvarint())
		v.Addr = string(d.bytes())
	case *JoinResponse:
		v.Epoch = d.uvarint()
		v.Moves = uint32(d.uvarint())
		v.CellsStreamed = d.uvarint()
		v.CellsRetired = d.uvarint()
		v.Pages = uint32(d.uvarint())
		v.StreamNanos = d.uvarint()
		v.FlipNanos = d.uvarint()
		v.RetireErr = string(d.bytes())
		v.ErrMsg = string(d.bytes())
	case *BeginMigrationRequest:
		if cnt := d.count(4); cnt > 0 { // lo, hi, from, to
			v.Moves = make([]Move, cnt)
			for i := range v.Moves {
				v.Moves[i] = Move{
					Lo:   int64(d.uvarint()),
					Hi:   int64(d.uvarint()),
					From: uint32(d.uvarint()),
					To:   uint32(d.uvarint()),
				}
			}
		}
		v.Nodes = d.nodeAddrs()
	case *BeginMigrationResponse:
		v.ErrMsg = string(d.bytes())
	case *EndMigrationRequest:
		// No fields.
	case *EndMigrationResponse:
		v.ErrMsg = string(d.bytes())
	case *SetRingStateRequest:
		v.Epoch = d.uvarint()
		v.Vnodes = uint32(d.uvarint())
		v.RF = uint32(d.uvarint())
		v.Nodes = d.nodeAddrs()
	case *SetRingStateResponse:
		v.ErrMsg = string(d.bytes())
	case *PingRequest:
		v.FromID = uint32(d.uvarint())
		v.Epoch = d.uvarint()
	case *PingResponse:
		v.ID = uint32(d.uvarint())
		v.Epoch = d.uvarint()
		v.ErrMsg = string(d.bytes())
	case *LeaveRequest:
		v.ID = uint32(d.uvarint())
	case *LeaveResponse:
		v.ErrMsg = string(d.bytes())
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		// A well-formed fast frame is consumed exactly; leftovers mean a
		// foreign format whose length prefix happened to parse as a type
		// ID (e.g. a slow-codec frame).
		return nil, fmt.Errorf("wire: %d trailing bytes in fast frame", len(d.buf))
	}
	return m, nil
}

// appendOptBytes encodes a possibly-nil byte slice: 0 = nil, 1 = present.
func appendOptBytes(out, b []byte) []byte {
	if b == nil {
		return append(out, 0)
	}
	out = append(out, 1)
	return enc.AppendBytes(out, b)
}

// decoder is a cursor over a frame with sticky error handling. It lives
// on Unmarshal's stack: nothing it decodes is copied into it.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := enc.Uvarint(d.buf)
	if n <= 0 {
		d.err = ErrTruncated
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) byte() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.err = ErrTruncated
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// bytes returns a length-prefixed field as a view into the frame, with
// its capacity ending at its own last byte (row.carve's rule), or nil
// when the field is empty.
func (d *decoder) bytes() []byte {
	if d.err != nil {
		return nil
	}
	b, n := enc.Bytes(d.buf)
	if n == 0 {
		d.err = ErrTruncated
		return nil
	}
	d.buf = d.buf[n:]
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}

func (d *decoder) optBytes() []byte {
	if d.byte() == 0 {
		return nil
	}
	return d.bytes()
}

// count reads an element count whose elements take at least minSize
// bytes each on the wire. A count the rest of the frame cannot hold is
// a truncated frame — caught here, before a slice is sized from it.
func (d *decoder) count(minSize int) int {
	cnt := d.uvarint()
	if cnt > uint64(len(d.buf)/minSize) {
		d.err = ErrTruncated
		return 0
	}
	return int(cnt)
}

// version decodes a cell version plus flags written by appendVersion.
func (d *decoder) version() (row.Version, bool) {
	seq := d.uvarint()
	node := uint16(d.uvarint())
	return row.Version{Seq: seq, Node: node}, d.byte()&entryFlagTombstone != 0
}

// entries decodes a count-prefixed run of row.Entry written by
// appendEntry.
func (d *decoder) entries() []row.Entry {
	cnt := d.count(6) // pk, ck, value, seq, node, flags
	if cnt == 0 {
		return nil
	}
	out := make([]row.Entry, cnt)
	for i := range out {
		e := &out[i]
		e.PK, e.CK, e.Value = string(d.bytes()), d.bytes(), d.bytes()
		e.Ver, e.Tombstone = d.version()
	}
	return out
}

// nodeAddrs decodes an address book written by appendNodeAddrs.
func (d *decoder) nodeAddrs() []NodeAddr {
	cnt := d.count(2) // id, addr
	if cnt == 0 {
		return nil
	}
	nodes := make([]NodeAddr, cnt)
	for i := range nodes {
		nodes[i] = NodeAddr{ID: uint32(d.uvarint()), Addr: string(d.bytes())}
	}
	return nodes
}
