// Package wire defines the messages exchanged between the master and the
// slaves, and two interchangeable codecs that reproduce the paper's
// Section V-B serialization experiment:
//
//   - SlowCodec is the analogue of Java's default serialization: a
//     self-describing format that embeds the type name, every field name
//     and a per-field type tag, and that is encoded and decoded through
//     reflection. Flexible, and expensive in both CPU and bytes.
//   - FastCodec is the analogue of Kryo with registered classes: each
//     message type is registered under a numeric ID (registry) and its
//     fields are listed once, in wire order, in walk.
//
// The paper measured 150 µs/message with the default serializer and
// 19 µs after switching — almost an order of magnitude — and a payload
// drop from 7.5 MB to 900 KB for ten thousand messages. The codec
// benchmarks in this package reproduce the ratio on the Go stack. Only
// FastCodec serves traffic; SlowCodec is the experiment's subject.
package wire

import (
	"fmt"

	"scalekv/internal/row"
)

// Message is implemented by every wire message.
type Message interface {
	// TypeID identifies the concrete message type in FastCodec frames.
	TypeID() uint16
}

// Reply is implemented by every response message. ErrText is the error
// the answering node reported in ErrMsg, "" when it served the request.
type Reply interface {
	Message
	ErrText() string
}

func (m *CountResponse) ErrText() string          { return m.ErrMsg }
func (m *PutResponse) ErrText() string            { return m.ErrMsg }
func (m *GetResponse) ErrText() string            { return m.ErrMsg }
func (m *ScanResponse) ErrText() string           { return m.ErrMsg }
func (m *BatchPutResponse) ErrText() string       { return m.ErrMsg }
func (m *MultiGetResponse) ErrText() string       { return m.ErrMsg }
func (m *RingStateResponse) ErrText() string      { return m.ErrMsg }
func (m *StreamRangeResponse) ErrText() string    { return m.ErrMsg }
func (m *DeleteRangeResponse) ErrText() string    { return m.ErrMsg }
func (m *NodeStatsResponse) ErrText() string      { return m.ErrMsg }
func (m *DeleteResponse) ErrText() string         { return m.ErrMsg }
func (m *DigestResponse) ErrText() string         { return m.ErrMsg }
func (m *JoinResponse) ErrText() string           { return m.ErrMsg }
func (m *BeginMigrationResponse) ErrText() string { return m.ErrMsg }
func (m *EndMigrationResponse) ErrText() string   { return m.ErrMsg }
func (m *SetRingStateResponse) ErrText() string   { return m.ErrMsg }
func (m *PingResponse) ErrText() string           { return m.ErrMsg }
func (m *LeaveResponse) ErrText() string          { return m.ErrMsg }
func (m *ErrorResponse) ErrText() string          { return m.ErrMsg }

// Message type IDs. Stable on the wire; never reorder.
const (
	TypeCountRequest uint16 = iota + 1
	TypeCountResponse
	TypePutRequest
	TypePutResponse
	TypeGetRequest
	TypeGetResponse
	TypeScanRequest
	TypeScanResponse
	TypeBatchPutRequest
	TypeBatchPutResponse
	TypeMultiGetRequest
	TypeMultiGetResponse
	TypeRingStateRequest
	TypeRingStateResponse
	TypeStreamRangeRequest
	TypeStreamRangeResponse
	TypeDeleteRangeRequest
	TypeDeleteRangeResponse
	TypeNodeStatsRequest
	TypeNodeStatsResponse
	TypeDeleteRequest
	TypeDeleteResponse
	TypeDigestRequest
	TypeDigestResponse
	TypeJoinRequest
	TypeJoinResponse
	TypeBeginMigrationRequest
	TypeBeginMigrationResponse
	TypeEndMigrationRequest
	TypeEndMigrationResponse
	TypeSetRingStateRequest
	TypeSetRingStateResponse
	TypePingRequest
	TypePingResponse
	TypeLeaveRequest
	TypeLeaveResponse
	TypeErrorResponse
)

// --- Topology epochs --------------------------------------------------------
//
// Routed data-path requests carry the topology epoch the client routed
// by. A node whose topology is at a different epoch answers with a
// wrong-epoch error instead of serving the request, forcing the client
// to refresh its ring and re-route — the mechanism that keeps reads and
// writes correct while nodes join and leave. Epoch 0 is the wildcard:
// unversioned traffic (admin tooling, rebalance streaming, tests built
// on raw wire messages) bypasses the check.

// wrongEpochPrefix tags wrong-epoch rejections inside ErrMsg fields, so
// no response message needs a new field to carry the condition.
const wrongEpochPrefix = "wrong epoch: node at "

// WrongEpochMsg formats a node's rejection of a request routed with a
// stale (or future) topology epoch.
func WrongEpochMsg(nodeEpoch, reqEpoch uint64) string {
	return fmt.Sprintf("%s%d, request at %d", wrongEpochPrefix, nodeEpoch, reqEpoch)
}

// IsWrongEpoch reports whether an ErrMsg is a wrong-epoch rejection.
func IsWrongEpoch(msg string) bool {
	return len(msg) >= len(wrongEpochPrefix) && msg[:len(wrongEpochPrefix)] == wrongEpochPrefix
}

// CountRequest asks a slave to aggregate — count by type — one partition
// stored locally. This is the paper's prototype query unit: the master
// issues one CountRequest per key.
type CountRequest struct {
	QueryID uint64
	Seq     uint32
	PK      string
	// TraceSendNanos carries the master's send timestamp so the slave
	// can attribute the master-to-slave stage (Aeneas-style tracing).
	TraceSendNanos int64
	// Epoch is the routing topology version. Client.Count sets it so a
	// stale client cannot silently count a partition at a node that
	// retired it; CountAll's fan-out leaves it 0 (unversioned) and
	// accounts failures per request instead.
	Epoch uint64
}

// TypeID implements Message.
func (*CountRequest) TypeID() uint16 { return TypeCountRequest }

// CountResponse returns the per-type counts of one partition.
type CountResponse struct {
	QueryID  uint64
	Seq      uint32
	NodeID   uint32
	Elements uint64
	Counts   map[uint8]uint64
	ErrMsg   string
	// Stage timings reported back for the profile harness (Figure 4):
	// RecvNanos is the slave's absolute receive timestamp (same-host
	// clock domain), QueueNanos the time spent waiting for a database
	// slot and DBNanos the in-database service time.
	RecvNanos  int64
	QueueNanos int64
	DBNanos    int64
}

// TypeID implements Message.
func (*CountResponse) TypeID() uint16 { return TypeCountResponse }

// PutRequest writes one cell. Epoch is the topology version the client
// routed by (0 = unversioned, accepted at any epoch).
type PutRequest struct {
	PK    string
	CK    []byte
	Value []byte
	Epoch uint64
}

// TypeID implements Message.
func (*PutRequest) TypeID() uint16 { return TypePutRequest }

// PutResponse acknowledges a write.
type PutResponse struct {
	ErrMsg string
}

// TypeID implements Message.
func (*PutResponse) TypeID() uint16 { return TypePutResponse }

// DeleteRequest deletes one cell — a first-class distributed write that
// lands as a versioned tombstone, so the delete survives flushes,
// compactions and rebalances on every replica. Epoch semantics match
// PutRequest.
type DeleteRequest struct {
	PK    string
	CK    []byte
	Epoch uint64
}

// TypeID implements Message.
func (*DeleteRequest) TypeID() uint16 { return TypeDeleteRequest }

// DeleteResponse acknowledges a delete.
type DeleteResponse struct {
	ErrMsg string
}

// TypeID implements Message.
func (*DeleteResponse) TypeID() uint16 { return TypeDeleteResponse }

// GetRequest reads one cell. Epoch 0 bypasses the topology check.
type GetRequest struct {
	PK    string
	CK    []byte
	Epoch uint64
}

// TypeID implements Message.
func (*GetRequest) TypeID() uint16 { return TypeGetRequest }

// GetResponse returns one cell value, together with the version of the
// write that produced it — the client's read-repair compares and
// re-propagates by it.
type GetResponse struct {
	Value  []byte
	Found  bool
	ErrMsg string
	// VerSeq/VerNode are the winning cell's version (zero when the cell
	// was written before versioning, or when the address holds nothing
	// at all).
	VerSeq  uint64
	VerNode uint16
	// Tombstone reports that the address is deleted: the winning cell is
	// a versioned tombstone (Found stays false — the value is gone). The
	// client's read-repair forwards the tombstone to lagging replicas so
	// a failover read of a deleted cell heals the divergence instead of
	// leaving the old value live elsewhere.
	Tombstone bool
}

// TypeID implements Message.
func (*GetResponse) TypeID() uint16 { return TypeGetResponse }

// ScanRequest reads a clustering range of a partition. Nil bounds mean
// unbounded.
type ScanRequest struct {
	PK    string
	From  []byte
	To    []byte
	Epoch uint64
}

// TypeID implements Message.
func (*ScanRequest) TypeID() uint16 { return TypeScanRequest }

// ScanResponse returns the cells of a range read.
type ScanResponse struct {
	Cells  []row.Cell
	ErrMsg string
}

// TypeID implements Message.
func (*ScanResponse) TypeID() uint16 { return TypeScanResponse }

// BatchPutRequest writes many cells in one frame — the aggregated-put
// unit of the bulk-write pipeline. Entries may span partitions; the
// receiving node group-commits them in one engine call. Entries carry
// their version and tombstone flag on the wire: client-originated
// writes send the zero version (the accepting node stamps them), while
// rebalance streaming, dual-write forwarding and read-repair send the
// original stamps so every replica's last-write-wins merge picks the
// same winner.
type BatchPutRequest struct {
	Entries []row.Entry
	// Epoch is the routing topology version (0 = unversioned — the
	// rebalance streamer writes moved ranges with 0 so a mid-migration
	// target accepts them regardless of its current epoch).
	Epoch uint64
}

// TypeID implements Message.
func (*BatchPutRequest) TypeID() uint16 { return TypeBatchPutRequest }

// BatchPutResponse acknowledges a batch write.
type BatchPutResponse struct {
	// Applied is how many entries were committed: len(Entries) on
	// success, 0 on error. A zero does NOT mean nothing was applied —
	// the engine keeps any prefix that committed before the failure
	// (same semantics as a partially completed sequence of Puts) — so
	// Applied cannot be used to resume a failed load; re-send the whole
	// batch (puts are idempotent, last write wins).
	Applied uint64
	ErrMsg  string
}

// TypeID implements Message.
func (*BatchPutResponse) TypeID() uint16 { return TypeBatchPutResponse }

// GetKey addresses one cell for a multi-get.
type GetKey struct {
	PK string
	CK []byte
}

// MultiGetRequest reads many cells in one frame.
type MultiGetRequest struct {
	Keys  []GetKey
	Epoch uint64
}

// TypeID implements Message.
func (*MultiGetRequest) TypeID() uint16 { return TypeMultiGetRequest }

// MultiGetValue is one multi-get result; Values[i] answers Keys[i].
type MultiGetValue struct {
	Value []byte
	Found bool
}

// MultiGetResponse returns the values of a multi-get, positionally
// matching the request keys.
type MultiGetResponse struct {
	Values []MultiGetValue
	ErrMsg string
}

// TypeID implements Message.
func (*MultiGetResponse) TypeID() uint16 { return TypeMultiGetResponse }

// RingStateRequest asks a node for its current topology. Any node can
// answer; clients use it to bootstrap and to recover from wrong-epoch
// rejections.
type RingStateRequest struct{}

// TypeID implements Message.
func (*RingStateRequest) TypeID() uint16 { return TypeRingStateRequest }

// NodeAddr pairs a ring member with its dialable transport address.
type NodeAddr struct {
	ID   uint32
	Addr string
}

// RingStateResponse carries a topology: epoch, members, the vnode
// count and the replication factor the ring runs at. Token positions
// are derived deterministically from (member ID, vnode index), so the
// membership list IS the token list in compressed form —
// hashring.FromNodes reconstructs placement exactly. RF lets a
// bootstrapping client or joiner adopt the ring's replication factor
// instead of guessing (0 = unknown, pre-membership nodes).
type RingStateResponse struct {
	Epoch  uint64
	Vnodes uint32
	RF     uint32
	Nodes  []NodeAddr
	ErrMsg string
}

// TypeID implements Message.
func (*RingStateResponse) TypeID() uint16 { return TypeRingStateResponse }

// StreamRangeRequest asks a node for one page of the cells whose
// partition token falls in the inclusive range [Lo, Hi]. Pages walk the
// range in (token, partition key) order; the cursor (AfterToken,
// AfterPK) resumes strictly after the named partition — pass
// (math.MinInt64, "") for the first page. MaxCells bounds the page
// size (whole partitions only; 0 means the server default).
type StreamRangeRequest struct {
	Lo, Hi     int64
	AfterToken int64
	AfterPK    string
	MaxCells   uint32
}

// TypeID implements Message.
func (*StreamRangeRequest) TypeID() uint16 { return TypeStreamRangeRequest }

// StreamRangeResponse is one page of a range stream. When More is set
// the client passes (NextToken, NextPK) as the next request's cursor.
type StreamRangeResponse struct {
	Entries   []row.Entry
	NextToken int64
	NextPK    string
	More      bool
	ErrMsg    string
}

// TypeID implements Message.
func (*StreamRangeResponse) TypeID() uint16 { return TypeStreamRangeResponse }

// DeleteRangeRequest retires every partition whose token falls in the
// inclusive range [Lo, Hi] from the receiving node — the final step of
// a range handoff, issued only after the new owner serves the range.
type DeleteRangeRequest struct {
	Lo, Hi int64
}

// TypeID implements Message.
func (*DeleteRangeRequest) TypeID() uint16 { return TypeDeleteRangeRequest }

// DeleteRangeResponse reports how many cells the purge removed.
type DeleteRangeResponse struct {
	Removed uint64
	ErrMsg  string
}

// TypeID implements Message.
func (*DeleteRangeResponse) TypeID() uint16 { return TypeDeleteRangeResponse }

// DigestRequest asks a node for the Merkle-style digest of the
// inclusive token range [Lo, Hi] at the given tree depth — the probe of
// the anti-entropy repair pass. Digests are admin-class traffic like
// range streaming: no epoch field, valid at any topology. Both sides
// derive the leaf bucket boundaries deterministically from (Lo, Hi,
// Depth), so only hashes travel; a repair descends into a mismatched
// leaf by issuing another DigestRequest over that leaf's sub-range.
type DigestRequest struct {
	Lo, Hi int64
	Depth  uint32
}

// TypeID implements Message.
func (*DigestRequest) TypeID() uint16 { return TypeDigestRequest }

// DigestLeaf is one digest bucket on the wire: the hash of the bucket's
// (pk, ck, version, flags) tuples — tombstones included — and the tuple
// count (the repair pass's descend-or-stream signal).
type DigestLeaf struct {
	Hash  uint64
	Cells uint64
}

// DigestResponse returns the digest leaves of the requested range, leaf
// i covering the i-th bucket of the (Lo, Hi, Depth) layout.
type DigestResponse struct {
	Leaves []DigestLeaf
	ErrMsg string
}

// TypeID implements Message.
func (*DigestResponse) TypeID() uint16 { return TypeDigestResponse }

// --- Membership protocol ----------------------------------------------------
//
// These messages lift the join/leave state machine onto the wire so
// real processes form and heal a ring without an in-process
// coordinator. A fresh node dials a seed, learns the current topology
// (RingStateRequest), boots at that epoch, then sends one JoinRequest;
// the seed drives the whole state machine — ownership diff, dual-write
// window (BeginMigration), paged range streaming, epoch flip
// (SetRingState), retirement (EndMigration + DeleteRange) — over these
// messages and answers with the final epoch. Migration-control traffic
// is admin-class like range streaming: no epoch fields, valid at any
// topology, serialized by the coordinating node.

// Move is one range handoff on the wire: the inclusive token range
// [Lo, Hi] moves from replica From to replica To at the epoch flip.
type Move struct {
	Lo, Hi   int64
	From, To uint32
}

// JoinRequest asks the receiving member to bring the sender into the
// ring. ID is the joiner's chosen node ID (it must already serve at
// Addr, booted at the seed's current topology, so dual-write forwards
// and streamed pages land somewhere). The seed serializes joins: a
// second JoinRequest arriving mid-migration is rejected and retried.
type JoinRequest struct {
	ID   uint32
	Addr string
}

// TypeID implements Message.
func (*JoinRequest) TypeID() uint16 { return TypeJoinRequest }

// JoinResponse reports the outcome of a join: the epoch the ring
// flipped to and the rebalance summary (mirroring RebalanceReport).
// RetireErr is non-fatal — the join succeeded but some source-side
// range purges failed and will be reclaimed by a later repair/purge.
type JoinResponse struct {
	Epoch         uint64
	Moves         uint32
	CellsStreamed uint64
	CellsRetired  uint64
	Pages         uint32
	StreamNanos   uint64
	FlipNanos     uint64
	RetireErr     string
	ErrMsg        string
}

// TypeID implements Message.
func (*JoinResponse) TypeID() uint16 { return TypeJoinResponse }

// BeginMigrationRequest opens the dual-write window on the receiving
// node. The node filters Moves for relevance itself: ranges it is the
// source of get forwarded-to targets (dialed from the Nodes book),
// ranges it is the target of get tombstone-GC fences. Nodes is the
// address book of the NEXT epoch, so forward targets that are not yet
// members are dialable.
type BeginMigrationRequest struct {
	Moves []Move
	Nodes []NodeAddr
}

// TypeID implements Message.
func (*BeginMigrationRequest) TypeID() uint16 { return TypeBeginMigrationRequest }

// BeginMigrationResponse acknowledges the dual-write window.
type BeginMigrationResponse struct {
	ErrMsg string
}

// TypeID implements Message.
func (*BeginMigrationResponse) TypeID() uint16 { return TypeBeginMigrationResponse }

// EndMigrationRequest closes the receiving node's migration window:
// dual-write forwarding stops and the target-side GC fences lift.
// Issued only after every node serves the new epoch.
type EndMigrationRequest struct{}

// TypeID implements Message.
func (*EndMigrationRequest) TypeID() uint16 { return TypeEndMigrationRequest }

// EndMigrationResponse acknowledges the window close.
type EndMigrationResponse struct {
	ErrMsg string
}

// TypeID implements Message.
func (*EndMigrationResponse) TypeID() uint16 { return TypeEndMigrationResponse }

// SetRingStateRequest installs a topology on the receiving node — the
// epoch flip. The node adopts it only if Epoch is newer than its
// current ring, persists it crash-atomically to its topology file, and
// from then on rejects data-path requests routed at other epochs.
type SetRingStateRequest struct {
	Epoch  uint64
	Vnodes uint32
	RF     uint32
	Nodes  []NodeAddr
}

// TypeID implements Message.
func (*SetRingStateRequest) TypeID() uint16 { return TypeSetRingStateRequest }

// SetRingStateResponse acknowledges a topology install.
type SetRingStateResponse struct {
	ErrMsg string
}

// TypeID implements Message.
func (*SetRingStateResponse) TypeID() uint16 { return TypeSetRingStateResponse }

// PingRequest is a liveness probe between peers. FromID/Epoch identify
// the prober and its ring view; the reply carries the receiver's, so a
// probe doubles as a cheap epoch-skew detector.
type PingRequest struct {
	FromID uint32
	Epoch  uint64
}

// TypeID implements Message.
func (*PingRequest) TypeID() uint16 { return TypePingRequest }

// PingResponse answers a probe with the receiver's identity and epoch.
type PingResponse struct {
	ID     uint32
	Epoch  uint64
	ErrMsg string
}

// TypeID implements Message.
func (*PingResponse) TypeID() uint16 { return TypePingResponse }

// LeaveRequest announces a graceful departure: the sender is shutting
// down NOW. Receivers mark the peer down immediately instead of
// waiting for probe timeouts. It does NOT change membership — the
// departed node still owns its ranges (and rejoins on restart); a
// permanent removal goes through the remove state machine.
type LeaveRequest struct {
	ID uint32
}

// TypeID implements Message.
func (*LeaveRequest) TypeID() uint16 { return TypeLeaveRequest }

// LeaveResponse acknowledges a departure announcement.
type LeaveResponse struct {
	ErrMsg string
}

// TypeID implements Message.
func (*LeaveResponse) TypeID() uint16 { return TypeLeaveResponse }

// ErrorResponse is a node's answer to a frame it cannot decode or a
// message it does not serve, whatever was asked: the caller reports the
// text instead of failing to recognise the reply.
type ErrorResponse struct {
	ErrMsg string
}

// TypeID implements Message.
func (*ErrorResponse) TypeID() uint16 { return TypeErrorResponse }

// NodeStatsRequest asks a node for its storage-engine load summary.
type NodeStatsRequest struct{}

// TypeID implements Message.
func (*NodeStatsRequest) TypeID() uint16 { return TypeNodeStatsRequest }

// ShardStat is one engine shard's load snapshot.
type ShardStat struct {
	MemtableBytes   uint64
	FrozenMemtables uint32
	SSTables        uint32
}

// NodeStatsResponse summarizes a node's engine: per-shard backlog plus
// cumulative flush/compaction work. The coordinator uses it to pick the
// least-loaded streaming source among a range's replicas; deployments
// read the level layout and compaction byte counters to watch
// compaction debt and write amplification.
type NodeStatsResponse struct {
	Epoch           uint64
	Shards          []ShardStat
	FlushedBytes    uint64
	FlushCount      uint64
	CompactionCount uint64
	// CompactionBytesIn/Out are cumulative merge input/output volume —
	// Out over FlushedBytes approximates the node's write-amplification
	// factor.
	CompactionBytesIn  uint64
	CompactionBytesOut uint64
	// LevelTables/LevelBytes describe the engine's level tree aggregated
	// across shards; index = level, level 0 is the flush landing zone.
	LevelTables []uint32
	LevelBytes  []uint64
	// Block-cache and compression observability: the shared block
	// cache's cumulative counters and current resident bytes, plus the
	// logical-vs-stored volume of every data block the engine wrote
	// (Stored over Logical is the on-disk compression ratio).
	CacheHits         uint64
	CacheMisses       uint64
	CacheEvictions    uint64
	CacheBytes        uint64
	BlockBytesLogical uint64
	BlockBytesStored  uint64
	// Peers is the node's liveness view of the other ring members (empty
	// when probing is disabled). DialCount counts the connections the
	// node's peer pool has dialed (probes, dual-write forwards, departure
	// announcements); RedialCount is the part of them that replaced an
	// earlier connection to the same address — a rising redial count is
	// the bounced-peer signal.
	Peers       []PeerStat
	DialCount   uint64
	RedialCount uint64
	ErrMsg      string
}

// PeerStat is one peer's health as seen by the reporting node: up or
// down, the current consecutive-failure count (suspicion), and how long
// the peer has been in this state.
type PeerStat struct {
	ID          uint32
	Up          bool
	Suspicion   uint32
	SinceMillis uint64
}

// TypeID implements Message.
func (*NodeStatsResponse) TypeID() uint16 { return TypeNodeStatsResponse }

// Codec turns messages into bytes and back. Implementations must be safe
// for concurrent use.
//
// Ownership: a frame belongs to the message decoded from it, and nobody
// writes into a frame after sending it. Unmarshal may return []byte
// fields that are views into data (FastCodec does; SlowCodec copies), so
// data must stay unmodified for as long as the message is used — and on
// the in-process transport the receiver decodes the sender's own
// buffer, one buffer per replicated write. Marshal returns a buffer the
// caller owns. Where each decoded field's ownership ends:
//
//   - Requests at a node (Put/Delete/BatchPut entries, Get and MultiGet
//     keys, Scan bounds): inside the handler. Engine lookups only read
//     them; a write is copied by the memtable (EncodeInternalKey,
//     encodeValue) and the WAL append; a dual-write forward re-marshals.
//   - Stream pages at a coordinator: re-marshalled into the target's
//     BatchPut before the next page is fetched.
//   - Results at a client (Get values, Scan cells, MultiGet values,
//     repair's streamed entries): they keep their response frame alive
//     for as long as they are held, and are the caller's to modify —
//     nothing else refers to that frame.
type Codec interface {
	Name() string
	Marshal(Message) ([]byte, error)
	Unmarshal([]byte) (Message, error)
}

// registry is the one table of message types, indexed by wire type ID:
// FastCodec instantiates what it decodes from it, and SlowCodec's type
// names are derived from it.
var registry = [...]func() Message{
	TypeCountRequest:           func() Message { return new(CountRequest) },
	TypeCountResponse:          func() Message { return new(CountResponse) },
	TypePutRequest:             func() Message { return new(PutRequest) },
	TypePutResponse:            func() Message { return new(PutResponse) },
	TypeGetRequest:             func() Message { return new(GetRequest) },
	TypeGetResponse:            func() Message { return new(GetResponse) },
	TypeScanRequest:            func() Message { return new(ScanRequest) },
	TypeScanResponse:           func() Message { return new(ScanResponse) },
	TypeBatchPutRequest:        func() Message { return new(BatchPutRequest) },
	TypeBatchPutResponse:       func() Message { return new(BatchPutResponse) },
	TypeMultiGetRequest:        func() Message { return new(MultiGetRequest) },
	TypeMultiGetResponse:       func() Message { return new(MultiGetResponse) },
	TypeRingStateRequest:       func() Message { return new(RingStateRequest) },
	TypeRingStateResponse:      func() Message { return new(RingStateResponse) },
	TypeStreamRangeRequest:     func() Message { return new(StreamRangeRequest) },
	TypeStreamRangeResponse:    func() Message { return new(StreamRangeResponse) },
	TypeDeleteRangeRequest:     func() Message { return new(DeleteRangeRequest) },
	TypeDeleteRangeResponse:    func() Message { return new(DeleteRangeResponse) },
	TypeNodeStatsRequest:       func() Message { return new(NodeStatsRequest) },
	TypeNodeStatsResponse:      func() Message { return new(NodeStatsResponse) },
	TypeDeleteRequest:          func() Message { return new(DeleteRequest) },
	TypeDeleteResponse:         func() Message { return new(DeleteResponse) },
	TypeDigestRequest:          func() Message { return new(DigestRequest) },
	TypeDigestResponse:         func() Message { return new(DigestResponse) },
	TypeJoinRequest:            func() Message { return new(JoinRequest) },
	TypeJoinResponse:           func() Message { return new(JoinResponse) },
	TypeBeginMigrationRequest:  func() Message { return new(BeginMigrationRequest) },
	TypeBeginMigrationResponse: func() Message { return new(BeginMigrationResponse) },
	TypeEndMigrationRequest:    func() Message { return new(EndMigrationRequest) },
	TypeEndMigrationResponse:   func() Message { return new(EndMigrationResponse) },
	TypeSetRingStateRequest:    func() Message { return new(SetRingStateRequest) },
	TypeSetRingStateResponse:   func() Message { return new(SetRingStateResponse) },
	TypePingRequest:            func() Message { return new(PingRequest) },
	TypePingResponse:           func() Message { return new(PingResponse) },
	TypeLeaveRequest:           func() Message { return new(LeaveRequest) },
	TypeLeaveResponse:          func() Message { return new(LeaveResponse) },
	TypeErrorResponse:          func() Message { return new(ErrorResponse) },
}

// New instantiates the registered concrete type for a wire type ID.
func New(id uint16) (Message, error) {
	if int(id) < len(registry) && registry[id] != nil {
		return registry[id](), nil
	}
	return nil, fmt.Errorf("wire: unknown message type %d", id)
}
