// Package cluster assembles the real (non-simulated) distributed store:
// nodes that wrap a local storage engine behind the wire protocol, a
// client that routes by an epoch-versioned token ring (replicating
// writes, failing reads over to the next replica, refreshing its ring
// when a node reports a newer epoch), and a wire-level membership
// machine that grows and shrinks the cluster while it serves traffic.
//
// Membership is self-organizing: a new node joins through any existing
// member (JoinRing), which coordinates the rebalance — dual-write
// window, live range streaming, epoch flip, retirement — over the wire.
// That member is the one coordinator: the in-process Cluster joins its
// nodes through JoinRing too, and has a surviving member coordinate a
// leave. Every node persists the ring it installs (a crash-atomic
// `topology` file in its data directory), so a restart reassembles
// membership from disk with no seed; nodes probe peer liveness and
// self-schedule anti-entropy repair. See docs/membership.md for the
// design.
//
// Everything runs on the transport package, so a cluster can live inside
// one process (tests, examples) or span TCP endpoints (cmd/kvstore).
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scalekv/internal/hashring"
	"scalekv/internal/row"
	"scalekv/internal/storage"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

// NodeOptions configures one store node.
type NodeOptions struct {
	// ID is the node's ring identity.
	ID hashring.NodeID
	// Dir is the storage directory.
	Dir string
	// DBParallelism bounds concurrent database requests; excess requests
	// wait in-queue, exactly the paper's in-queue stage. 0 means 16.
	DBParallelism int
	// Storage tunes the underlying engine (Dir is overridden).
	Storage storage.Options
	// Topology is the node's initial routing epoch state. Nil runs the
	// node unversioned: every request is accepted regardless of epoch
	// (standalone nodes, raw-wire tests) — unless the data directory
	// holds a persisted topology file, which a restarting member
	// resumes from. When both are present the higher epoch wins.
	Topology *hashring.Topology
	// Addrs maps ring members to dialable transport addresses, served
	// back to clients in RingStateResponse.
	Addrs map[hashring.NodeID]string
	// ReplicationFactor is the ring's write replication factor; it
	// rides epoch flips (SetRingStateRequest) and the topology file so
	// joiners and restarts inherit it. 0 means 1.
	ReplicationFactor int
	// Dialer lets the node open its own peer connections: dual-write
	// forwards during migrations, liveness probes, self-scheduled
	// repair, and coordinating a JoinRequest. Nil disables all of
	// those (the node can still serve as a migration source/target
	// driven by an external coordinator's streams).
	Dialer Dialer
	// AdvertiseAddr is this node's own dialable address, announced to
	// peers on join and persisted in the topology file.
	AdvertiseAddr string
	// ProbeInterval is the peer liveness probe period; 0 disables
	// probing. Each tick pings every peer (jittered ±25%); a peer
	// missing three consecutive probes (defaultSuspicionThreshold) is
	// marked down, and a down peer answering again is marked up — which
	// also kicks an immediate repair pass to catch the returnee up.
	ProbeInterval time.Duration
	// RepairInterval is the self-scheduled anti-entropy period; 0
	// disables it. Each pass (jittered ±25% so a cluster started in
	// lockstep doesn't synchronize its repair storms) converges the
	// ranges this node owns; a converged pass ships nothing and costs
	// only digest round trips.
	RepairInterval time.Duration
}

// ringState is the node's atomically-swapped view of the cluster:
// topology, member address book and replication factor (immutable
// once installed).
type ringState struct {
	topo  *hashring.Topology
	addrs map[hashring.NodeID]string
	rf    int
}

// migration is the node's migration-window state during a rebalance.
// On a source node it is the dual-write window: every accepted write
// whose token falls in one of the moves (sourced at this node) is
// synchronously forwarded to the new owner, so writes landing behind
// the range streamer's cursor are not lost. On a target node it holds
// the engine GC fences over the inbound ranges: until the window
// closes, compaction must not collect tombstones there, or a stale
// stream page arriving late could resurrect a deleted cell (the
// gc_grace hazard).
type migration struct {
	moves  []hashring.RangeMove
	addrs  map[hashring.NodeID]string
	fences []func()
}

func (m *migration) releaseFences() {
	for _, release := range m.fences {
		release()
	}
}

// Node is one running store server.
type Node struct {
	id       hashring.NodeID
	engine   *storage.Engine
	server   *transport.Server
	dbSlots  chan struct{}
	dir      string
	dialer   Dialer
	selfAddr string

	ring atomic.Pointer[ringState]

	migMu sync.RWMutex
	mig   *migration

	// peers holds one connection per peer address, shared by the
	// prober, dual-write forwarding and departure announcements.
	peers *transport.Pool

	// joinMu serializes membership changes this node coordinates: one
	// join or leave executes at a time, a second is told to retry.
	joinMu sync.Mutex
	// testStreamErr, when set (tests only), is consulted before each
	// range a change this node coordinates streams — an injected
	// failure simulates a join breaking mid-stream.
	testStreamErr func(hashring.RangeMove) error

	// healthMu guards health, the per-peer liveness view the prober
	// maintains (see PeerHealth).
	healthMu sync.Mutex
	health   map[hashring.NodeID]*peerState

	probeInterval  time.Duration
	repairInterval time.Duration
	repairKick     chan struct{}
	stop           chan struct{}
	stopOnce       sync.Once
	loopWg         sync.WaitGroup

	// Served counts database requests processed, for Figure 2's
	// ops-per-node chart.
	Served atomic.Int64
	// ForwardedWrites counts dual-write forwards issued during
	// migrations — observability for rebalance tests and demos.
	ForwardedWrites atomic.Int64
	// RepairPasses and RepairCellsShipped count the node's
	// self-scheduled anti-entropy activity (kicked passes included).
	RepairPasses       atomic.Int64
	RepairCellsShipped atomic.Int64
}

// StartNode opens the node's engine and serves the wire protocol on the
// listener. The routing topology comes from opts.Topology, from a
// topology file persisted in the data directory by a previous run's
// epoch flips (a restarting member resumes at the epoch it last
// flipped to), or — when neither exists — the node runs unversioned.
func StartNode(l transport.Listener, opts NodeOptions) (*Node, error) {
	if opts.DBParallelism <= 0 {
		opts.DBParallelism = 16
	}
	st := opts.Storage
	st.Dir = opts.Dir
	// The node's ring identity doubles as the engine's version-stamping
	// identity, so two replicas accepting concurrent writes can never
	// mint the same (Seq, Node) version for different cells.
	st.NodeID = uint16(opts.ID)
	engine, err := storage.Open(st)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", opts.ID, err)
	}
	n := &Node{
		id:             opts.ID,
		engine:         engine,
		dbSlots:        make(chan struct{}, opts.DBParallelism),
		dir:            opts.Dir,
		dialer:         opts.Dialer,
		selfAddr:       opts.AdvertiseAddr,
		health:         make(map[hashring.NodeID]*peerState),
		probeInterval:  opts.ProbeInterval,
		repairInterval: opts.RepairInterval,
		repairKick:     make(chan struct{}, 1),
		stop:           make(chan struct{}),
	}
	n.peers = transport.NewPool(opts.Dialer)

	// Resolve the boot topology: persisted file vs. supplied options,
	// higher epoch wins. A node that was already through epoch flips
	// must not be rewound by a caller handing it a stale snapshot.
	ptopo, paddrs, prf, perr := loadTopologyFile(opts.Dir)
	if perr != nil {
		engine.Close()
		return nil, fmt.Errorf("cluster: node %d: %w", opts.ID, perr)
	}
	rf := opts.ReplicationFactor
	switch {
	case ptopo != nil && (opts.Topology == nil || ptopo.Epoch() > opts.Topology.Epoch()):
		n.installRing(ptopo, paddrs, prf, false)
	case opts.Topology != nil:
		n.installRing(opts.Topology, opts.Addrs, rf, true)
	}
	if rs := n.ring.Load(); rs != nil && n.selfAddr == "" {
		n.selfAddr = rs.addrs[n.id]
	}

	n.server = transport.ServeInline(l, n.handle)
	if n.dialer != nil && n.probeInterval > 0 {
		n.loopWg.Add(1)
		go n.probeLoop()
	}
	if n.dialer != nil && n.repairInterval > 0 {
		n.loopWg.Add(1)
		go n.repairLoop()
	}
	return n, nil
}

// installRing atomically swaps the node's membership view and, when
// persist is set and the node has a data directory, writes it to the
// topology file so a restart resumes at this epoch. Persist failures
// are swallowed: the in-memory flip must not fail (the cluster has
// already committed it); the node merely restarts at an older epoch
// and catches up via its first ring refresh.
func (n *Node) installRing(topo *hashring.Topology, addrs map[hashring.NodeID]string, rf int, persist bool) {
	if rf <= 0 {
		rf = 1
	}
	n.ring.Store(&ringState{topo: topo, addrs: copyAddrs(addrs), rf: rf})
	if persist && n.dir != "" {
		_ = saveTopologyFile(n.dir, topo, addrs, rf)
	}
}

func copyAddrs(in map[hashring.NodeID]string) map[hashring.NodeID]string {
	out := make(map[hashring.NodeID]string, len(in))
	for id, a := range in {
		out[id] = a
	}
	return out
}

// Engine exposes the node's local storage for test assertions and bulk
// loading.
func (n *Node) Engine() *storage.Engine { return n.engine }

// ID returns the node's ring identity.
func (n *Node) ID() hashring.NodeID { return n.id }

// Topology returns the node's current ring view (nil if unversioned).
func (n *Node) Topology() *hashring.Topology {
	if rs := n.ring.Load(); rs != nil {
		return rs.topo
	}
	return nil
}

// BeginMigration opens the migration window for the moves this node
// takes part in. As a source (move.From == id): until EndMigration,
// every accepted write whose partition token falls in the move is also
// forwarded (synchronously, before the ack) to the move's target at its
// address in addrs, through the node's peer pool. As a target (move.To ==
// id): the engine's tombstone GC is fenced over the inbound ranges, so
// a delete accepted here keeps masking sub-watermark stale copies the
// stream may still deliver.
func (n *Node) BeginMigration(moves []hashring.RangeMove, addrs map[hashring.NodeID]string) {
	relevant := make([]hashring.RangeMove, 0, len(moves))
	var fences []func()
	for _, m := range moves {
		if m.From == n.id {
			relevant = append(relevant, m)
		}
		if m.To == n.id {
			fences = append(fences, n.engine.FenceRange(m.Lo, m.Hi))
		}
	}
	n.migMu.Lock()
	prev := n.mig
	n.mig = &migration{moves: relevant, addrs: addrs, fences: fences}
	n.migMu.Unlock()
	if prev != nil {
		prev.releaseFences()
	}
}

// EndMigration closes the migration window: forwarding stops and the
// target-side GC fences lift.
func (n *Node) EndMigration() {
	n.migMu.Lock()
	prev := n.mig
	n.mig = nil
	n.migMu.Unlock()
	if prev != nil {
		prev.releaseFences()
	}
}

// Close stops serving, then closes the engine. Ordering matters: the
// background loops stop first (a probe or repair pass must not race
// resource teardown), then the server quiesces so no new writes race
// the shutdown, then the peer pool closes (in-flight handlers that
// forward through it have drained with the server), and engine.Close
// finally freezes every shard's active memtable and drains the
// background flushers before releasing resources — a clean shutdown
// never abandons a frozen memtable (only its WAL segments would cover
// it after a crash).
func (n *Node) Close() error {
	n.stopOnce.Do(func() { close(n.stop) })
	n.loopWg.Wait()
	n.server.Close()
	n.peers.Close()
	return n.engine.Close()
}

// Shutdown is the graceful variant of Close: before tearing down, the
// node announces its departure (LeaveRequest) to every peer so they
// flip its health to down immediately instead of burning a suspicion
// window on probes that can never succeed. The announce is best
// effort — an unreachable peer finds out the usual way.
func (n *Node) Shutdown() error {
	n.announceLeave()
	return n.Close()
}

// epochCheck validates a request's routing epoch against the node's
// topology. Requests at epoch 0 (unversioned traffic: admin tooling,
// the rebalance streamer, raw-wire tests) always pass, as does every
// request when the node runs without a topology.
func (n *Node) epochCheck(reqEpoch uint64) (errMsg string) {
	if reqEpoch == 0 {
		return ""
	}
	rs := n.ring.Load()
	if rs == nil {
		return ""
	}
	if have := rs.topo.Epoch(); have != reqEpoch {
		// Inside a migration window the flip is in progress somewhere:
		// a client may already have adopted the next epoch from a node
		// that committed before this one. Joins are one at a time, so
		// cur+1 is unambiguous, and this node has been receiving the
		// window's forwarded writes since BeginMigration.
		if reqEpoch == have+1 {
			n.migMu.RLock()
			in := n.mig != nil
			n.migMu.RUnlock()
			if in {
				return ""
			}
		}
		return wire.WrongEpochMsg(have, reqEpoch)
	}
	return ""
}

// forwardEntries implements the dual-write window for a write that was
// just applied locally: entries whose token falls in a migrating range
// sourced here are batched per target and sent synchronously. An error
// fails the write (the client retries; puts are idempotent).
func (n *Node) forwardEntries(entries []row.Entry) error {
	n.migMu.RLock()
	mig := n.mig
	n.migMu.RUnlock()
	if mig == nil {
		return nil
	}
	var perTarget map[hashring.NodeID][]row.Entry
	for _, ent := range entries {
		tok := hashring.Token(ent.PK)
		for _, m := range mig.moves {
			if m.Contains(tok) {
				if perTarget == nil {
					perTarget = make(map[hashring.NodeID][]row.Entry)
				}
				perTarget[m.To] = append(perTarget[m.To], ent)
			}
		}
	}
	for target, batch := range perTarget {
		addr, ok := mig.addrs[target]
		if !ok {
			return fmt.Errorf("cluster: node %d: no forward address for %d", n.id, target)
		}
		if _, err := call[*wire.BatchPutResponse](n.peers.Caller(addr), &wire.BatchPutRequest{Entries: batch}); err != nil { // epoch 0: wildcard
			return fmt.Errorf("cluster: node %d: forward to %d: %w", n.id, target, err)
		}
		n.ForwardedWrites.Add(int64(len(batch)))
	}
	return nil
}

// op is one row of the node's dispatch table: how a request type is
// served, and whether it is served inline on the connection's reader
// goroutine. Only an op that can never wait on another RPC or on engine
// backpressure may run inline: Get, Count, Ping and RingState read the
// engine or the ring and return. Everything else goes back to the
// transport as a continuation for its worker pool: writes forward inside
// a migration window and can park on freeze backpressure, scans and
// multi-gets hold the connection for as long as their result is, and
// streams, digests and admin calls do both.
type op struct {
	serve  func(n *Node, req wire.Message, recv time.Time) wire.Message
	inline bool
}

// typed adapts a handler of one request type to a table row. Each type
// keeps its own method: the worker's live stack while deep in the engine
// then holds only that handler's locals — this path runs once per RPC,
// so its stack footprint is hot.
func typed[Req wire.Message, Resp wire.Reply](h func(*Node, Req) Resp) func(*Node, wire.Message, time.Time) wire.Message {
	return func(n *Node, req wire.Message, _ time.Time) wire.Message { return h(n, req.(Req)) }
}

// ops is the node's one dispatch table, indexed by wire type ID. A
// message without a row is answered with an ErrorResponse.
var ops = [...]op{
	wire.TypeGetRequest:            {inline: true, serve: typed((*Node).handleGet)},
	wire.TypeCountRequest:          {inline: true, serve: (*Node).handleCount},
	wire.TypePingRequest:           {inline: true, serve: typed((*Node).handlePing)},
	wire.TypeRingStateRequest:      {inline: true, serve: typed((*Node).handleRingState)},
	wire.TypePutRequest:            {serve: typed((*Node).handlePut)},
	wire.TypeDeleteRequest:         {serve: typed((*Node).handleDelete)},
	wire.TypeBatchPutRequest:       {serve: typed((*Node).handleBatchPut)},
	wire.TypeMultiGetRequest:       {serve: typed((*Node).handleMultiGet)},
	wire.TypeScanRequest:           {serve: typed((*Node).handleScan)},
	wire.TypeStreamRangeRequest:    {serve: typed((*Node).streamRange)},
	wire.TypeDigestRequest:         {serve: typed((*Node).handleDigest)},
	wire.TypeDeleteRangeRequest:    {serve: typed((*Node).handleDeleteRange)},
	wire.TypeNodeStatsRequest:      {serve: typed((*Node).handleNodeStats)},
	wire.TypeJoinRequest:           {serve: typed((*Node).handleJoin)},
	wire.TypeBeginMigrationRequest: {serve: typed((*Node).handleBeginMigration)},
	wire.TypeEndMigrationRequest:   {serve: typed((*Node).handleEndMigration)},
	wire.TypeSetRingStateRequest:   {serve: typed((*Node).handleSetRingState)},
	wire.TypeLeaveRequest:          {serve: typed((*Node).handleLeave)},
}

// handle decodes one request on the connection's reader goroutine and
// serves it by its row in ops: there, when the row is inline, or as a
// continuation for the transport's worker pool. A frame that does not
// decode, or a message no row serves, is answered inline with an
// ErrorResponse.
func (n *Node) handle(payload []byte) (resp []byte, rest func() []byte) {
	recv := time.Now()
	msg, err := codec.Unmarshal(payload)
	if err != nil {
		return n.encode(&wire.ErrorResponse{ErrMsg: "bad frame: " + err.Error()}), nil
	}
	id := int(msg.TypeID())
	if id >= len(ops) || ops[id].serve == nil {
		return n.encode(&wire.ErrorResponse{ErrMsg: fmt.Sprintf("unexpected message %T", msg)}), nil
	}
	o := &ops[id]
	if o.inline {
		return n.encode(o.serve(n, msg, recv)), nil
	}
	return nil, func() []byte { return n.encode(o.serve(n, msg, recv)) }
}

// write is the one path of every write request: epoch check, one engine
// batch (so the engine's version stamps are readable afterwards: the
// dual-write forward must carry them, or the forwarded copy and a
// streamed copy of the same cell could merge differently at the target),
// the dual-write forward, and an epoch re-check after applying. If the
// epoch flipped while the write was in flight, the dual-write window may
// already be closed and the forward skipped — acking would lose the
// write for readers at the new topology. Rejecting makes the client
// retry at the new epoch; the local copy is at worst idempotent garbage.
// It returns the reply's ErrMsg.
func (n *Node) write(epoch uint64, ents []row.Entry) string {
	if msg := n.epochCheck(epoch); msg != "" {
		return msg
	}
	if err := n.engine.PutBatch(ents); err != nil {
		return err.Error()
	}
	if err := n.forwardEntries(ents); err != nil {
		return err.Error()
	}
	return n.epochCheck(epoch)
}

func (n *Node) handlePut(req *wire.PutRequest) *wire.PutResponse {
	return &wire.PutResponse{ErrMsg: n.write(req.Epoch, []row.Entry{{PK: req.PK, CK: req.CK, Value: req.Value}})}
}

// handleDelete writes a tombstone, so a delete issued during a rebalance
// lands on the range's new owner with the version that makes every
// replica agree.
func (n *Node) handleDelete(req *wire.DeleteRequest) *wire.DeleteResponse {
	return &wire.DeleteResponse{ErrMsg: n.write(req.Epoch, []row.Entry{{PK: req.PK, CK: req.CK, Tombstone: true}})}
}

// handleBatchPut is the group commit: the whole batch lands in one
// engine call — one lock acquisition, one WAL write — instead of
// len(Entries) RPCs.
func (n *Node) handleBatchPut(req *wire.BatchPutRequest) *wire.BatchPutResponse {
	if msg := n.write(req.Epoch, req.Entries); msg != "" {
		return &wire.BatchPutResponse{ErrMsg: msg}
	}
	return &wire.BatchPutResponse{Applied: uint64(len(req.Entries))}
}

func (n *Node) handleCount(m wire.Message, recv time.Time) wire.Message {
	req := m.(*wire.CountRequest)
	if msg := n.epochCheck(req.Epoch); msg != "" {
		return &wire.CountResponse{QueryID: req.QueryID, Seq: req.Seq, ErrMsg: msg}
	}
	return n.count(req, recv)
}

func (n *Node) handleEndMigration(*wire.EndMigrationRequest) *wire.EndMigrationResponse {
	n.EndMigration()
	return &wire.EndMigrationResponse{}
}

func (n *Node) handleMultiGet(req *wire.MultiGetRequest) *wire.MultiGetResponse {
	if msg := n.epochCheck(req.Epoch); msg != "" {
		return &wire.MultiGetResponse{ErrMsg: msg}
	}
	resp := &wire.MultiGetResponse{Values: make([]wire.MultiGetValue, len(req.Keys))}
	for i, k := range req.Keys {
		v, found, err := n.engine.Get(k.PK, k.CK)
		if err != nil {
			resp.ErrMsg = err.Error()
			break
		}
		resp.Values[i] = wire.MultiGetValue{Value: v, Found: found}
	}
	return resp
}

func (n *Node) handleGet(req *wire.GetRequest) *wire.GetResponse {
	if msg := n.epochCheck(req.Epoch); msg != "" {
		return &wire.GetResponse{ErrMsg: msg}
	}
	cell, found, err := n.engine.GetVersioned(req.PK, req.CK)
	resp := &wire.GetResponse{}
	if found {
		// A tombstone answers "not found" (no value, Found stays false)
		// but still reports its version and flag, so a failover read of
		// a deleted cell can repair the delete to lagging replicas.
		resp.VerSeq, resp.VerNode = cell.Ver.Seq, cell.Ver.Node
		if cell.Tombstone {
			resp.Tombstone = true
		} else {
			resp.Value, resp.Found = cell.Value, true
		}
	}
	if err != nil {
		resp.ErrMsg = err.Error()
	}
	return resp
}

func (n *Node) handleScan(req *wire.ScanRequest) *wire.ScanResponse {
	if msg := n.epochCheck(req.Epoch); msg != "" {
		return &wire.ScanResponse{ErrMsg: msg}
	}
	cells, err := n.engine.ScanPartition(req.PK, req.From, req.To)
	resp := &wire.ScanResponse{Cells: cells}
	if err != nil {
		resp.ErrMsg = err.Error()
	}
	return resp
}

func (n *Node) handleDeleteRange(req *wire.DeleteRangeRequest) *wire.DeleteRangeResponse {
	removed, err := n.engine.DeleteRange(req.Lo, req.Hi)
	resp := &wire.DeleteRangeResponse{Removed: uint64(removed)}
	if err != nil {
		resp.ErrMsg = err.Error()
	}
	return resp
}

// handleRingState serializes the node's current topology view.
func (n *Node) handleRingState(*wire.RingStateRequest) *wire.RingStateResponse {
	rs := n.ring.Load()
	if rs == nil {
		return &wire.RingStateResponse{ErrMsg: "node has no topology"}
	}
	resp := &wire.RingStateResponse{
		Epoch:  rs.topo.Epoch(),
		Vnodes: uint32(rs.topo.Vnodes()),
		RF:     uint32(rs.rf),
	}
	for _, id := range rs.topo.Nodes() {
		resp.Nodes = append(resp.Nodes, wire.NodeAddr{ID: uint32(id), Addr: rs.addrs[id]})
	}
	return resp
}

// streamRange serves one page of a range handoff out of the engine.
func (n *Node) streamRange(req *wire.StreamRangeRequest) *wire.StreamRangeResponse {
	maxCells := int(req.MaxCells)
	page, err := n.engine.ScanRange(req.Lo, req.Hi, req.AfterToken, req.AfterPK, maxCells)
	if err != nil {
		return &wire.StreamRangeResponse{ErrMsg: err.Error()}
	}
	return &wire.StreamRangeResponse{
		Entries:   page.Entries,
		NextToken: page.NextToken,
		NextPK:    page.NextPK,
		More:      page.More,
	}
}

// handleDigest serves a range digest out of the engine — admin-class
// traffic like streaming, valid at any epoch.
func (n *Node) handleDigest(req *wire.DigestRequest) *wire.DigestResponse {
	leaves, err := n.engine.RangeDigest(req.Lo, req.Hi, int(req.Depth))
	if err != nil {
		return &wire.DigestResponse{ErrMsg: err.Error()}
	}
	resp := &wire.DigestResponse{Leaves: make([]wire.DigestLeaf, len(leaves))}
	for i, l := range leaves {
		resp.Leaves[i] = wire.DigestLeaf{Hash: l.Hash, Cells: l.Cells}
	}
	return resp
}

// handleNodeStats summarizes the engine for the coordinator.
func (n *Node) handleNodeStats(*wire.NodeStatsRequest) *wire.NodeStatsResponse {
	st := n.engine.Stats()
	resp := &wire.NodeStatsResponse{
		FlushedBytes:       uint64(st.FlushedBytes),
		FlushCount:         uint64(st.Flushes),
		CompactionCount:    uint64(st.Compactions),
		CompactionBytesIn:  uint64(st.CompactionBytesIn),
		CompactionBytesOut: uint64(st.CompactionBytesOut),
		CacheHits:          uint64(st.BlockCacheHits),
		CacheMisses:        uint64(st.BlockCacheMisses),
		CacheEvictions:     uint64(st.BlockCacheEvictions),
		CacheBytes:         uint64(st.BlockCacheBytes),
		BlockBytesLogical:  uint64(st.BlockBytesLogical),
		BlockBytesStored:   uint64(st.BlockBytesStored),
	}
	for _, ls := range st.Levels {
		resp.LevelTables = append(resp.LevelTables, uint32(ls.Tables))
		resp.LevelBytes = append(resp.LevelBytes, uint64(ls.Bytes))
	}
	if rs := n.ring.Load(); rs != nil {
		resp.Epoch = rs.topo.Epoch()
	}
	for id, ps := range n.PeerHealth() {
		resp.Peers = append(resp.Peers, wire.PeerStat{
			ID:          uint32(id),
			Up:          ps.Up,
			Suspicion:   uint32(ps.Suspicion),
			SinceMillis: uint64(time.Since(ps.Since).Milliseconds()),
		})
	}
	resp.DialCount, resp.RedialCount = n.peers.Stats()
	for _, sh := range st.Shards {
		resp.Shards = append(resp.Shards, wire.ShardStat{
			MemtableBytes:   uint64(sh.MemtableBytes + sh.FrozenBytes),
			FrozenMemtables: uint32(sh.FrozenMemtables),
			SSTables:        uint32(sh.SSTables),
		})
	}
	return resp
}

// count serves the paper's aggregation: count elements by type (the
// first byte of each cell value), bounded by the node's DB parallelism.
func (n *Node) count(req *wire.CountRequest, recv time.Time) *wire.CountResponse {
	resp := &wire.CountResponse{
		QueryID:   req.QueryID,
		Seq:       req.Seq,
		NodeID:    uint32(n.id),
		RecvNanos: recv.UnixNano(),
	}
	n.dbSlots <- struct{}{} // in-queue stage: wait for a database slot
	dbStart := time.Now()
	resp.QueueNanos = dbStart.Sub(recv).Nanoseconds()

	// Tally on the stack — from a table's directory when one table holds
	// the partition — and build the response map from the types seen.
	var tc row.TypeCounts
	err := n.engine.CountTypes(req.PK, &tc)
	resp.DBNanos = time.Since(dbStart).Nanoseconds()
	<-n.dbSlots
	n.Served.Add(1)

	if err != nil {
		resp.ErrMsg = err.Error()
		return resp
	}
	resp.Counts = make(map[uint8]uint64, tc.Types())
	for ty, c := range tc.All() {
		resp.Counts[ty] = c
	}
	resp.Elements = tc.Live()
	return resp
}

func (n *Node) encode(m wire.Message) []byte {
	data, err := codec.Marshal(m)
	if err != nil {
		// Marshal of our own response types cannot fail with a healthy
		// codec; make the failure loud instead of silent.
		panic(fmt.Sprintf("cluster: encode %T: %v", m, err))
	}
	return data
}
