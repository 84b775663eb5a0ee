package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"

	"scalekv/internal/hashring"
	"scalekv/internal/row"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

// This file is the elastic-topology control plane: one member node
// coordinates each join or leave as a state machine while the cluster
// serves traffic. The paper's scalability argument rests on exactly
// this capability — "just add nodes" — and the state machine is what
// makes adding nodes safe under load:
//
//  1. snapshot — diff the member's current topology against the next
//     one into token RangeMoves (hashring.AddNode/RemoveNode), and pick
//     a streaming source for each move (the least-loaded old owner, by
//     NodeStats).
//  2. dual-write window — every source node starts forwarding accepted
//     writes that fall in a moving range to the range's new owner, so
//     writes landing behind the streamer's cursor are not lost.
//  3. stream — page each range out of its source (StreamRangeRequest)
//     and into its target (BatchPutRequest at epoch 0) until drained.
//  4. flip — install the new topology on every node. From here,
//     requests routed with the old epoch are rejected and clients
//     re-route after a ring refresh.
//  5. retire — close the dual-write window and DeleteRange the moved
//     ranges on their old owners.
//
// Node.coordinate is the one entry point, serialized per member by
// joinMu: a JoinRequest (handleJoin, sent by JoinRing) reaches it over
// the wire, and the in-process Cluster's RemoveNode calls it on a
// surviving member, since a leave has no wire message. Cluster.AddNode
// joins through JoinRing like any other process. Every step is a wire
// RPC addressed by the member address book — BeginMigrationRequest,
// StreamRangeRequest, SetRingStateRequest, EndMigrationRequest,
// DeleteRangeRequest — the coordinator's own flip included.
//
// Correctness under the stream/forward race: every cell carries the
// version its accepting engine stamped, stream pages and dual-write
// forwards ship those versions verbatim, and the target's merge is
// last-write-wins on version — so a cell overwritten (or deleted)
// during the stream converges to the overwrite on every replica no
// matter which copy arrives last. Tombstones ride the stream like any
// cell, so deletes survive the handoff too.

// streamPageCells is the page size the coordinator streams ranges with.
const streamPageCells = 4096

// RebalanceReport summarizes one topology change.
type RebalanceReport struct {
	// Node is the joining or leaving member.
	Node hashring.NodeID
	// Epoch is the topology version after the flip.
	Epoch uint64
	// Moves counts the ranges of the ownership diff that was streamed.
	Moves int
	// CellsStreamed counts cells copied to new owners.
	CellsStreamed int64
	// CellsRetired counts cells purged from old owners after the flip.
	CellsRetired int64
	// RetireErr records a retirement failure, if any. Retirement is
	// garbage collection: once the epoch has flipped the change is
	// committed and correct (nothing routes to the old owners' copies),
	// so a failed DeleteRange leaves dead data on disk, not a broken
	// cluster — it is reported here instead of failing the join.
	RetireErr string
	// Pages counts stream round trips.
	Pages int
	// StreamDuration is the data-movement wall time (traffic keeps
	// flowing throughout).
	StreamDuration time.Duration
	// FlipDuration is the epoch-flip wall time — the only window in
	// which clients see wrong-epoch rejections and must refresh.
	FlipDuration time.Duration
}

// joinResponse is the report's wire form.
func (r *RebalanceReport) joinResponse() *wire.JoinResponse {
	return &wire.JoinResponse{
		Epoch:         r.Epoch,
		Moves:         uint32(r.Moves),
		CellsStreamed: uint64(r.CellsStreamed),
		CellsRetired:  uint64(r.CellsRetired),
		Pages:         uint32(r.Pages),
		StreamNanos:   uint64(r.StreamDuration.Nanoseconds()),
		FlipNanos:     uint64(r.FlipDuration.Nanoseconds()),
		RetireErr:     r.RetireErr,
	}
}

// reportFromJoin reads back the report of node id's join from its wire
// form.
func reportFromJoin(id hashring.NodeID, jr *wire.JoinResponse) *RebalanceReport {
	return &RebalanceReport{
		Node:           id,
		Epoch:          jr.Epoch,
		Moves:          int(jr.Moves),
		CellsStreamed:  int64(jr.CellsStreamed),
		CellsRetired:   int64(jr.CellsRetired),
		RetireErr:      jr.RetireErr,
		Pages:          int(jr.Pages),
		StreamDuration: time.Duration(jr.StreamNanos),
		FlipDuration:   time.Duration(jr.FlipNanos),
	}
}

// coordinate runs one membership change with this node as its
// coordinator: a join of id at addr, or, when leave is set, a leave of
// id (addr unused). A join must name an address: a JoinRequest is
// outside input, and an empty one must never read as a leave. The
// change is computed from the node's own ring and executed by
// runRebalance over a scratch pool of the node's dialer. One change
// runs at a time per member; a second is refused rather than queued
// behind a stream that may take a while.
func (n *Node) coordinate(id hashring.NodeID, addr string, leave bool) (*RebalanceReport, error) {
	if n.dialer == nil {
		return nil, fmt.Errorf("cluster: node %d cannot coordinate membership changes: no dialer", n.id)
	}
	if !n.joinMu.TryLock() {
		return nil, errors.New("cluster: a membership change is already in flight; retry")
	}
	defer n.joinMu.Unlock()

	rs := n.ring.Load()
	if rs == nil {
		return nil, errors.New("cluster: node has no topology")
	}
	addrsNext := copyAddrs(rs.addrs)
	var next *hashring.Topology
	var moves []hashring.RangeMove
	var err error
	switch {
	case leave:
		next, moves, err = rs.topo.RemoveNode(id, rs.rf)
		delete(addrsNext, id)
	case addr == "":
		return nil, fmt.Errorf("cluster: join of node id %d carries no address", id)
	case rs.topo.Contains(id) && rs.addrs[id] == addr:
		// Idempotent: a joiner retrying after a lost response, or a
		// member rejoining after a restart. It is already routed to.
		return &RebalanceReport{Node: id, Epoch: rs.topo.Epoch()}, nil
	case rs.topo.Contains(id):
		return nil, fmt.Errorf("cluster: node id %d is already a member at %s", id, rs.addrs[id])
	default:
		next, moves, err = rs.topo.AddNode(id, rs.rf)
		addrsNext[id] = addr
	}
	if err != nil {
		return nil, err
	}

	pool := transport.NewPool(n.dialer)
	defer pool.Close()
	return n.runRebalance(pool, rs, &ringState{topo: next, addrs: addrsNext, rf: rs.rf}, moves, id)
}

// runRebalance executes the join/leave state machine after the
// membership diff is known: source selection, dual-write, streaming,
// flip, retirement — all over the wire, through a scratch pool of its
// own (stats, streaming, control, retirement) that the caller closes
// when done. old is the coordinator's ring (stream sources live in its
// address book); next is the ring after the change, whose address book
// already reflects the new membership (stream targets and flip
// recipients). The scratch pool keeps 4096-cell stream pages off the
// data-path connections and out of their per-connection worker queues,
// and it re-dials a connection that breaks mid-change, so the window
// is closed on every participant even after an aborted stream.
func (n *Node) runRebalance(pool *transport.Pool, old, next *ringState, moves []hashring.RangeMove, subject hashring.NodeID) (*RebalanceReport, error) {
	report := &RebalanceReport{Node: subject, Epoch: next.topo.Epoch()}

	// 1. Source selection: at rf > 1 a range has several old owners;
	// stream from the one with the smallest write backlog so a node
	// busy flushing is not also the one serving the handoff.
	moves = pickSources(pool, old.topo, moves, old.rf, old.addrs)
	report.Moves = len(moves)

	// 2. Migration window. Each source node forwards in-range writes to
	// their new owners from here on; combined with streaming from a
	// snapshot-consistent engine, nothing written during the move is
	// lost. Each target node fences its engine's tombstone GC over the
	// inbound ranges, so a delete it accepts during the window keeps
	// masking any sub-watermark stale copy a stream page delivers later.
	// The request carries the full move list and the next address book;
	// each participant filters its own roles and dials its own forward
	// targets.
	participants := make(map[hashring.NodeID]bool)
	for _, m := range moves {
		participants[m.From] = true
		participants[m.To] = true
	}
	// Prepare: every node the flip will reach opens a window too (with an
	// empty move list when it neither sources nor receives a range), so
	// that from the first SetRingState on, a node not flipped yet still
	// accepts requests routed at the next epoch (see Node.epochCheck).
	for id := range next.addrs {
		participants[id] = true
	}
	participants[subject] = true
	beginReq := &wire.BeginMigrationRequest{Moves: wireMoves(moves)}
	for id, addr := range next.addrs {
		beginReq.Nodes = append(beginReq.Nodes, wire.NodeAddr{ID: uint32(id), Addr: addr})
	}
	addrOf := func(id hashring.NodeID) string {
		if a, ok := next.addrs[id]; ok {
			return a
		}
		return old.addrs[id]
	}
	var migrating []string
	defer func() {
		// Close the window on every node that opened it on the error
		// path. Best effort: an unreachable participant keeps
		// forwarding until its forwards fail, which is harmless
		// (forwards are LWW-idempotent).
		for _, addr := range migrating {
			call[*wire.EndMigrationResponse](pool.Caller(addr), &wire.EndMigrationRequest{})
		}
	}()
	for id := range participants {
		if _, err := call[*wire.BeginMigrationResponse](pool.Caller(addrOf(id)), beginReq); err != nil {
			return nil, fmt.Errorf("cluster: begin migration at node %d: %w", id, err)
		}
		migrating = append(migrating, addrOf(id))
	}

	// 3. Stream every move, paged, source -> target, at epoch 0.
	streamStart := time.Now()
	for _, m := range moves {
		if hook := n.testStreamErr; hook != nil {
			if err := hook(m); err != nil {
				return nil, fmt.Errorf("cluster: stream %v: %w", m, err)
			}
		}
		streamed, pages, err := streamRange(pool, m, old.addrs[m.From], next.addrs[m.To])
		if err != nil {
			return nil, fmt.Errorf("cluster: stream %v: %w", m, err)
		}
		report.CellsStreamed += streamed
		report.Pages += pages
	}
	report.StreamDuration = time.Since(streamStart)

	// 4. Flip. Every member of the new topology — plus the subject of a
	// leave, which must reject old-epoch traffic while it drains —
	// validates against the new epoch from here. Each recipient also
	// persists the snapshot to its topology file, so the flip survives
	// a restart of any member. Remote clients learn via wrong-epoch
	// rejections and RingStateRequest.
	flipReq := &wire.SetRingStateRequest{
		Epoch:  next.topo.Epoch(),
		Vnodes: uint32(next.topo.Vnodes()),
		RF:     uint32(old.rf),
		Nodes:  beginReq.Nodes,
	}
	flipStart := time.Now()
	flipTargets := make(map[hashring.NodeID]string, len(next.addrs)+1)
	for id, addr := range next.addrs {
		flipTargets[id] = addr
	}
	if _, ok := flipTargets[subject]; !ok {
		if a, ok := old.addrs[subject]; ok {
			flipTargets[subject] = a
		}
	}
	for id, addr := range flipTargets {
		if _, err := call[*wire.SetRingStateResponse](pool.Caller(addr), flipReq); err != nil {
			return nil, fmt.Errorf("cluster: flip node %d: %w", id, err)
		}
	}
	report.FlipDuration = time.Since(flipStart)

	// 5. Close the dual-write window (writes now route to the new
	// owners directly) and retire moved data at its old owners. The
	// flip committed the change, so retirement failures degrade to
	// unreclaimed disk space (reported, not fatal) — failing here would
	// tear down a node the whole cluster now routes to.
	for _, addr := range migrating {
		if _, err := call[*wire.EndMigrationResponse](pool.Caller(addr), &wire.EndMigrationRequest{}); err != nil {
			recordRetireErr(report, err)
		}
	}
	migrating = nil
	for _, r := range hashring.Retirements(old.topo, next.topo, old.rf) {
		if !next.topo.Contains(r.Node) {
			continue
		}
		dr, err := call[*wire.DeleteRangeResponse](pool.Caller(next.addrs[r.Node]), &wire.DeleteRangeRequest{Lo: r.Lo, Hi: r.Hi})
		if err != nil {
			recordRetireErr(report, fmt.Errorf("retire [%d,%d] at node %d: %w", r.Lo, r.Hi, r.Node, err))
			continue
		}
		report.CellsRetired += int64(dr.Removed)
	}
	return report, nil
}

func recordRetireErr(report *RebalanceReport, err error) {
	if report.RetireErr == "" {
		report.RetireErr = err.Error()
	}
}

// wireMoves converts an ownership diff to its wire form.
func wireMoves(moves []hashring.RangeMove) []wire.Move {
	out := make([]wire.Move, len(moves))
	for i, m := range moves {
		out[i] = wire.Move{Lo: m.Lo, Hi: m.Hi, From: uint32(m.From), To: uint32(m.To)}
	}
	return out
}

// movesFromWire converts a wire move list back to the hashring form.
func movesFromWire(moves []wire.Move) []hashring.RangeMove {
	out := make([]hashring.RangeMove, len(moves))
	for i, m := range moves {
		out[i] = hashring.RangeMove{Lo: m.Lo, Hi: m.Hi, From: hashring.NodeID(m.From), To: hashring.NodeID(m.To)}
	}
	return out
}

// pickSources re-points each move's source at the least write-loaded
// old owner of its range (NodeStatsRequest over the wire), when
// replication offers a choice.
func pickSources(pool *transport.Pool, old *hashring.Topology, moves []hashring.RangeMove, rf int, addrs map[hashring.NodeID]string) []hashring.RangeMove {
	if rf <= 1 {
		return moves
	}
	backlog := make(map[hashring.NodeID]int64)
	load := func(id hashring.NodeID) int64 {
		if v, ok := backlog[id]; ok {
			return v
		}
		var total int64 = math.MaxInt64
		if ns, err := call[*wire.NodeStatsResponse](pool.Caller(addrs[id]), &wire.NodeStatsRequest{}); err == nil {
			total = 0
			for _, sh := range ns.Shards {
				total += int64(sh.MemtableBytes)
			}
		}
		backlog[id] = total
		return total
	}
	out := make([]hashring.RangeMove, len(moves))
	for i, m := range moves {
		best := m.From
		for _, cand := range old.OwnersAt(m.Hi, rf) {
			if cand == m.To {
				continue
			}
			if load(cand) < load(best) {
				best = cand
			}
		}
		m.From = best
		out[i] = m
	}
	return out
}

// streamRange pages one token range from source to target at epoch 0:
// each page is written to the target before the next is fetched.
func streamRange(pool *transport.Pool, m hashring.RangeMove, srcAddr, dstAddr string) (cells int64, pages int, err error) {
	dst := pool.Caller(dstAddr)
	pages, err = pageRange(pool.Caller(srcAddr), m.Lo, m.Hi, streamPageCells, func(entries []row.Entry) error {
		if len(entries) == 0 {
			return nil
		}
		if _, err := call[*wire.BatchPutResponse](dst, &wire.BatchPutRequest{Entries: entries}); err != nil { // epoch 0
			return err
		}
		cells += int64(len(entries))
		return nil
	})
	return cells, pages, err
}
