package cluster

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"scalekv/internal/hashring"
	"scalekv/internal/row"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

// This file is the elastic-topology control plane: a coordinator that
// executes node joins and leaves as a state machine while the cluster
// serves traffic. The paper's scalability argument rests on exactly
// this capability — "just add nodes" — and the state machine is what
// makes adding nodes safe under load:
//
//  1. snapshot — diff the old topology against the new one into token
//     RangeMoves (hashring.AddNode/RemoveNode), and pick a streaming
//     source for each move (the least-loaded old owner, by NodeStats).
//  2. dual-write window — every source node starts forwarding accepted
//     writes that fall in a moving range to the range's new owner, so
//     writes landing behind the streamer's cursor are not lost.
//  3. stream — page each range out of its source (StreamRangeRequest)
//     and into its target (BatchPutRequest at epoch 0) until drained.
//  4. flip — install the new topology on every node and the cluster
//     client. From here, requests routed with the old epoch are
//     rejected and clients re-route after a ring refresh.
//  5. retire — close the dual-write window and DeleteRange the moved
//     ranges on their old owners (or, for a leave, stop the node).
//
// Every step is a wire RPC addressed by the member address book —
// BeginMigrationRequest, StreamRangeRequest, SetRingStateRequest,
// EndMigrationRequest, DeleteRangeRequest — so the same state machine
// runs whether the coordinator shares a process with the nodes (the
// in-process Cluster of tests and examples) or is a seed member
// serving a JoinRequest from a process that just booted across the
// network (Node.handleJoin). The in-process Cluster is a thin client
// of the protocol, not a privileged caller.
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
	// Moves is the ownership diff that was streamed.
	Moves []hashring.RangeMove
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

// rebalanceParams is one topology change, fully resolved: the diff is
// computed, the next address book is known, and every participant is
// reachable by address.
type rebalanceParams struct {
	rf        int
	old, next *hashring.Topology
	moves     []hashring.RangeMove
	// addrs is the member address book at the old epoch (stream
	// sources live here); addrsNext already reflects the new
	// membership (stream targets and flip recipients).
	addrs, addrsNext map[hashring.NodeID]string
	subject          hashring.NodeID
	// streamHook, when set (tests only), is consulted before each range
	// is streamed — an injected failure or panic simulates a
	// coordinator dying mid-join.
	streamHook func(hashring.RangeMove) error
}

// runRebalance executes the join/leave state machine after the
// membership diff is known: source selection, dual-write, streaming,
// flip, retirement — all over the wire, through a scratch pool of its
// own (stats, streaming, control, retirement) that the caller closes
// when done. The scratch pool keeps 4096-cell stream pages off the
// data-path connections and out of their per-connection worker queues,
// and it re-dials a connection that breaks mid-change, so the window
// is closed on every participant even after an aborted stream.
func runRebalance(pool *transport.Pool, p rebalanceParams) (*RebalanceReport, error) {
	report := &RebalanceReport{Node: p.subject, Epoch: p.next.Epoch()}

	// 1. Source selection: at rf > 1 a range has several old owners;
	// stream from the one with the smallest write backlog so a node
	// busy flushing is not also the one serving the handoff.
	moves := pickSources(pool, p.old, p.moves, p.rf, p.addrs)
	report.Moves = moves

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
	for id := range p.addrsNext {
		participants[id] = true
	}
	participants[p.subject] = true
	beginReq := &wire.BeginMigrationRequest{Moves: wireMoves(moves)}
	for id, addr := range p.addrsNext {
		beginReq.Nodes = append(beginReq.Nodes, wire.NodeAddr{ID: uint32(id), Addr: addr})
	}
	addrOf := func(id hashring.NodeID) string {
		if a, ok := p.addrsNext[id]; ok {
			return a
		}
		return p.addrs[id]
	}
	var migrating []string
	defer func() {
		// Close the window on every node that opened it — on the error
		// path AND when a test hook panics to simulate a dying
		// coordinator. Best effort: an unreachable participant keeps
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
		if hook := p.streamHook; hook != nil {
			if err := hook(m); err != nil {
				return nil, fmt.Errorf("cluster: stream %v: %w", m, err)
			}
		}
		streamed, pages, err := streamRange(pool, m, p.addrs[m.From], p.addrsNext[m.To])
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
		Epoch:  p.next.Epoch(),
		Vnodes: uint32(p.next.Vnodes()),
		RF:     uint32(p.rf),
		Nodes:  beginReq.Nodes,
	}
	flipStart := time.Now()
	flipTargets := make(map[hashring.NodeID]string, len(p.addrsNext)+1)
	for id, addr := range p.addrsNext {
		flipTargets[id] = addr
	}
	if _, ok := flipTargets[p.subject]; !ok {
		if a, ok := p.addrs[p.subject]; ok {
			flipTargets[p.subject] = a
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
	for _, r := range hashring.Retirements(p.old, p.next, p.rf) {
		if !p.next.Contains(r.Node) {
			continue
		}
		dr, err := call[*wire.DeleteRangeResponse](pool.Caller(p.addrsNext[r.Node]), &wire.DeleteRangeRequest{Lo: r.Lo, Hi: r.Hi})
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

// AddNode grows the cluster by one member under live traffic: it boots
// a fresh node, streams the token ranges the new member owns from their
// current owners, flips every node and the client to the new epoch, and
// retires the moved ranges at their old owners. In-flight client
// operations never fail: writes during the stream are dual-written,
// and requests routed with the old epoch after the flip are rejected
// with a wrong-epoch error that makes the client refresh and re-route.
func (c *Cluster) AddNode() (*Node, *RebalanceReport, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()

	old := c.client.topo()
	var id hashring.NodeID
	for _, n := range old.Nodes() {
		if n >= id {
			id = n + 1
		}
	}

	next, moves, err := old.AddNode(id, c.opts.ReplicationFactor)
	if err != nil {
		return nil, nil, err
	}

	// Boot the new member at the old epoch; clients do not route to it
	// until the flip, and the streamer writes at epoch 0.
	l, addr, err := c.listen(id)
	if err != nil {
		return nil, nil, err
	}
	node, err := StartNode(l, NodeOptions{
		ID:                id,
		Dir:               filepath.Join(c.baseDir, fmt.Sprintf("node-%d", id)),
		Storage:           c.opts.Storage,
		Topology:          old,
		Addrs:             c.addrs,
		ReplicationFactor: c.opts.ReplicationFactor,
		Dialer:            c.dial,
		AdvertiseAddr:     addr,
	})
	if err != nil {
		l.Close()
		return nil, nil, err
	}

	addrsNext := copyAddrs(c.addrs)
	addrsNext[id] = addr

	// The joining node takes part in the flip (it must validate the new
	// epoch once clients route to it), so it joins the node list before
	// the state machine runs. The teardown is a defer, not an error
	// branch: an abort must never strand a booted-but-unrouted node —
	// not on a returned error, and not when the coordinator dies mid-
	// join (a panic unwinding through here). Either way the victim's
	// listener and engine close, its directory stays on disk, and a
	// retried AddNode re-picks the same ID and reopens it idempotently.
	c.Nodes = append(c.Nodes, node)
	committed := false
	defer func() {
		if !committed {
			c.Nodes = c.Nodes[:len(c.Nodes)-1]
			node.Close()
		}
	}()
	report, err := c.rebalance(old, next, moves, addrsNext, id)
	if err != nil {
		return nil, nil, err
	}
	committed = true
	c.addrs = addrsNext
	return node, report, nil
}

// RemoveNode drains a member and shrinks the cluster: the leaving
// node's ranges are streamed to their new owners (with the dual-write
// window covering concurrent writes), the topology flips, and the node
// is shut down. Its storage directory is left on disk.
func (c *Cluster) RemoveNode(id hashring.NodeID) (*RebalanceReport, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()

	old := c.client.topo()
	next, moves, err := old.RemoveNode(id, c.opts.ReplicationFactor)
	if err != nil {
		return nil, err
	}
	var victim *Node
	for _, n := range c.Nodes {
		if n.ID() == id {
			victim = n
		}
	}
	if victim == nil {
		return nil, fmt.Errorf("cluster: node %d not running here", id)
	}

	addrsNext := copyAddrs(c.addrs)
	delete(addrsNext, id)

	report, err := c.rebalance(old, next, moves, addrsNext, id)
	if err != nil {
		return nil, err
	}

	// The member is drained and unrouted; stop it. The flip already
	// committed the leave, so the bookkeeping happens regardless of how
	// the shutdown goes — keeping a closed node listed would poison
	// FlushAll, Close and the next topology change. A Close error (e.g.
	// a latched background-flush failure surfacing in the final drain)
	// is reported after the fact.
	survivors := make([]*Node, 0, len(c.Nodes)-1)
	for _, n := range c.Nodes {
		if n.ID() != id {
			survivors = append(survivors, n)
		}
	}
	closeErr := victim.Close()
	c.Nodes = survivors
	c.addrs = addrsNext
	return report, closeErr
}

// rebalance runs the shared state machine over the wire and adopts the
// result into the in-process bookkeeping. addrsNext must already
// reflect the new membership.
func (c *Cluster) rebalance(old, next *hashring.Topology, moves []hashring.RangeMove, addrsNext map[hashring.NodeID]string, subject hashring.NodeID) (*RebalanceReport, error) {
	pool := transport.NewPool(c.dial)
	defer pool.Close()
	report, err := runRebalance(pool, rebalanceParams{
		rf:         c.opts.ReplicationFactor,
		old:        old,
		next:       next,
		moves:      moves,
		addrs:      c.addrs,
		addrsNext:  addrsNext,
		subject:    subject,
		streamHook: c.testStreamErr,
	})
	if err != nil {
		return nil, err
	}
	c.client.adopt(next, addrsNext)
	return report, nil
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
