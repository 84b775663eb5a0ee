package cluster

// This file is the node-side membership machinery — what turns a set
// of kvstore processes into a self-organizing cluster with no external
// coordinator:
//
//   - the peer pool (a transport.Pool): one connection per peer
//     address, dialed on first use and re-dialed after it breaks,
//     shared by dual-write forwarding, liveness probes and departure
//     announcements. Join coordination streams over a scratch pool of
//     its own.
//   - the prober: periodic jittered pings with suspicion counts. A
//     peer missing enough consecutive probes is marked down; a down
//     peer answering again is marked up, which kicks an immediate
//     repair pass so the returnee catches up on writes it missed.
//   - the repair loop: self-scheduled anti-entropy over the ranges
//     this node owns. The digest exchange makes a converged pass cost
//     only digest round trips — the skip-if-converged check is built
//     into the protocol, not bolted on.
//   - handleJoin: any current member can coordinate a JoinRequest by
//     running the rebalance state machine (Node.coordinate in
//     coordinator.go) over the wire against the whole membership,
//     itself included.
//   - JoinRing / Connect: process bootstrap, one seed read each
//     (dialRing). JoinRing boots a node at a seed's current topology
//     and sends one JoinRequest on the same connection; Connect builds
//     a routing client from seed addresses alone.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"scalekv/internal/hashring"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

// defaultSuspicionThreshold is how many consecutive failed probes mark
// a peer down: one lost probe is noise, three in a row is an outage.
const defaultSuspicionThreshold = 3

// --- Peer health ------------------------------------------------------------

// peerState is the prober's view of one peer.
type peerState struct {
	up        bool
	suspicion int
	since     time.Time
}

// PeerHealth is one peer's liveness as this node sees it: Up with the
// current consecutive-miss count, and since when the state has held.
type PeerHealth struct {
	Up        bool
	Suspicion int
	Since     time.Time
}

// PeerHealth snapshots the node's liveness view of its peers. Peers
// appear after their first probe (or a Leave announcement); a node
// with probing disabled reports an empty map.
func (n *Node) PeerHealth() map[hashring.NodeID]PeerHealth {
	n.healthMu.Lock()
	defer n.healthMu.Unlock()
	out := make(map[hashring.NodeID]PeerHealth, len(n.health))
	for id, ps := range n.health {
		out[id] = PeerHealth{Up: ps.up, Suspicion: ps.suspicion, Since: ps.since}
	}
	return out
}

// notePeer folds one probe outcome into the health view. The
// down-to-up transition kicks an immediate repair pass: the returning
// peer has a gap to catch up on, and waiting for the next scheduled
// pass would stretch its divergence window for no reason.
func (n *Node) notePeer(id hashring.NodeID, ok bool) {
	recovered := false
	now := time.Now()
	n.healthMu.Lock()
	ps := n.health[id]
	if ps == nil {
		ps = &peerState{up: true, since: now}
		n.health[id] = ps
	}
	if ok {
		if !ps.up {
			ps.up = true
			ps.since = now
			recovered = true
		}
		ps.suspicion = 0
	} else {
		ps.suspicion++
		if ps.up && ps.suspicion >= defaultSuspicionThreshold {
			ps.up = false
			ps.since = now
		}
	}
	n.healthMu.Unlock()
	if recovered {
		n.kickRepair()
	}
}

// markPeerDown flips a peer down immediately — a graceful departure
// announcement needs no suspicion window.
func (n *Node) markPeerDown(id hashring.NodeID) {
	now := time.Now()
	n.healthMu.Lock()
	ps := n.health[id]
	if ps == nil {
		ps = &peerState{}
		n.health[id] = ps
	}
	if ps.up || ps.since.IsZero() {
		ps.since = now
	}
	ps.up = false
	ps.suspicion = defaultSuspicionThreshold
	n.healthMu.Unlock()
}

// pruneHealth drops health entries for members no longer on the ring.
func (n *Node) pruneHealth(topo *hashring.Topology) {
	n.healthMu.Lock()
	for id := range n.health {
		if !topo.Contains(id) {
			delete(n.health, id)
		}
	}
	n.healthMu.Unlock()
}

// --- The prober -------------------------------------------------------------

// jittered spreads a period ±25% so nodes started in lockstep don't
// probe (or repair) in lockstep forever.
func jittered(rnd *rand.Rand, d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.75 + 0.5*rnd.Float64()))
}

func (n *Node) probeLoop() {
	defer n.loopWg.Done()
	rnd := rand.New(rand.NewSource(time.Now().UnixNano() ^ (int64(n.id) << 32)))
	for {
		select {
		case <-n.stop:
			return
		case <-time.After(jittered(rnd, n.probeInterval)):
		}
		n.probeOnce()
	}
}

// probeOnce pings every ring peer through the peer pool. The per-probe
// timeout is bounded so a hung peer costs one window, not a wedged
// loop; the pool drops the hung connection, so the next probe re-dials
// instead of queueing behind a dead stream.
func (n *Node) probeOnce() {
	rs := n.ring.Load()
	if rs == nil {
		return
	}
	timeout := n.probeInterval
	if timeout < 100*time.Millisecond {
		timeout = 100 * time.Millisecond
	}
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ping := &wire.PingRequest{FromID: uint32(n.id), Epoch: rs.topo.Epoch()}
	for _, id := range rs.topo.Nodes() {
		if id == n.id {
			continue
		}
		addr := rs.addrs[id]
		if addr == "" {
			continue
		}
		probe := callerFunc(func(payload []byte) ([]byte, error) { return n.peers.CallTimeout(addr, payload, timeout) })
		_, err := call[*wire.PingResponse](probe, ping)
		n.notePeer(id, err == nil)
	}
	n.pruneHealth(rs.topo)
}

func (n *Node) handlePing(req *wire.PingRequest) *wire.PingResponse {
	resp := &wire.PingResponse{ID: uint32(n.id)}
	if rs := n.ring.Load(); rs != nil {
		resp.Epoch = rs.topo.Epoch()
	}
	return resp
}

func (n *Node) handleLeave(req *wire.LeaveRequest) *wire.LeaveResponse {
	// A departure announcement, not a membership change: the ring only
	// shrinks through the rebalance state machine (which drains data
	// first). The announcing peer just stops being probed optimistically.
	n.markPeerDown(hashring.NodeID(req.ID))
	return &wire.LeaveResponse{}
}

// announceLeave tells every peer this node is going away, best effort
// with a short per-peer timeout so shutdown cannot hang on a dead peer.
func (n *Node) announceLeave() {
	rs := n.ring.Load()
	if rs == nil || n.dialer == nil {
		return
	}
	payload, err := codec.Marshal(&wire.LeaveRequest{ID: uint32(n.id)})
	if err != nil {
		return
	}
	for _, id := range rs.topo.Nodes() {
		if id == n.id {
			continue
		}
		addr := rs.addrs[id]
		if addr == "" {
			continue
		}
		n.peers.CallTimeout(addr, payload, time.Second)
	}
}

// --- Self-scheduled repair --------------------------------------------------

// kickRepair requests an immediate repair pass (coalesced: one pending
// kick at a time). No-op when the repair loop is disabled.
func (n *Node) kickRepair() {
	if n.repairInterval <= 0 {
		return
	}
	select {
	case n.repairKick <- struct{}{}:
	default:
	}
}

func (n *Node) repairLoop() {
	defer n.loopWg.Done()
	rnd := rand.New(rand.NewSource(time.Now().UnixNano() ^ (int64(n.id) << 16)))
	for {
		select {
		case <-n.stop:
			return
		case <-time.After(jittered(rnd, n.repairInterval)):
		case <-n.repairKick:
		}
		n.RepairNow()
	}
}

// RepairNow runs one anti-entropy pass over the replicated ranges this
// node owns, converging them with their other owners (cells ship both
// directions, last-write-wins on version). It is the repair loop's
// body and an admin entry point. Only this node's engine can have its
// tombstone GC fenced for the pass; the other owners rely on their own
// passes running often enough within gc_grace (see docs/consistency.md).
// A pass on a converged cluster ships zero cells and costs only digest
// round trips. Returns nil, nil when the node has nothing to repair
// (no ring, rf < 2, single member, or no dialer).
func (n *Node) RepairNow() (*RepairReport, error) {
	rs := n.ring.Load()
	if rs == nil || rs.rf < 2 || rs.topo.Size() < 2 || n.dialer == nil {
		return nil, nil
	}
	cli := NewClient(rs.topo, ClientOptions{
		ReplicationFactor: rs.rf,
		Dialer:            n.dialer,
		Addrs:             rs.addrs,
	})
	defer cli.Close()
	fence := func(lo, hi int64) func() { return n.engine.FenceRange(lo, hi) }
	owner := n.id
	rep, err := cli.repairRanges(math.MinInt64, math.MaxInt64, rs.rf, fence, &owner)
	if rep != nil {
		n.RepairPasses.Add(1)
		n.RepairCellsShipped.Add(rep.CellsShipped)
	}
	return rep, err
}

// --- Wire-driven migration handlers ----------------------------------------

func nodesFromWire(nodes []wire.NodeAddr) ([]hashring.NodeID, map[hashring.NodeID]string) {
	ids := make([]hashring.NodeID, 0, len(nodes))
	addrs := make(map[hashring.NodeID]string, len(nodes))
	for _, na := range nodes {
		id := hashring.NodeID(na.ID)
		ids = append(ids, id)
		if na.Addr != "" {
			addrs[id] = na.Addr
		}
	}
	return ids, addrs
}

// ringFromWire builds the topology a ring-state message describes, after
// hashring.Validate has checked its shape: the one way a ring arriving
// over a socket becomes a Topology.
func ringFromWire(epoch uint64, nodes []wire.NodeAddr, vnodes uint32) (*hashring.Topology, map[hashring.NodeID]string, error) {
	ids, addrs := nodesFromWire(nodes)
	if err := hashring.Validate(ids, int(vnodes)); err != nil {
		return nil, nil, fmt.Errorf("cluster: ring state at epoch %d: %w", epoch, err)
	}
	return hashring.FromNodes(epoch, ids, int(vnodes)), addrs, nil
}

// handleBeginMigration opens the migration window from the wire: the
// request carries the full move list and the next epoch's address
// book; this node filters its own roles and forwards to its targets
// through the peer pool (the pool outlives the window, so the
// coordinator doesn't manage this node's connections).
func (n *Node) handleBeginMigration(req *wire.BeginMigrationRequest) *wire.BeginMigrationResponse {
	moves := movesFromWire(req.Moves)
	_, addrs := nodesFromWire(req.Nodes)
	for _, m := range moves {
		if m.From != n.id {
			continue
		}
		if addrs[m.To] == "" {
			return &wire.BeginMigrationResponse{ErrMsg: fmt.Sprintf("no address for forward target %d", m.To)}
		}
		if n.dialer == nil {
			return &wire.BeginMigrationResponse{ErrMsg: fmt.Sprintf("node %d cannot forward to %d: no dialer", n.id, m.To)}
		}
	}
	n.BeginMigration(moves, addrs)
	return &wire.BeginMigrationResponse{}
}

// handleSetRingState is the epoch flip from the wire. Equal epochs are
// an idempotent re-flip (a coordinator retrying after a lost
// response); older epochs are rejected — a node that has moved on must
// not be rewound.
func (n *Node) handleSetRingState(req *wire.SetRingStateRequest) *wire.SetRingStateResponse {
	cur := n.ring.Load()
	if cur != nil {
		if req.Epoch < cur.topo.Epoch() {
			return &wire.SetRingStateResponse{ErrMsg: fmt.Sprintf(
				"stale epoch: node %d is at %d, refusing flip to %d", n.id, cur.topo.Epoch(), req.Epoch)}
		}
		if req.Epoch == cur.topo.Epoch() {
			return &wire.SetRingStateResponse{}
		}
	}
	topo, addrs, err := ringFromWire(req.Epoch, req.Nodes, req.Vnodes)
	if err != nil {
		return &wire.SetRingStateResponse{ErrMsg: err.Error()}
	}
	n.installRing(topo, addrs, int(req.RF), true)
	n.pruneHealth(topo)
	return &wire.SetRingStateResponse{}
}

// handleJoin admits a new member: this node coordinates the join
// (Node.coordinate), executed entirely over the wire against the
// current membership, itself included — its own flip arrives as a
// SetRingStateRequest over a self-dialed connection.
func (n *Node) handleJoin(req *wire.JoinRequest) *wire.JoinResponse {
	report, err := n.coordinate(hashring.NodeID(req.ID), req.Addr, false)
	if err != nil {
		return &wire.JoinResponse{ErrMsg: err.Error()}
	}
	return report.joinResponse()
}

// --- Process bootstrap ------------------------------------------------------

// ringStateRPC asks one connection for its ring state.
func ringStateRPC(conn transport.Caller) (*wire.RingStateResponse, error) {
	return call[*wire.RingStateResponse](conn, &wire.RingStateRequest{})
}

// dialRing dials a member and reads its ring: the one bootstrap read of
// JoinRing and Connect. On success the caller owns, and closes, the
// returned connection.
func dialRing(dial Dialer, addr string) (*transport.Client, *ringState, error) {
	conn, err := dial(addr)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: dial seed %s: %w", addr, err)
	}
	rs, err := ringStateRPC(conn)
	if err == nil {
		var topo *hashring.Topology
		var addrs map[hashring.NodeID]string
		if topo, addrs, err = ringFromWire(rs.Epoch, rs.Nodes, rs.Vnodes); err == nil {
			return conn, &ringState{topo: topo, addrs: addrs, rf: int(rs.RF)}, nil
		}
	}
	conn.Close()
	return nil, nil, fmt.Errorf("cluster: seed %s: %w", addr, err)
}

// JoinRing boots a node and brings it into a live ring through a seed
// member: learn the seed's current topology, start serving at it (the
// joiner must accept the coordinator's epoch-0 streams and take part
// in the flip), then send one JoinRequest on the same connection and
// block until the seed has streamed this node's ranges over and
// flipped the cluster. On return the node is a routed member at the
// response's epoch. On any failure the node (or, before it started,
// the listener) is closed, so the address can be listened on again.
//
// opts.ID < 0 picks the next free ID from the seed's membership.
// opts.Dialer and opts.AdvertiseAddr are required. A node restarting
// from a persisted topology that already includes it skips the
// JoinRequest (its ranges are on disk; anti-entropy covers the gap).
func JoinRing(l transport.Listener, opts NodeOptions, seedAddr string) (_ *Node, _ *wire.JoinResponse, err error) {
	var node *Node
	defer func() {
		switch {
		case err == nil:
		case node != nil:
			node.Close()
		default:
			l.Close()
		}
	}()
	if opts.Dialer == nil {
		return nil, nil, errors.New("cluster: JoinRing needs a Dialer")
	}
	if opts.AdvertiseAddr == "" {
		return nil, nil, errors.New("cluster: JoinRing needs an AdvertiseAddr")
	}
	seed, rs, err := dialRing(opts.Dialer, seedAddr)
	if err != nil {
		return nil, nil, err
	}
	defer seed.Close()
	if opts.ID < 0 {
		ids := rs.topo.Nodes() // sorted ascending
		opts.ID = ids[len(ids)-1] + 1
	}
	if opts.ReplicationFactor <= 0 {
		opts.ReplicationFactor = rs.rf
	}
	opts.Topology = rs.topo
	opts.Addrs = rs.addrs

	if node, err = StartNode(l, opts); err != nil {
		return nil, nil, err
	}
	// A persisted topology (StartNode prefers the higher epoch) may
	// already include this node: a member restarting with -join set.
	// It is still routed to; re-joining would reshuffle data for
	// nothing.
	if cur := node.ring.Load(); cur != nil && cur.topo.Contains(node.id) {
		return node, &wire.JoinResponse{Epoch: cur.topo.Epoch()}, nil
	}
	jr, err := call[*wire.JoinResponse](seed, &wire.JoinRequest{ID: uint32(node.id), Addr: opts.AdvertiseAddr})
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: join via %s: %w", seedAddr, err)
	}
	return node, jr, nil
}

// Connect bootstraps a routing client from seed addresses alone: every
// seed is asked for its ring state, the highest epoch wins, and the
// client inherits the ring's replication factor unless the options
// pin one. Further members are dialed lazily as routing needs them.
func Connect(seeds []string, opts ClientOptions) (*Client, error) {
	if opts.Dialer == nil {
		return nil, errors.New("cluster: Connect needs a Dialer")
	}
	var best *ringState
	lastErr := errors.New("cluster: no seed addresses")
	for _, addr := range seeds {
		conn, rs, err := dialRing(opts.Dialer, addr)
		if err != nil {
			lastErr = err
			continue
		}
		conn.Close()
		if best == nil || rs.topo.Epoch() > best.topo.Epoch() {
			best = rs
		}
	}
	if best == nil {
		return nil, fmt.Errorf("cluster: connect: %w", lastErr)
	}
	if opts.ReplicationFactor <= 0 {
		opts.ReplicationFactor = best.rf
	}
	merged := copyAddrs(opts.Addrs)
	for id, a := range best.addrs {
		merged[id] = a
	}
	opts.Addrs = merged
	return NewClient(best.topo, opts), nil
}
