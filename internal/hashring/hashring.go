// Package hashring implements the DHT placement layer: a Cassandra-style
// token ring over murmur tokens with virtual nodes and replication. This
// is the "pseudo-random hash function to place an object in one node"
// whose balls-into-bins imbalance (Formula 1) the paper studies.
//
// The ring is modelled as an immutable, epoch-stamped Topology. Every
// membership change (AddNode, RemoveNode) produces a NEW topology with
// the epoch incremented plus an ownership diff — the exact token ranges
// whose owner changed, as []RangeMove — so the cluster layer can stream
// data between nodes and clients can detect that their routing table is
// stale (a node answering with a higher epoch means "refresh your ring").
// Immutability is what makes the diff well-defined: the coordinator
// snapshots (old, new, moves) atomically and drives the join/leave state
// machine against that snapshot while readers keep using the old epoch.
//
// Tokens are derived deterministically from (node, vnode), so a topology
// is fully described by (epoch, member IDs, vnodes): every process that
// agrees on those three agrees on placement. That is what lets ring
// state travel the wire as a compact membership list instead of a full
// token dump.
package hashring

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"scalekv/internal/murmur"
)

// NodeID identifies a cluster node.
type NodeID int

// Topology is an immutable epoch-stamped token ring: a key belongs to
// the first vnode token clockwise from the key's token. Mutating
// operations return a new Topology; all methods are safe for concurrent
// use on a shared instance.
type Topology struct {
	epoch  uint64
	tokens []tokenEntry // sorted by token
	nodes  []NodeID     // sorted ascending
	vnodes int
}

// Ring is the historical name of Topology, kept as an alias so existing
// call sites (and the paper-model helpers) keep compiling.
type Ring = Topology

type tokenEntry struct {
	token int64
	node  NodeID
}

// Token maps a partition key to its position on the ring — the same
// murmur token the storage engine orders ScanRange by.
func Token(pk string) int64 {
	return murmur.Token([]byte(pk))
}

// New builds a ring of n nodes (IDs 0..n-1) with the given number of
// virtual nodes each, at epoch 1. Tokens are derived deterministically
// from (node, vnode) so every process sharing the topology agrees on
// placement. vnodes < 1 is clamped to 1.
func New(n, vnodes int) *Topology {
	if vnodes < 1 {
		vnodes = 1
	}
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return FromNodes(1, ids, vnodes)
}

// MaxVnodes bounds the virtual nodes per member, and MaxMembers the
// member count, of a ring shape that arrives from outside the process.
// FromNodes builds one token per member and vnode, so a larger claim in
// a topology file, a ring-state message or a flag would size that
// allocation; it is damage, not a ring to build.
const (
	MaxVnodes  = 1024
	MaxMembers = 1024
)

// Validate checks a ring shape that arrived from outside the process —
// a topology file, a ring-state message, a command-line flag — before
// FromNodes builds it: vnodes in [1, MaxVnodes], 1 to MaxMembers
// members, each ID non-negative and listed once.
func Validate(ids []NodeID, vnodes int) error {
	if vnodes < 1 || vnodes > MaxVnodes {
		return fmt.Errorf("hashring: %d vnodes per member, want 1 to %d", vnodes, MaxVnodes)
	}
	if len(ids) == 0 || len(ids) > MaxMembers {
		return fmt.Errorf("hashring: %d members, want 1 to %d", len(ids), MaxMembers)
	}
	seen := make(map[NodeID]bool, len(ids))
	for _, id := range ids {
		if id < 0 || seen[id] {
			return fmt.Errorf("hashring: member ID %d is negative or listed twice", id)
		}
		seen[id] = true
	}
	return nil
}

// FromNodes reconstructs a topology from its wire representation: the
// epoch, the member IDs and the vnode count. Token derivation is
// deterministic, so this yields placement identical to the topology the
// members were originally added to.
func FromNodes(epoch uint64, ids []NodeID, vnodes int) *Topology {
	if vnodes < 1 {
		vnodes = 1
	}
	t := &Topology{epoch: epoch, vnodes: vnodes}
	t.nodes = append(t.nodes, ids...)
	sort.Slice(t.nodes, func(a, b int) bool { return t.nodes[a] < t.nodes[b] })
	for _, id := range t.nodes {
		t.tokens = append(t.tokens, nodeTokens(id, vnodes)...)
	}
	sort.Slice(t.tokens, func(a, b int) bool { return t.tokens[a].token < t.tokens[b].token })
	return t
}

// nodeTokens derives one node's vnode tokens.
func nodeTokens(id NodeID, vnodes int) []tokenEntry {
	out := make([]tokenEntry, vnodes)
	for v := 0; v < vnodes; v++ {
		tok := murmur.Token([]byte(fmt.Sprintf("node-%d-vnode-%d", id, v)))
		out[v] = tokenEntry{token: tok, node: id}
	}
	return out
}

// Epoch returns the topology's version. Epochs start at 1 and every
// AddNode/RemoveNode increments; 0 is reserved on the wire for
// "unversioned" (admin/streaming) traffic that bypasses epoch checks.
func (t *Topology) Epoch() uint64 { return t.epoch }

// Vnodes returns the per-node virtual node count.
func (t *Topology) Vnodes() int { return t.vnodes }

// Nodes returns the ring's node IDs, sorted ascending.
func (t *Topology) Nodes() []NodeID { return append([]NodeID(nil), t.nodes...) }

// Size returns the number of nodes.
func (t *Topology) Size() int { return len(t.nodes) }

// Contains reports whether id is a member.
func (t *Topology) Contains(id NodeID) bool {
	i := sort.Search(len(t.nodes), func(i int) bool { return t.nodes[i] >= id })
	return i < len(t.nodes) && t.nodes[i] == id
}

// owner returns the index into tokens owning the given token.
func (t *Topology) owner(tok int64) int {
	i := sort.Search(len(t.tokens), func(i int) bool { return t.tokens[i].token >= tok })
	if i == len(t.tokens) {
		i = 0 // wrap around
	}
	return i
}

// Primary returns the node owning pk.
func (t *Topology) Primary(pk string) NodeID {
	if len(t.tokens) == 0 {
		return -1
	}
	return t.tokens[t.owner(Token(pk))].node
}

// PrimaryForToken returns the node owning a raw token.
func (t *Topology) PrimaryForToken(tok int64) NodeID {
	if len(t.tokens) == 0 {
		return -1
	}
	return t.tokens[t.owner(tok)].node
}

// Replicas returns rf distinct nodes for pk: the owner plus the next
// distinct nodes walking the ring clockwise, Cassandra's SimpleStrategy.
func (t *Topology) Replicas(pk string, rf int) []NodeID {
	if len(t.tokens) == 0 || rf < 1 {
		return nil
	}
	return t.ownersFrom(t.owner(Token(pk)), rf)
}

// OwnersAt returns the rf distinct replica owners of a raw token — the
// replica set of every key hashing into the token's arc. The coordinator
// uses it to enumerate streaming-source candidates for a range.
func (t *Topology) OwnersAt(tok int64, rf int) []NodeID {
	if len(t.tokens) == 0 || rf < 1 {
		return nil
	}
	return t.ownersFrom(t.owner(tok), rf)
}

// ownersFrom walks the ring clockwise from a token index collecting rf
// distinct nodes.
func (t *Topology) ownersFrom(i, rf int) []NodeID {
	if rf > len(t.nodes) {
		rf = len(t.nodes)
	}
	out := make([]NodeID, 0, rf)
	seen := make(map[NodeID]bool, rf)
	for len(out) < rf {
		e := t.tokens[i%len(t.tokens)]
		if !seen[e.node] {
			seen[e.node] = true
			out = append(out, e.node)
		}
		i++
	}
	return out
}

// --- Membership changes ----------------------------------------------------

// RangeMove is one element of an ownership diff: the inclusive token
// range [Lo, Hi] must be copied from node From (an owner under the old
// topology, holding the data) to node To (an owner only under the new
// topology). Wrap-around arcs are split at the int64 boundary, so Lo <=
// Hi always holds and range predicates need no modular arithmetic.
type RangeMove struct {
	Lo, Hi int64
	From   NodeID
	To     NodeID
}

// Contains reports whether a token falls in the move's range.
func (m RangeMove) Contains(tok int64) bool { return m.Lo <= tok && tok <= m.Hi }

// NodeRange is a token range annotated with the node it concerns — the
// unit of post-move retirement (DeleteRange on the node that no longer
// owns the range).
type NodeRange struct {
	Node   NodeID
	Lo, Hi int64
}

// AddNode returns a new topology with id as a member — epoch
// incremented — plus the ownership diff at replication factor rf: every
// token range the new node must receive, with the old primary as the
// streaming source. With a healthy vnode count the moved share is ~1/N
// of the keyspace (bounded movement — only arcs adjacent to the new
// node's tokens change hands; nothing else reshuffles).
func (t *Topology) AddNode(id NodeID, rf int) (*Topology, []RangeMove, error) {
	if t.Contains(id) {
		return nil, nil, fmt.Errorf("hashring: node %d already in topology", id)
	}
	next := FromNodes(t.epoch+1, append(t.Nodes(), id), t.vnodes)
	return next, DiffOwnership(t, next, rf), nil
}

// RemoveNode returns a new topology without id — epoch incremented —
// plus the ownership diff at replication factor rf: every token range
// some surviving node gains, with an old owner (still holding the data,
// the leaving node included) as the streaming source.
func (t *Topology) RemoveNode(id NodeID, rf int) (*Topology, []RangeMove, error) {
	if !t.Contains(id) {
		return nil, nil, fmt.Errorf("hashring: node %d not in topology", id)
	}
	if len(t.nodes) == 1 {
		return nil, nil, fmt.Errorf("hashring: cannot remove the last node")
	}
	ids := make([]NodeID, 0, len(t.nodes)-1)
	for _, n := range t.nodes {
		if n != id {
			ids = append(ids, n)
		}
	}
	next := FromNodes(t.epoch+1, ids, t.vnodes)
	return next, DiffOwnership(t, next, rf), nil
}

// arc is one elementary interval of the merged boundary set: every token
// in [lo, hi] has the same owner set under both topologies.
type arc struct{ lo, hi int64 }

// elementaryArcs splits the token space at every boundary of either
// topology. The wrap-around arc is split at the int64 boundary.
func elementaryArcs(old, new *Topology) []arc {
	bset := make(map[int64]bool, len(old.tokens)+len(new.tokens))
	for _, e := range old.tokens {
		bset[e.token] = true
	}
	for _, e := range new.tokens {
		bset[e.token] = true
	}
	bounds := make([]int64, 0, len(bset))
	for b := range bset {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
	if len(bounds) == 0 {
		return nil
	}
	arcs := make([]arc, 0, len(bounds)+1)
	// Wrap arc (last boundary, first boundary], split into two halves.
	// Ownership of both halves is decided by the first boundary token.
	if bounds[len(bounds)-1] != math.MaxInt64 {
		arcs = append(arcs, arc{bounds[len(bounds)-1] + 1, math.MaxInt64})
	}
	arcs = append(arcs, arc{math.MinInt64, bounds[0]})
	for i := 1; i < len(bounds); i++ {
		arcs = append(arcs, arc{bounds[i-1] + 1, bounds[i]})
	}
	sort.Slice(arcs, func(a, b int) bool { return arcs[a].lo < arcs[b].lo })
	return arcs
}

// ownersOfArc returns a topology's replica set for an arc. Every token
// in an elementary arc resolves to the same owner walk, decided by the
// first ring token at or after the arc (wrapping past MaxInt64 to the
// ring's first token).
func ownersOfArc(t *Topology, a arc, rf int) []NodeID {
	if rf < 1 {
		rf = 1
	}
	return t.OwnersAt(a.hi, rf)
}

// DiffOwnership computes the data movement implied by a topology change
// at replication factor rf: for every elementary arc whose owner set
// gained a node, one RangeMove per gained owner, sourced from the arc's
// old primary (which holds the data). Adjacent arcs with identical
// (From, To) are merged, so the result is compact.
func DiffOwnership(old, new *Topology, rf int) []RangeMove {
	var moves []RangeMove
	for _, a := range elementaryArcs(old, new) {
		oldOwners := ownersOfArc(old, a, rf)
		newOwners := ownersOfArc(new, a, rf)
		if len(oldOwners) == 0 {
			continue
		}
		was := make(map[NodeID]bool, len(oldOwners))
		for _, n := range oldOwners {
			was[n] = true
		}
		for _, n := range newOwners {
			if !was[n] {
				moves = append(moves, RangeMove{Lo: a.lo, Hi: a.hi, From: oldOwners[0], To: n})
			}
		}
	}
	return mergeMoves(moves)
}

// Retirements computes the ranges each node stops owning under the new
// topology — the DeleteRange work left after a join's streaming is done.
func Retirements(old, new *Topology, rf int) []NodeRange {
	var out []NodeRange
	for _, a := range elementaryArcs(old, new) {
		newOwners := ownersOfArc(new, a, rf)
		now := make(map[NodeID]bool, len(newOwners))
		for _, n := range newOwners {
			now[n] = true
		}
		for _, n := range ownersOfArc(old, a, rf) {
			if !now[n] {
				out = append(out, NodeRange{Node: n, Lo: a.lo, Hi: a.hi})
			}
		}
	}
	// Merge adjacent ranges per node.
	sort.Slice(out, func(a, b int) bool {
		if out[a].Node != out[b].Node {
			return out[a].Node < out[b].Node
		}
		return out[a].Lo < out[b].Lo
	})
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && merged[n-1].Node == r.Node && merged[n-1].Hi+1 == r.Lo {
			merged[n-1].Hi = r.Hi
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// mergeMoves coalesces adjacent moves with the same endpoints.
func mergeMoves(moves []RangeMove) []RangeMove {
	sort.Slice(moves, func(a, b int) bool {
		if moves[a].Lo != moves[b].Lo {
			return moves[a].Lo < moves[b].Lo
		}
		return moves[a].To < moves[b].To
	})
	merged := moves[:0]
	for _, m := range moves {
		if n := len(merged); n > 0 && merged[n-1].From == m.From && merged[n-1].To == m.To && merged[n-1].Hi+1 == m.Lo {
			merged[n-1].Hi = m.Hi
			continue
		}
		merged = append(merged, m)
	}
	return merged
}

// OwnedRange is one maximal token range whose replica set is constant:
// every key hashing into [Lo, Hi] lives on exactly Owners (primary
// first). The anti-entropy repair pass walks these ranges, comparing
// digests between the owners of each.
type OwnedRange struct {
	Lo, Hi int64
	Owners []NodeID
}

// OwnedRanges enumerates the whole token space as ranges with their
// rf-replica owner sets, in token order, adjacent ranges with identical
// owners merged. The ranges partition [MinInt64, MaxInt64] exactly —
// the wrap-around arc is split at the int64 boundary, like RangeMove.
func (t *Topology) OwnedRanges(rf int) []OwnedRange {
	if len(t.tokens) == 0 {
		return nil
	}
	var out []OwnedRange
	for _, a := range elementaryArcs(t, t) {
		owners := ownersOfArc(t, a, rf)
		if n := len(out); n > 0 && out[n-1].Hi+1 == a.lo && slices.Equal(out[n-1].Owners, owners) {
			out[n-1].Hi = a.hi
			continue
		}
		out = append(out, OwnedRange{Lo: a.lo, Hi: a.hi, Owners: owners})
	}
	return out
}

// --- Load measurement (the paper's imbalance study) ------------------------

// Distribution counts how many of the given keys land on each node —
// the input to every imbalance measurement in the paper.
func (t *Topology) Distribution(keys []string) map[NodeID]int {
	out := make(map[NodeID]int, len(t.nodes))
	for _, n := range t.nodes {
		out[n] = 0
	}
	for _, k := range keys {
		out[t.Primary(k)]++
	}
	return out
}

// MaxLoad returns the highest key count over nodes for the given keys,
// and the node holding it.
func (t *Topology) MaxLoad(keys []string) (NodeID, int) {
	dist := t.Distribution(keys)
	var bestNode NodeID = -1
	best := -1
	for _, n := range t.nodes { // deterministic order
		if dist[n] > best {
			best, bestNode = dist[n], n
		}
	}
	return bestNode, best
}

// Imbalance returns the relative overload of the most loaded node:
// (max - mean) / mean, the paper's p. Zero when there are no keys.
func (t *Topology) Imbalance(keys []string) float64 {
	if len(keys) == 0 || len(t.nodes) == 0 {
		return 0
	}
	_, max := t.MaxLoad(keys)
	mean := float64(len(keys)) / float64(len(t.nodes))
	return (float64(max) - mean) / mean
}
