package hashring

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestEpochStartsAtOneAndIncrements(t *testing.T) {
	topo := New(3, 16)
	if topo.Epoch() != 1 {
		t.Fatalf("fresh topology epoch %d want 1", topo.Epoch())
	}
	next, _, err := topo.AddNode(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch() != 2 {
		t.Fatalf("epoch after join %d want 2", next.Epoch())
	}
	if topo.Epoch() != 1 {
		t.Fatal("AddNode mutated the old topology's epoch")
	}
	after, _, err := next.RemoveNode(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch() != 3 {
		t.Fatalf("epoch after leave %d want 3", after.Epoch())
	}
}

// Epoch monotonicity over a random walk of joins and leaves.
func TestEpochMonotonicUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	topo := New(4, 16)
	nextID := NodeID(4)
	last := topo.Epoch()
	for i := 0; i < 40; i++ {
		var err error
		var next *Topology
		if topo.Size() > 2 && rng.Intn(2) == 0 {
			victim := topo.Nodes()[rng.Intn(topo.Size())]
			next, _, err = topo.RemoveNode(victim, 1)
		} else {
			next, _, err = topo.AddNode(nextID, 1)
			nextID++
		}
		if err != nil {
			t.Fatal(err)
		}
		if next.Epoch() <= last {
			t.Fatalf("epoch %d did not advance past %d", next.Epoch(), last)
		}
		last = next.Epoch()
		topo = next
	}
}

func TestAddRemoveValidation(t *testing.T) {
	topo := New(2, 8)
	if _, _, err := topo.AddNode(1, 1); err == nil {
		t.Fatal("duplicate AddNode accepted")
	}
	if _, _, err := topo.RemoveNode(9, 1); err == nil {
		t.Fatal("RemoveNode of a non-member accepted")
	}
	one := New(1, 8)
	if _, _, err := one.RemoveNode(0, 1); err == nil {
		t.Fatal("removing the last node accepted")
	}
}

func TestFromNodesMatchesIncrementalBuild(t *testing.T) {
	topo := New(4, 32)
	next, _, err := topo.AddNode(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := FromNodes(next.Epoch(), next.Nodes(), next.Vnodes())
	if rebuilt.Epoch() != next.Epoch() || rebuilt.Size() != next.Size() {
		t.Fatal("FromNodes disagrees on epoch or size")
	}
	for i := 0; i < 2000; i++ {
		pk := fmt.Sprintf("key-%05d", i)
		if rebuilt.Primary(pk) != next.Primary(pk) {
			t.Fatalf("FromNodes placement diverges on %q", pk)
		}
		r1, r2 := rebuilt.Replicas(pk, 3), next.Replicas(pk, 3)
		for j := range r1 {
			if r1[j] != r2[j] {
				t.Fatalf("FromNodes replicas diverge on %q: %v vs %v", pk, r1, r2)
			}
		}
	}
}

// Diff completeness at rf=1: for every key, the primary changed iff the
// key's token is covered by exactly one move, and that move's endpoints
// are the old and new primaries. Moved ranges exactly cover old⊖new
// ownership.
func TestDiffCompletenessOnJoin(t *testing.T) {
	old := New(6, 48)
	next, moves, err := old.AddNode(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30000; i++ {
		pk := fmt.Sprintf("key-%06d", i)
		tok := Token(pk)
		covering := 0
		var mv RangeMove
		for _, m := range moves {
			if m.Contains(tok) {
				covering++
				mv = m
			}
		}
		was, now := old.Primary(pk), next.Primary(pk)
		if was == now {
			if covering != 0 {
				t.Fatalf("%q: unmoved key covered by %d moves", pk, covering)
			}
			continue
		}
		if covering != 1 {
			t.Fatalf("%q: moved key covered by %d moves, want exactly 1", pk, covering)
		}
		if mv.From != was || mv.To != now {
			t.Fatalf("%q: move %v does not match primaries %d->%d", pk, mv, was, now)
		}
	}
}

func TestDiffCompletenessOnLeave(t *testing.T) {
	old := New(7, 48)
	next, moves, err := old.RemoveNode(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30000; i++ {
		pk := fmt.Sprintf("key-%06d", i)
		tok := Token(pk)
		was, now := old.Primary(pk), next.Primary(pk)
		covering := 0
		var mv RangeMove
		for _, m := range moves {
			if m.Contains(tok) {
				covering++
				mv = m
			}
		}
		if was == now {
			if covering != 0 {
				t.Fatalf("%q: unmoved key covered by %d moves", pk, covering)
			}
			continue
		}
		if was != 3 {
			t.Fatalf("%q: primary changed %d->%d though only node 3 left", pk, was, now)
		}
		if covering != 1 || mv.From != was || mv.To != now {
			t.Fatalf("%q: bad coverage (%d moves, %v) for %d->%d", pk, covering, mv, was, now)
		}
	}
}

// Replica-aware diff: at rf>1 every key whose replica set gained a node
// has a move delivering its token to that node from an old owner.
func TestDiffCoversReplicaGains(t *testing.T) {
	const rf = 3
	old := New(5, 32)
	next, moves, err := old.AddNode(5, rf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		pk := fmt.Sprintf("key-%06d", i)
		tok := Token(pk)
		was := map[NodeID]bool{}
		for _, n := range old.Replicas(pk, rf) {
			was[n] = true
		}
		for _, n := range next.Replicas(pk, rf) {
			if was[n] {
				continue
			}
			found := false
			for _, m := range moves {
				if m.To == n && m.Contains(tok) {
					if !was[m.From] {
						t.Fatalf("%q: move source %d was not an old owner", pk, m.From)
					}
					found = true
				}
			}
			if !found {
				t.Fatalf("%q: gained owner %d has no covering move", pk, n)
			}
		}
	}
}

// Bounded movement: one join into an n-node ring moves at most ~K/n of
// K keys (2x slack for vnode arc noise).
func TestJoinMovementBounded(t *testing.T) {
	const n, K = 8, 40000
	old := New(n, 64)
	next, _, err := old.AddNode(NodeID(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < K; i++ {
		pk := fmt.Sprintf("key-%06d", i)
		if old.Primary(pk) != next.Primary(pk) {
			moved++
		}
	}
	bound := 2 * K / (n + 1)
	if moved > bound {
		t.Fatalf("join moved %d of %d keys, above 2K/N bound %d", moved, K, bound)
	}
	if moved == 0 {
		t.Fatal("join moved nothing; diff is vacuous")
	}
	// And every moved key lands on the new node.
	for i := 0; i < K; i++ {
		pk := fmt.Sprintf("key-%06d", i)
		if old.Primary(pk) != next.Primary(pk) && next.Primary(pk) != NodeID(n) {
			t.Fatalf("%q moved to %d, not the joining node", pk, next.Primary(pk))
		}
	}
}

// Retirements mirror the diff: after a join, the ranges the old owners
// retire are exactly the ranges the new node gained.
func TestRetirementsMirrorMoves(t *testing.T) {
	old := New(4, 32)
	next, moves, err := old.AddNode(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	retire := Retirements(old, next, 1)
	inMoves := func(tok int64) bool {
		for _, m := range moves {
			if m.Contains(tok) {
				return true
			}
		}
		return false
	}
	inRetire := func(tok int64) bool {
		for _, r := range retire {
			if r.Lo <= tok && tok <= r.Hi {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50000; i++ {
		tok := int64(rng.Uint64())
		if inMoves(tok) != inRetire(tok) {
			t.Fatalf("token %d: move coverage %v != retire coverage %v", tok, inMoves(tok), inRetire(tok))
		}
	}
	for _, probe := range []int64{math.MinInt64, math.MaxInt64, 0} {
		if inMoves(probe) != inRetire(probe) {
			t.Fatalf("boundary token %d: move/retire coverage disagrees", probe)
		}
	}
	// At rf=1 every retirement belongs to the node that was primary.
	for _, r := range retire {
		if got := old.PrimaryForToken(r.Hi); got != r.Node {
			t.Fatalf("retirement %v not owned by old primary %d", r, got)
		}
	}
}

func TestOwnersAtMatchesReplicas(t *testing.T) {
	topo := New(5, 32)
	for i := 0; i < 1000; i++ {
		pk := fmt.Sprintf("key-%04d", i)
		byKey := topo.Replicas(pk, 3)
		byTok := topo.OwnersAt(Token(pk), 3)
		for j := range byKey {
			if byKey[j] != byTok[j] {
				t.Fatalf("%q: Replicas %v != OwnersAt %v", pk, byKey, byTok)
			}
		}
	}
}

// TestValidateBoundsForeignRings calls the validator directly: a ring
// shape read from a topology file or a ring-state message once went
// straight to FromNodes, so "vnodes 1000000000" made a node derive that
// many tokens per member, and a member listed twice was accepted. The
// cases never reach FromNodes, which would allocate before failing.
func TestValidateBoundsForeignRings(t *testing.T) {
	many := make([]NodeID, MaxMembers+1)
	for i := range many {
		many[i] = NodeID(i)
	}
	for _, c := range []struct {
		name   string
		ids    []NodeID
		vnodes int
		ok     bool
	}{
		{"one member", []NodeID{0}, 64, true},
		{"vnodes at the bound", []NodeID{0, 1, 2}, MaxVnodes, true},
		{"members at the bound", many[:MaxMembers], 1, true},
		{"a billion vnodes", []NodeID{0}, 1_000_000_000, false},
		{"vnodes past the bound", []NodeID{0}, MaxVnodes + 1, false},
		{"zero vnodes", []NodeID{0}, 0, false},
		{"negative vnodes", []NodeID{0}, -1, false},
		{"no members", nil, 16, false},
		{"members past the bound", many, 1, false},
		{"duplicate member", []NodeID{0, 3, 0}, 16, false},
		{"negative member", []NodeID{-1}, 16, false},
	} {
		if err := Validate(c.ids, c.vnodes); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
