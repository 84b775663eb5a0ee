package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalekv/internal/hashring"
	"scalekv/internal/row"
	"scalekv/internal/storage"
	"scalekv/internal/transport"
)

// repairBaseSeq stamps manufactured divergence far above anything the
// engines assigned on their own, so the intended winner is unambiguous.
const repairBaseSeq = uint64(1) << 30

// engineOf returns a cluster node's engine by ring ID.
func engineOf(t *testing.T, c *Cluster, id hashring.NodeID) *storage.Engine {
	t.Helper()
	for _, n := range c.Nodes {
		if n.ID() == id {
			return n.Engine()
		}
	}
	t.Fatalf("node %d not running", id)
	return nil
}

// divergeAt plants a pre-stamped entry directly on one replica's engine
// — the same state a dropped dual-write forward leaves behind: one
// replica saw the write, the others never did.
func divergeAt(t *testing.T, c *Cluster, id hashring.NodeID, e row.Entry) {
	t.Helper()
	if err := engineOf(t, c, id).PutBatch([]row.Entry{e}); err != nil {
		t.Fatal(err)
	}
}

// sendBreaker is a connection that breaks under its next request once
// armed: the request fails, and the node behind it stays up.
type sendBreaker struct {
	transport.Conn
	armed *atomic.Bool
}

func (b sendBreaker) Send(f transport.Frame) error {
	if b.armed.CompareAndSwap(true, false) {
		b.Conn.Close()
		return transport.ErrClosed
	}
	return b.Conn.Send(f)
}

// breakingClient is a read-repairing client of c whose connection to
// node breaks under the next request once armed is set — the node
// itself stays up, the realistic repairable failure. The client's pool
// re-dials on the request after.
func breakingClient(t *testing.T, c *Cluster, node hashring.NodeID, armed *atomic.Bool) *Client {
	t.Helper()
	cli := NewClient(c.Topology(), ClientOptions{
		ReplicationFactor: c.opts.ReplicationFactor,
		ReadRepair:        true,
		Addrs:             c.addrs,
		Dialer: func(addr string) (*transport.Client, error) {
			conn, err := c.network.Dial(addr)
			if err != nil {
				return nil, err
			}
			if addr == c.addrs[node] {
				conn = sendBreaker{conn, armed}
			}
			return transport.NewClient(conn), nil
		},
	})
	t.Cleanup(cli.Close)
	return cli
}

// assertRangeDigestsConverged compares owner digests over every
// replicated range: after a repair pass they must be identical,
// tombstones included.
func assertRangeDigestsConverged(t *testing.T, c *Cluster, rf int) {
	t.Helper()
	for _, or := range c.Topology().OwnedRanges(rf) {
		if len(or.Owners) < 2 {
			continue
		}
		ref, err := engineOf(t, c, or.Owners[0]).RangeDigest(or.Lo, or.Hi, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, other := range or.Owners[1:] {
			got, err := engineOf(t, c, other).RangeDigest(or.Lo, or.Hi, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if ref[i] != got[i] {
					t.Fatalf("range [%d,%d] leaf %d: node %d and %d still diverge after repair",
						or.Lo, or.Hi, i, or.Owners[0], other)
				}
			}
		}
	}
}

// TestRepairConvergesDivergedReplicas manufactures every divergence
// shape a dropped dual-write forward can leave — data vs data, data vs
// tombstone (both orders), a cell missing entirely on one replica — and
// asserts a single Cluster.Repair pass converges every replica engine
// to the last-write-wins winner, after which a second pass moves
// nothing.
func TestRepairConvergesDivergedReplicas(t *testing.T) {
	const rf = 2
	c := startTest(t, LocalOptions{Nodes: 4, ReplicationFactor: rf})
	cli := c.Client()

	const n = 200
	key := func(i int) string { return fmt.Sprintf("cell-%04d", i) }
	ck := []byte("ck")
	for i := 0; i < n; i++ {
		if err := cli.Put(key(i), ck, []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	topo := c.Topology()
	reps := func(pk string) []hashring.NodeID { return topo.Replicas(pk, rf) }

	// data vs data: both replicas saw a different "latest" write.
	r0 := reps(key(0))
	divergeAt(t, c, r0[0], row.Entry{PK: key(0), CK: ck, Value: []byte("loser"), Ver: row.Version{Seq: repairBaseSeq + 1, Node: 1}})
	divergeAt(t, c, r0[1], row.Entry{PK: key(0), CK: ck, Value: []byte("winner"), Ver: row.Version{Seq: repairBaseSeq + 2, Node: 2}})

	// data vs tombstone, tombstone newer: the delete must win everywhere.
	r1 := reps(key(1))
	divergeAt(t, c, r1[0], row.Entry{PK: key(1), CK: ck, Tombstone: true, Ver: row.Version{Seq: repairBaseSeq + 4, Node: 1}})
	divergeAt(t, c, r1[1], row.Entry{PK: key(1), CK: ck, Value: []byte("stale"), Ver: row.Version{Seq: repairBaseSeq + 3, Node: 2}})

	// tombstone vs data, data newer: the re-write must win everywhere.
	r2 := reps(key(2))
	divergeAt(t, c, r2[0], row.Entry{PK: key(2), CK: ck, Tombstone: true, Ver: row.Version{Seq: repairBaseSeq + 5, Node: 1}})
	divergeAt(t, c, r2[1], row.Entry{PK: key(2), CK: ck, Value: []byte("rewritten"), Ver: row.Version{Seq: repairBaseSeq + 6, Node: 2}})

	// missing cell: one replica never saw the write at all.
	onlyAt := reps("orphan")[0]
	divergeAt(t, c, onlyAt, row.Entry{PK: "orphan", CK: ck, Value: []byte("lonely"), Ver: row.Version{Seq: repairBaseSeq + 7, Node: 3}})

	// Flush half the cluster so repair reads SSTables and memtables.
	if err := c.Nodes[0].Engine().Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[1].Engine().Flush(); err != nil {
		t.Fatal(err)
	}

	rep, err := c.Repair(rf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsShipped == 0 {
		t.Fatal("repair shipped nothing over a diverged cluster")
	}
	if rep.LeafMismatches == 0 || rep.DigestRPCs == 0 {
		t.Fatalf("repair ran without digesting: %+v", rep)
	}

	// Every replica engine holds the LWW winner — value, version and
	// tombstone flag alike.
	expectCell := func(pk string, wantVal string, wantVer row.Version, wantTomb bool) {
		t.Helper()
		for _, id := range reps(pk) {
			cell, ok, err := engineOf(t, c, id).GetVersioned(pk, ck)
			if err != nil || !ok {
				t.Fatalf("%s at node %d: ok=%v err=%v", pk, id, ok, err)
			}
			if cell.Ver != wantVer || cell.Tombstone != wantTomb || (!wantTomb && string(cell.Value) != wantVal) {
				t.Fatalf("%s at node %d: got (%q, %v, tomb=%v) want (%q, %v, tomb=%v)",
					pk, id, cell.Value, cell.Ver, cell.Tombstone, wantVal, wantVer, wantTomb)
			}
		}
	}
	expectCell(key(0), "winner", row.Version{Seq: repairBaseSeq + 2, Node: 2}, false)
	expectCell(key(1), "", row.Version{Seq: repairBaseSeq + 4, Node: 1}, true)
	expectCell(key(2), "rewritten", row.Version{Seq: repairBaseSeq + 6, Node: 2}, false)
	expectCell("orphan", "lonely", row.Version{Seq: repairBaseSeq + 7, Node: 3}, false)

	// The deleted cell reads as gone via the client too.
	if _, found, err := cli.Get(key(1), ck); err != nil || found {
		t.Fatalf("deleted key after repair: found=%v err=%v", found, err)
	}

	assertRangeDigestsConverged(t, c, rf)

	// A converged cluster digests clean: the second pass moves no cells.
	rep2, err := c.Repair(rf)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CellsShipped != 0 {
		t.Fatalf("second repair pass shipped %d cells over a converged cluster", rep2.CellsShipped)
	}
}

// TestRepairConvergesAtRF3 exercises the second sweep: with three
// owners per range, the replica synced first must still end up with
// what the replica synced last contributed.
func TestRepairConvergesAtRF3(t *testing.T) {
	const rf = 3
	c := startTest(t, LocalOptions{Nodes: 5, ReplicationFactor: rf})
	cli := c.Client()
	key := func(i int) string { return fmt.Sprintf("cell-%04d", i) }
	ck := []byte("ck")
	for i := 0; i < 60; i++ {
		if err := cli.Put(key(i), ck, []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	topo := c.Topology()
	// The winner lives only on the LAST replica: sweep 1 pulls it into
	// the primary on its final pair, sweep 2 must push it back out to
	// the earlier replicas.
	reps := topo.Replicas(key(9), rf)
	winner := row.Version{Seq: repairBaseSeq + 1, Node: 4}
	divergeAt(t, c, reps[len(reps)-1], row.Entry{PK: key(9), CK: ck, Value: []byte("late"), Ver: winner})

	if _, err := c.Repair(rf); err != nil {
		t.Fatal(err)
	}
	for _, id := range reps {
		cell, ok, err := engineOf(t, c, id).GetVersioned(key(9), ck)
		if err != nil || !ok || cell.Ver != winner || string(cell.Value) != "late" {
			t.Fatalf("node %d after rf=3 repair: ok=%v err=%v cell=%+v", id, ok, err, cell)
		}
	}
	assertRangeDigestsConverged(t, c, rf)

	rep2, err := c.Repair(rf)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CellsShipped != 0 {
		t.Fatalf("second rf=3 pass shipped %d cells", rep2.CellsShipped)
	}
}

// TestRepairSticksAcrossFlushAndCompaction: the repaired state is
// durable engine state, not a read-path illusion.
func TestRepairSticksAcrossFlushAndCompaction(t *testing.T) {
	const rf = 2
	c := startTest(t, LocalOptions{Nodes: 3, ReplicationFactor: rf})
	cli := c.Client()
	ck := []byte("ck")
	if err := cli.Put("k", ck, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	reps := c.Topology().Replicas("k", rf)
	divergeAt(t, c, reps[0], row.Entry{PK: "k", CK: ck, Tombstone: true, Ver: row.Version{Seq: repairBaseSeq, Node: 9}})

	if _, err := c.Repair(rf); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if err := n.Engine().Flush(); err != nil {
			t.Fatal(err)
		}
		if err := n.Engine().Compact(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range reps {
		if _, ok, _ := engineOf(t, c, id).Get("k", ck); ok {
			t.Fatalf("repaired delete resurfaced at node %d after flush+compact", id)
		}
	}
}

// TestBeginMigrationFencesTargetEngine: the migration window drives the
// engine fence on targets — while open, the target's compactions keep
// tombstones in the inbound range; after EndMigration, GC resumes.
func TestBeginMigrationFencesTargetEngine(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 1})
	n := c.Nodes[0]
	e := n.Engine()
	moves := []hashring.RangeMove{{Lo: math.MinInt64, Hi: math.MaxInt64, From: 99, To: n.ID()}}
	n.BeginMigration(moves, nil)

	if err := e.Put("k", []byte("ck"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("k", []byte("ck")); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if gced := e.Metrics.TombstonesGCed.Load(); gced != 0 {
		t.Fatalf("target compaction collected %d tombstones inside the migration window", gced)
	}
	// The stale streamed copy lands after that compaction: the delete
	// must stick, because the fence kept the tombstone.
	if err := e.PutBatch([]row.Entry{{
		PK: "k", CK: []byte("ck"), Value: []byte("v1"), Ver: row.Version{Seq: 1, Node: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := e.Get("k", []byte("ck")); found {
		t.Fatalf("stale streamed copy %q resurrected inside the migration window", v)
	}

	n.EndMigration()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if gced := e.Metrics.TombstonesGCed.Load(); gced == 0 {
		t.Fatal("GC never resumed after EndMigration")
	}
	if _, found, _ := e.Get("k", []byte("ck")); found {
		t.Fatal("delete lost after the window closed")
	}
}

// TestReadRepairForwardsTombstone: a failover read that lands on a
// deleted cell forwards the tombstone to the replica it skipped — the
// "read-repair never deletes" hole. Before the fix the lagging primary
// kept serving the old value forever.
func TestReadRepairForwardsTombstone(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 2, ReplicationFactor: 2})
	replicas := c.Topology().Replicas("k", 2)
	primary, secondary := replicas[0], replicas[1]
	var broken atomic.Bool
	cli := breakingClient(t, c, primary, &broken)

	if err := cli.Put("k", []byte("ck"), []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// The secondary holds a newer tombstone the primary missed (as if
	// the primary had been down for the delete).
	newer := row.Version{Seq: repairBaseSeq, Node: uint16(secondary)}
	divergeAt(t, c, secondary, row.Entry{PK: "k", CK: []byte("ck"), Tombstone: true, Ver: newer})

	// Break the connection to the primary under the read (node stays
	// up), so the read fails over to the secondary and the repair
	// goroutine re-dials the primary.
	broken.Store(true)

	if _, found, err := cli.Get("k", []byte("ck")); err != nil || found {
		t.Fatalf("failover read of deleted cell: found=%v err=%v", found, err)
	}

	primaryEngine := engineOf(t, c, primary)
	deadline := time.Now().Add(5 * time.Second)
	for {
		cell, ok, err := primaryEngine.GetVersioned("k", []byte("ck"))
		if err != nil {
			t.Fatal(err)
		}
		if ok && cell.Tombstone && cell.Ver == newer {
			if cli.RepairedReads.Load() == 0 {
				t.Fatal("tombstone repaired but not counted")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never received the tombstone: ok=%v cell=%+v", ok, cell)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAddNodeAbortTearsDownVictim: a join that dies mid-stream —
// whether the coordinator returns an error or panics outright — must
// not strand a booted-but-unrouted node: the victim's listener and
// engine close, the old epoch stays authoritative, and a retried
// AddNode re-picks the same ID and reopens its directory idempotently.
func TestAddNodeAbortTearsDownVictim(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 3, ReplicationFactor: 2})
	cli := c.Client()
	key := func(i int) string { return fmt.Sprintf("cell-%04d", i) }
	for i := 0; i < 200; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	epoch0 := c.Topology().Epoch()
	assertAborted := func(stage string) {
		t.Helper()
		if len(c.Nodes) != 3 {
			t.Fatalf("%s: %d nodes listed, want 3", stage, len(c.Nodes))
		}
		if got := c.Topology().Epoch(); got != epoch0 {
			t.Fatalf("%s: epoch moved to %d on an aborted join", stage, got)
		}
		if _, err := c.network.Dial("node-3"); err == nil {
			t.Fatalf("%s: orphan listener still accepting on node-3", stage)
		}
		if err := cli.Put("probe-"+stage, []byte("ck"), []byte("v")); err != nil {
			t.Fatalf("%s: cluster unusable after abort: %v", stage, err)
		}
	}

	// Abort via error: the stream step fails.
	boom := errors.New("injected stream failure")
	c.testStreamErr = func(hashring.RangeMove) error { return boom }
	if _, _, err := c.AddNode(); !errors.Is(err, boom) {
		t.Fatalf("AddNode error = %v, want the injected failure", err)
	}
	assertAborted("error")

	// Abort via crash: the coordinator panics mid-join. The teardown is
	// a defer, so the victim still comes down before the panic escapes.
	c.testStreamErr = func(hashring.RangeMove) error { panic("simulated coordinator crash") }
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the simulated crash to propagate")
			}
		}()
		c.AddNode()
	}()
	assertAborted("crash")

	// Retry: same ID, same directory, clean join.
	c.testStreamErr = nil
	node, report, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if node.ID() != 3 {
		t.Fatalf("retried join picked node %d, want 3", node.ID())
	}
	if report.CellsStreamed == 0 {
		t.Fatal("retried join streamed nothing")
	}
	for i := 0; i < 200; i++ {
		if v, found, err := cli.Get(key(i), []byte("ck")); err != nil || !found || string(v) != "v0" {
			t.Fatalf("%s after retried join: found=%v err=%v v=%q", key(i), found, err, v)
		}
	}
}

// TestAbortedJoinClosesEveryMigrationWindow: a join that aborts after
// its coordinator's connections broke must still close the migration
// window on every node. A window left open keeps an old owner
// forwarding its writes to the joiner the abort tore down, and every
// such write fails.
func TestAbortedJoinClosesEveryMigrationWindow(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 3, ReplicationFactor: 1})
	cli := c.Client()
	const keys = 400
	key := func(i int) string { return fmt.Sprintf("cell-%04d", i) }
	for i := 0; i < keys; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}

	// Every connection dialed from here on is the join's. After the
	// first range they all break, and the stream aborts.
	var mu sync.Mutex
	var dialed []*transport.Client
	dial := c.dial
	c.dial = func(addr string) (*transport.Client, error) {
		conn, err := dial(addr)
		if err == nil {
			mu.Lock()
			dialed = append(dialed, conn)
			mu.Unlock()
		}
		return conn, err
	}
	broken := errors.New("coordinator connections broke")
	ranges := 0
	c.testStreamErr = func(hashring.RangeMove) error {
		if ranges++; ranges == 1 {
			return nil
		}
		mu.Lock()
		for _, conn := range dialed {
			conn.Close()
		}
		mu.Unlock()
		return broken
	}
	if _, _, err := c.AddNode(); !errors.Is(err, broken) {
		t.Fatalf("AddNode error = %v, want the injected failure", err)
	}
	if ranges < 2 {
		t.Fatalf("the join streamed %d ranges, the test needs at least 2", ranges)
	}
	for _, n := range c.Nodes {
		n.migMu.RLock()
		open := n.mig != nil
		n.migMu.RUnlock()
		if open {
			t.Errorf("node %d: migration window still open after the aborted join", n.ID())
		}
	}

	failed := 0
	var first error
	for i := 0; i < keys; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte("v1")); err != nil {
			if failed++; first == nil {
				first = err
			}
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d puts failed after the aborted join; first: %v", failed, keys, first)
	}
}
