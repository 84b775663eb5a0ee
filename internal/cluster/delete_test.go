package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalekv/internal/hashring"
	"scalekv/internal/row"
	"scalekv/internal/storage"
	"scalekv/internal/wire"
)

// TestClientDeleteEndToEnd: Client.Delete is a first-class distributed
// write — the deleted cell is gone from reads immediately, stays gone
// after every node flushes (tombstones survive flush), and at rf=2 it
// stays gone even when the key's primary dies and the read fails over.
func TestClientDeleteEndToEnd(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 3, ReplicationFactor: 2})
	cli := c.Client()

	const n = 40
	pk := func(i int) string { return fmt.Sprintf("part-%d", i) }
	for i := 0; i < n; i++ {
		if err := cli.Put(pk(i), []byte("ck"), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		if err := cli.Delete(pk(i), []byte("ck")); err != nil {
			t.Fatal(err)
		}
	}
	verify := func(stage string) {
		t.Helper()
		for i := 0; i < n; i++ {
			_, found, err := cli.Get(pk(i), []byte("ck"))
			if err != nil {
				t.Fatalf("%s: get %s: %v", stage, pk(i), err)
			}
			if want := i%2 == 1; found != want {
				t.Fatalf("%s: %s found=%v want %v", stage, pk(i), found, want)
			}
		}
	}
	verify("before flush")
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	verify("after flush")

	// Kill a node; at rf=2 failover reads must agree that deleted cells
	// are deleted (the tombstone replicated like any write).
	c.Nodes[1].Close()
	verify("after primary death")
}

// TestStreamedCopyLosesToForwardedWrite pins the PR 3 rebalance race at
// the wire level: during a migration the target can receive the same
// cell twice — once via the dual-write forward of a fresh overwrite,
// once via a range-stream page read from an older snapshot. Whichever
// order they arrive in, the overwrite must win, because both copies
// carry the versions their accepting engine stamped (and the wire
// preserves them). Before versioned cells, last arrival won and the
// streamed stale copy could clobber the overwrite.
func TestStreamedCopyLosesToForwardedWrite(t *testing.T) {
	for name, reversed := range map[string]bool{"forward-then-stream": false, "stream-then-forward": true} {
		t.Run(name, func(t *testing.T) {
			c := startTest(t, LocalOptions{Nodes: 1})
			target := c.Nodes[0]
			codec := wire.FastCodec{}

			// The "source" stamped these: the stream page snapshotted the
			// cell before the overwrite, so its version is older.
			streamed := &wire.BatchPutRequest{Entries: []row.Entry{
				{PK: "hot", CK: []byte("ck"), Value: []byte("stale"), Ver: row.Version{Seq: 100, Node: 7}},
				{PK: "hot", CK: []byte("gone"), Value: []byte("resurrected"), Ver: row.Version{Seq: 90, Node: 7}},
			}}
			forwarded := &wire.BatchPutRequest{Entries: []row.Entry{
				{PK: "hot", CK: []byte("ck"), Value: []byte("overwrite"), Ver: row.Version{Seq: 200, Node: 7}},
				{PK: "hot", CK: []byte("gone"), Ver: row.Version{Seq: 150, Node: 7}, Tombstone: true},
			}}
			msgs := []*wire.BatchPutRequest{forwarded, streamed}
			if reversed {
				msgs = []*wire.BatchPutRequest{streamed, forwarded}
			}
			for _, m := range msgs {
				payload, err := codec.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				_, rest := target.handle(payload) // writes always take the pool
				ack, err := codec.Unmarshal(rest())
				if err != nil {
					t.Fatal(err)
				}
				if bp := ack.(*wire.BatchPutResponse); bp.ErrMsg != "" {
					t.Fatal(bp.ErrMsg)
				}
			}
			if v, ok, _ := target.Engine().Get("hot", []byte("ck")); !ok || string(v) != "overwrite" {
				t.Fatalf("target serves %q,%v want the overwrite", v, ok)
			}
			if v, ok, _ := target.Engine().Get("hot", []byte("gone")); ok {
				t.Fatalf("stale streamed copy resurrected a deleted cell: %q", v)
			}
		})
	}
}

// TestOverwriteAndDeleteDuringRebalanceConverge is the end-to-end
// version of the race: while a node joins under live traffic, a writer
// keeps overwriting a fixed key set and a deleter keeps deleting
// another. After the join, every replica of every touched key —
// including the brand-new node, which received its data via stream
// pages racing dual-write forwards — must hold exactly the final acked
// state.
func TestOverwriteAndDeleteDuringRebalanceConverge(t *testing.T) {
	const (
		preCells  = 1500
		hotKeys   = 120 // continuously overwritten during the join
		delKeys   = 120 // deleted during the join
		rf        = 2
		nodeCount = 3
	)
	c := startTest(t, LocalOptions{
		Nodes:             nodeCount,
		ReplicationFactor: rf,
		Storage:           storage.Options{DisableWAL: true, FlushThreshold: 64 << 10},
	})
	cli := c.Client()

	key := func(i int) string { return fmt.Sprintf("cell-%06d", i) }
	for i := 0; i < preCells; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}

	var (
		stop      atomic.Bool
		lastAcked [hotKeys]atomic.Int64 // round acked per hot key
		deleted   atomic.Int64
		opErr     atomic.Pointer[error]
	)
	fail := func(err error) { opErr.CompareAndSwap(nil, &err) }
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // overwriter: rounds of writes to the same keys
		defer wg.Done()
		for round := int64(1); !stop.Load(); round++ {
			for k := 0; k < hotKeys; k++ {
				if err := cli.Put(key(k), []byte("ck"), []byte(fmt.Sprintf("round-%d", round))); err != nil {
					fail(err)
					return
				}
				lastAcked[k].Store(round)
			}
		}
	}()
	go func() { // deleter: removes a disjoint key set once
		defer wg.Done()
		for k := hotKeys; k < hotKeys+delKeys; k++ {
			if err := cli.Delete(key(k), []byte("ck")); err != nil {
				fail(err)
				return
			}
			deleted.Add(1)
			if stop.Load() {
				return
			}
		}
	}()

	old := c.Topology()
	node, report, err := c.AddNode()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if errp := opErr.Load(); errp != nil {
		t.Fatalf("operation failed during join: %v", *errp)
	}
	if report.CellsStreamed == 0 {
		t.Fatal("join streamed nothing")
	}
	// The ranges the join moved: the diff the coordinator streamed.
	_, moves, err := old.AddNode(node.ID(), rf)
	if err != nil {
		t.Fatal(err)
	}

	// Every replica engine of every hot key holds the final acked round
	// (or later — the overwriter may have had one more write in flight).
	topo := c.Topology()
	engines := make(map[hashring.NodeID]*storage.Engine)
	for _, n := range c.Nodes {
		engines[n.ID()] = n.Engine()
	}
	moved := 0
	for k := 0; k < hotKeys; k++ {
		pk := key(k)
		tok := hashring.Token(pk)
		for _, m := range moves {
			if m.Contains(tok) {
				moved++
				break
			}
		}
		minRound := lastAcked[k].Load()
		for _, replica := range topo.Replicas(pk, rf) {
			e := engines[replica]
			if e == nil {
				t.Fatalf("replica %d of %s not running", replica, pk)
			}
			v, ok, err := e.Get(pk, []byte("ck"))
			if err != nil || !ok {
				t.Fatalf("replica %d of %s: err=%v found=%v", replica, pk, err, ok)
			}
			var round int64
			if _, err := fmt.Sscanf(string(v), "round-%d", &round); err != nil || round < minRound {
				t.Fatalf("replica %d of %s serves %q, below acked round %d — a streamed stale copy won",
					replica, pk, v, minRound)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no hot key fell in a moved range; the race was not exercised")
	}

	// Every acked delete is gone on every replica of its key.
	delDone := int(deleted.Load())
	if delDone == 0 {
		t.Fatal("deleter made no progress during the join")
	}
	for k := hotKeys; k < hotKeys+delDone; k++ {
		pk := key(k)
		for _, replica := range topo.Replicas(pk, rf) {
			if _, ok, _ := engines[replica].Get(pk, []byte("ck")); ok {
				t.Fatalf("deleted key %s visible at replica %d after join", pk, replica)
			}
		}
		if _, found, err := cli.Get(pk, []byte("ck")); err != nil || found {
			t.Fatalf("deleted key %s: err=%v found=%v via client", pk, err, found)
		}
	}

	// Untouched cells all survived the join.
	for i := hotKeys + delKeys; i < preCells; i++ {
		if v, found, err := cli.Get(key(i), []byte("ck")); err != nil || !found || string(v) != "v0" {
			t.Fatalf("cold cell %s after join: err=%v found=%v v=%q", key(i), err, found, v)
		}
	}
}

// TestReadRepairPropagatesNewerCell: with ReadRepair on, a Get that
// fails over (broken connection, live node) re-propagates the cell it
// read — at its original version — to the replica it skipped, healing
// the divergence without waiting for anti-entropy.
func TestReadRepairPropagatesNewerCell(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 2, ReplicationFactor: 2})
	topo := c.Topology()
	replicas := topo.Replicas("k", 2)
	primary, secondary := replicas[0], replicas[1]
	var broken atomic.Bool
	cli := breakingClient(t, c, primary, &broken)

	if err := cli.Put("k", []byte("ck"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	var primaryNode, secondaryNode *Node
	for _, n := range c.Nodes {
		switch n.ID() {
		case primary:
			primaryNode = n
		case secondary:
			secondaryNode = n
		}
	}

	// The secondary holds a newer version the primary missed (as if the
	// primary had been down for that write).
	newer := row.Version{Seq: 1 << 30, Node: uint16(secondary)}
	if err := secondaryNode.Engine().PutBatch([]row.Entry{
		{PK: "k", CK: []byte("ck"), Value: []byte("v2"), Ver: newer},
	}); err != nil {
		t.Fatal(err)
	}

	// Break the client's connection to the primary under the read while
	// the node itself stays up — the realistic repairable failure. The
	// read fails over to the secondary, and the repair goroutine re-dials
	// the primary successfully.
	broken.Store(true)

	v, found, err := cli.Get("k", []byte("ck"))
	if err != nil || !found || string(v) != "v2" {
		t.Fatalf("failover read: %q,%v,%v want v2", v, found, err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		cell, ok, err := primaryNode.Engine().GetVersioned("k", []byte("ck"))
		if err != nil {
			t.Fatal(err)
		}
		if ok && string(cell.Value) == "v2" && cell.Ver == newer {
			if cli.RepairedReads.Load() == 0 {
				t.Fatal("repair happened but was not counted")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never repaired: %q ok=%v", cell.Value, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
