package cluster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"scalekv/internal/hashring"
	"scalekv/internal/storage"
	"scalekv/internal/wire"
)

// TestReadFailoverOnDeadPrimary is the latent single-point-of-read-
// failure regression test: with rf=2, killing a key's primary must not
// kill reads — Get and MultiGet fail over to the surviving replica.
func TestReadFailoverOnDeadPrimary(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 3, ReplicationFactor: 2})
	cli := c.Client()
	const n = 60
	for i := 0; i < n; i++ {
		if err := cli.Put(fmt.Sprintf("part-%d", i), []byte("ck"), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Nodes[1]
	victim.Close()

	var failedOver int
	for i := 0; i < n; i++ {
		pk := fmt.Sprintf("part-%d", i)
		if c.Topology().Primary(pk) == victim.ID() {
			failedOver++
		}
		v, found, err := cli.Get(pk, []byte("ck"))
		if err != nil || !found || v[0] != byte(i) {
			t.Fatalf("get %s with dead primary: err=%v found=%v v=%v", pk, err, found, v)
		}
	}
	if failedOver == 0 {
		t.Fatal("victim owned no keys; test exercised nothing")
	}

	keys := make([]wire.GetKey, n)
	for i := range keys {
		keys[i] = wire.GetKey{PK: fmt.Sprintf("part-%d", i), CK: []byte("ck")}
	}
	values, err := cli.MultiGet(keys)
	if err != nil {
		t.Fatalf("multi-get with dead primary: %v", err)
	}
	for i, v := range values {
		if !v.Found || v.Value[0] != byte(i) {
			t.Fatalf("multi-get key %d: found=%v v=%v", i, v.Found, v.Value)
		}
	}

	// Scan fails over too.
	for i := 0; i < n; i++ {
		pk := fmt.Sprintf("part-%d", i)
		cells, err := cli.Scan(pk, nil, nil)
		if err != nil || len(cells) != 1 {
			t.Fatalf("scan %s with dead primary: %v cells=%d", pk, err, len(cells))
		}
	}
}

func TestReadFailoverRF1StillFails(t *testing.T) {
	// Sanity: without replicas there is nowhere to fail over; reads of
	// the dead node's keys must error, not hang or mis-answer.
	c := startTest(t, LocalOptions{Nodes: 2, ReplicationFactor: 1})
	cli := c.Client()
	for i := 0; i < 20; i++ {
		if err := cli.Put(fmt.Sprintf("part-%d", i), []byte("ck"), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Nodes[0]
	victim.Close()
	sawError := false
	for i := 0; i < 20; i++ {
		pk := fmt.Sprintf("part-%d", i)
		_, _, err := cli.Get(pk, []byte("ck"))
		if c.Topology().Primary(pk) == victim.ID() {
			if err == nil {
				t.Fatalf("get %s succeeded though its only replica is dead", pk)
			}
			sawError = true
		} else if err != nil {
			t.Fatalf("get %s on the living node failed: %v", pk, err)
		}
	}
	if !sawError {
		t.Fatal("victim owned no keys; test exercised nothing")
	}
}

// TestAddNodeUnderLiveTraffic is the acceptance test for the elastic
// topology: ingest with continuous reads while a node joins, with zero
// failed operations, every cell readable at the new epoch, bounded key
// movement, and the moved ranges retired at their sources.
func TestAddNodeUnderLiveTraffic(t *testing.T) {
	const preCells = 3000 // ingested before the join
	const liveCells = 500 // ingested while the join runs
	c := startTest(t, LocalOptions{
		Nodes:   3,
		Storage: storage.Options{DisableWAL: true, FlushThreshold: 64 << 10},
	})
	cli := c.Client()

	key := func(i int) string { return fmt.Sprintf("cell-%06d", i) }
	for i := 0; i < preCells; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte(key(i))); err != nil {
			t.Fatal(err)
		}
	}
	oldTopo := c.Topology()

	// Continuous reads of acked cells + continuous writes while the
	// join runs. Any failed operation fails the test.
	var (
		stop     atomic.Bool
		reads    atomic.Int64
		written  atomic.Int64
		opErrs   []string
		opErrsMu sync.Mutex
	)
	fail := func(format string, args ...any) {
		opErrsMu.Lock()
		opErrs = append(opErrs, fmt.Sprintf(format, args...))
		opErrsMu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // reader
		defer wg.Done()
		for i := 0; !stop.Load(); i = (i + 7) % preCells {
			v, found, err := cli.Get(key(i), []byte("ck"))
			if err != nil || !found || string(v) != key(i) {
				fail("read %s during join: err=%v found=%v v=%q", key(i), err, found, v)
				return
			}
			reads.Add(1)
		}
	}()
	go func() { // writer
		defer wg.Done()
		for i := preCells; i < preCells+liveCells; i++ {
			if err := cli.Put(key(i), []byte("ck"), []byte(key(i))); err != nil {
				fail("write %s during join: %v", key(i), err)
				return
			}
			written.Add(1)
			if stop.Load() {
				return
			}
		}
	}()

	node, report, err := c.AddNode()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	opErrsMu.Lock()
	defer opErrsMu.Unlock()
	if len(opErrs) > 0 {
		t.Fatalf("operations failed during the join:\n%s", opErrs[0])
	}
	if reads.Load() == 0 {
		t.Fatal("reader made no progress during the join")
	}

	// The topology advanced and everyone agrees.
	newTopo := c.Topology()
	if newTopo.Epoch() != oldTopo.Epoch()+1 {
		t.Fatalf("epoch %d want %d", newTopo.Epoch(), oldTopo.Epoch()+1)
	}
	if report.Epoch != newTopo.Epoch() || !newTopo.Contains(node.ID()) {
		t.Fatalf("report epoch %d, topology %v", report.Epoch, newTopo.Nodes())
	}
	for _, n := range c.Nodes {
		if got := n.Topology().Epoch(); got != newTopo.Epoch() {
			t.Fatalf("node %d at epoch %d want %d", n.ID(), got, newTopo.Epoch())
		}
	}

	// Every acked cell is readable at the new epoch.
	total := preCells + int(written.Load())
	for i := 0; i < total; i++ {
		v, found, err := cli.Get(key(i), []byte("ck"))
		if err != nil || !found || string(v) != key(i) {
			t.Fatalf("cell %s unreadable after join: err=%v found=%v v=%q", key(i), err, found, v)
		}
	}

	// Movement is bounded: the streamed share stays within 2x the ideal
	// K/N for one join.
	if report.CellsStreamed == 0 {
		t.Fatal("join streamed nothing")
	}
	bound := int64(2 * total / newTopo.Size())
	if report.CellsStreamed > bound {
		t.Fatalf("join streamed %d of %d cells, above 2K/N bound %d", report.CellsStreamed, total, bound)
	}

	// The new node actually owns and serves data.
	if len(enginePartitions(t, node)) == 0 {
		t.Fatal("joining node holds no partitions")
	}

	// Retired ranges are gone from their sources: engine-level ScanRange
	// over each move's range at the old owner must be empty, and the
	// purge shows in Stats.
	purges := int64(0)
	for _, n := range c.Nodes {
		purges += n.Engine().Stats().RangePurges
	}
	if purges == 0 {
		t.Fatal("no range purges recorded at the sources")
	}
	if report.RetireErr != "" {
		t.Fatalf("retirement failed: %s", report.RetireErr)
	}
	if report.CellsRetired < report.CellsStreamed {
		// Dual-written cells may push retired above streamed, never below.
		t.Fatalf("retired %d < streamed %d: sources kept moved data", report.CellsRetired, report.CellsStreamed)
	}
	for _, m := range report.Moves {
		var src *Node
		for _, n := range c.Nodes {
			if n.ID() == m.From {
				src = n
			}
		}
		if src == nil {
			t.Fatalf("move source %d not running", m.From)
		}
		page, err := src.Engine().ScanRange(m.Lo, m.Hi, math.MinInt64, "", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Entries) != 0 {
			t.Fatalf("source %d still holds %d cells of retired range [%d,%d]",
				m.From, len(page.Entries), m.Lo, m.Hi)
		}
	}
}

// TestAddNodeWithReplication exercises the join at rf=2: stats-driven
// source selection, replica-aware diffs, and post-join reads from
// every replica.
func TestAddNodeWithReplication(t *testing.T) {
	const cells = 1200
	c := startTest(t, LocalOptions{
		Nodes: 3, ReplicationFactor: 2,
		Storage: storage.Options{DisableWAL: true},
	})
	cli := c.Client()
	key := func(i int) string { return fmt.Sprintf("cell-%06d", i) }
	for i := 0; i < cells; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	node, report, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if report.CellsStreamed == 0 {
		t.Fatal("rf=2 join streamed nothing")
	}
	for i := 0; i < cells; i++ {
		v, found, err := cli.Get(key(i), []byte("ck"))
		if err != nil || !found || v[0] != byte(i) {
			t.Fatalf("cell %d unreadable after rf=2 join: %v %v", i, err, found)
		}
	}
	// Every key's full new replica set serves it locally.
	topo := c.Topology()
	byID := map[hashring.NodeID]*Node{}
	for _, n := range c.Nodes {
		byID[n.ID()] = n
	}
	for i := 0; i < cells; i += 17 {
		pk := key(i)
		for _, rep := range topo.Replicas(pk, 2) {
			cellsAt, err := byID[rep].Engine().ScanPartition(pk, nil, nil)
			if err != nil || len(cellsAt) != 1 {
				t.Fatalf("replica %d of %s serves %d cells (%v)", rep, pk, len(cellsAt), err)
			}
		}
	}
	_ = node
}

// TestRemoveNodeDrainsAndRetires: a leave streams the departing node's
// ranges out, flips the epoch, and the cluster keeps serving everything.
func TestRemoveNodeDrainsAndRetires(t *testing.T) {
	const cells = 1500
	c := startTest(t, LocalOptions{
		Nodes:   4,
		Storage: storage.Options{DisableWAL: true},
	})
	cli := c.Client()
	key := func(i int) string { return fmt.Sprintf("cell-%06d", i) }
	for i := 0; i < cells; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte(key(i))); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Nodes[2].ID()
	oldEpoch := c.Topology().Epoch()
	report, err := c.RemoveNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Topology(); got.Contains(victim) || got.Epoch() != oldEpoch+1 {
		t.Fatalf("topology after leave: members %v epoch %d", got.Nodes(), got.Epoch())
	}
	if len(c.Nodes) != 3 {
		t.Fatalf("%d nodes after leave want 3", len(c.Nodes))
	}
	if report.CellsStreamed == 0 {
		t.Fatal("leave streamed nothing")
	}
	for i := 0; i < cells; i++ {
		v, found, err := cli.Get(key(i), []byte("ck"))
		if err != nil || !found || string(v) != key(i) {
			t.Fatalf("cell %s lost by the leave: err=%v found=%v", key(i), err, found)
		}
	}
}

// TestJoinThenLeaveRoundTrip grows then shrinks back; nothing is lost
// and epochs advance monotonically.
func TestJoinThenLeaveRoundTrip(t *testing.T) {
	const cells = 800
	c := startTest(t, LocalOptions{Nodes: 2, Storage: storage.Options{DisableWAL: true}})
	cli := c.Client()
	key := func(i int) string { return fmt.Sprintf("cell-%06d", i) }
	for i := 0; i < cells; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	node, _, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveNode(node.ID()); err != nil {
		t.Fatal(err)
	}
	if got := c.Topology().Epoch(); got != 3 {
		t.Fatalf("epoch after join+leave %d want 3", got)
	}
	for i := 0; i < cells; i++ {
		v, found, err := cli.Get(key(i), []byte("ck"))
		if err != nil || !found || v[0] != byte(i) {
			t.Fatalf("cell %d lost by join+leave: %v %v", i, err, found)
		}
	}
}

// TestStaleClientRecoversViaWrongEpoch: a second client that slept
// through a topology change must recover transparently on its next
// operation.
func TestStaleClientRecoversViaWrongEpoch(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 2, Storage: storage.Options{DisableWAL: true}})
	key := func(i int) string { return fmt.Sprintf("cell-%06d", i) }
	for i := 0; i < 400; i++ {
		if err := c.Client().Put(key(i), []byte("ck"), []byte(key(i))); err != nil {
			t.Fatal(err)
		}
	}

	// A second, independent client pinned at the pre-join topology.
	stale := NewClient(c.Topology(), ClientOptions{
		ReplicationFactor: c.opts.ReplicationFactor,
		Dialer:            c.dial,
		Addrs:             c.addrs,
	})
	defer stale.Close()

	if _, _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}

	// Every key must still be readable and writable through the stale
	// client: wrong-epoch rejections trigger its ring refresh.
	for i := 0; i < 400; i += 13 {
		v, found, err := stale.Get(key(i), []byte("ck"))
		if err != nil || !found || string(v) != key(i) {
			t.Fatalf("stale client get %s: err=%v found=%v", key(i), err, found)
		}
	}
	if stale.topo().Epoch() != c.Topology().Epoch() {
		t.Fatalf("stale client still at epoch %d, cluster at %d", stale.topo().Epoch(), c.Topology().Epoch())
	}
	// Count is epoch-protected too: a second stale client whose first
	// operation is a Count must see the real cell count, not a silent
	// zero from a node that retired the partition.
	stale2 := NewClient(hashring.New(2, localVnodes), ClientOptions{
		ReplicationFactor: c.opts.ReplicationFactor,
		Dialer:            c.dial,
		Addrs:             c.addrs,
	})
	defer stale2.Close()
	for i := 0; i < 400; i += 29 {
		if _, elements, err := stale2.Count(key(i)); err != nil || elements != 1 {
			t.Fatalf("stale count %s = %d, %v want 1 cell", key(i), elements, err)
		}
	}
	if err := stale.Put("post-join", []byte("ck"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := c.Client().Get("post-join", []byte("ck")); err != nil || !found || string(v) != "v" {
		t.Fatalf("stale client's post-join write lost: %v %v", err, found)
	}
}

// TestMultiGetAcrossEpochFlip: a client that slept through a join sends
// its MultiGet groups at the old epoch, every old member rejects them,
// and each rejected group is read key by key through Get, which
// refreshes the ring and re-routes.
func TestMultiGetAcrossEpochFlip(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 2, Storage: storage.Options{DisableWAL: true}})
	const n = 200
	keys := make([]wire.GetKey, n)
	for i := range keys {
		keys[i] = wire.GetKey{PK: fmt.Sprintf("cell-%06d", i), CK: []byte("ck")}
		if err := c.Client().Put(keys[i].PK, keys[i].CK, []byte(keys[i].PK)); err != nil {
			t.Fatal(err)
		}
	}
	stale := NewClient(c.Topology(), ClientOptions{
		ReplicationFactor: c.opts.ReplicationFactor,
		Dialer:            c.dial,
		Addrs:             c.addrs,
	})
	defer stale.Close()
	staleEpoch := stale.topo().Epoch()

	if _, _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	values, err := stale.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if !v.Found || string(v.Value) != keys[i].PK {
			t.Fatalf("key %s: found=%v value=%q", keys[i].PK, v.Found, v.Value)
		}
	}
	if got := stale.topo().Epoch(); got == staleEpoch || got != c.Topology().Epoch() {
		t.Fatalf("stale client at epoch %d after MultiGet, started at %d, cluster at %d", got, staleEpoch, c.Topology().Epoch())
	}
}

// TestBatcherBufferSurvivesEpochFlip: entries buffered before a join
// must land correctly even though the ring moved before they flushed.
// The batch is sent with the epoch it was ROUTED under, so the old
// owner rejects it and the resend path re-routes — stamping the
// flush-time epoch instead would silently land cells on non-owners.
func TestBatcherBufferSurvivesEpochFlip(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 2, Storage: storage.Options{DisableWAL: true}})
	key := func(i int) string { return fmt.Sprintf("cell-%06d", i) }

	// Buffer entries without crossing the flush threshold.
	bt := c.Client().NewBatcher(BatcherOptions{MaxEntries: 1 << 20})
	const cells = 300
	for i := 0; i < cells; i++ {
		if err := bt.Put(key(i), []byte("ck"), []byte(key(i))); err != nil {
			t.Fatal(err)
		}
	}
	if pending, _ := bt.Pending(); pending != cells {
		t.Fatalf("expected %d buffered entries, got %d", cells, pending)
	}

	// The ring moves while the batch sits in the buffer.
	if _, _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}

	// Every cell is readable and lives on its CURRENT primary.
	topo := c.Topology()
	byID := map[hashring.NodeID]*Node{}
	for _, n := range c.Nodes {
		byID[n.ID()] = n
	}
	for i := 0; i < cells; i++ {
		pk := key(i)
		v, found, err := c.Client().Get(pk, []byte("ck"))
		if err != nil || !found || string(v) != pk {
			t.Fatalf("cell %s lost across the flip: err=%v found=%v", pk, err, found)
		}
		owner := byID[topo.Primary(pk)]
		if cellsAt, err := owner.Engine().ScanPartition(pk, nil, nil); err != nil || len(cellsAt) != 1 {
			t.Fatalf("current primary %d of %s holds %d cells (%v)", owner.ID(), pk, len(cellsAt), err)
		}
	}
}

// TestNodeStatsOverWire covers the coordinator's source-selection
// input: engine stats served through the wire protocol.
func TestNodeStatsOverWire(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 2, Storage: storage.Options{DisableWAL: true}})
	for i := 0; i < 500; i++ {
		if err := c.Client().Put(fmt.Sprintf("p-%d", i), []byte("ck"), make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	var memBytes uint64
	for _, n := range c.Nodes {
		st, err := c.Client().NodeStats(n.ID())
		if err != nil {
			t.Fatal(err)
		}
		if st.Epoch != c.Topology().Epoch() {
			t.Fatalf("stats epoch %d want %d", st.Epoch, c.Topology().Epoch())
		}
		if len(st.Shards) == 0 {
			t.Fatal("stats carry no shards")
		}
		for _, sh := range st.Shards {
			memBytes += sh.MemtableBytes
		}
	}
	if memBytes == 0 {
		t.Fatal("no memtable bytes visible through node stats")
	}
}

// TestWrongEpochRejectedAtWireLevel pins the raw protocol behaviour:
// a request at a stale epoch gets the sentinel error, epoch 0 passes.
func TestWrongEpochRejectedAtWireLevel(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 1, Storage: storage.Options{DisableWAL: true}})
	codec := wire.FastCodec{}
	conn, err := c.dial(c.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	call := func(m wire.Message) wire.Message {
		t.Helper()
		payload, err := codec.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := conn.Call(payload)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := codec.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	epoch := c.Topology().Epoch()
	if resp := call(&wire.PutRequest{PK: "p", CK: []byte("c"), Value: []byte("v"), Epoch: epoch + 5}).(*wire.PutResponse); !wire.IsWrongEpoch(resp.ErrMsg) {
		t.Fatalf("stale put not rejected: %q", resp.ErrMsg)
	}
	if resp := call(&wire.GetRequest{PK: "p", CK: []byte("c"), Epoch: epoch + 5}).(*wire.GetResponse); !wire.IsWrongEpoch(resp.ErrMsg) {
		t.Fatalf("stale get not rejected: %q", resp.ErrMsg)
	}
	if resp := call(&wire.PutRequest{PK: "p", CK: []byte("c"), Value: []byte("v")}).(*wire.PutResponse); resp.ErrMsg != "" {
		t.Fatalf("epoch-0 put rejected: %q", resp.ErrMsg)
	}
	if resp := call(&wire.GetRequest{PK: "p", CK: []byte("c"), Epoch: epoch}).(*wire.GetResponse); resp.ErrMsg != "" || !resp.Found {
		t.Fatalf("current-epoch get failed: %q found=%v", resp.ErrMsg, resp.Found)
	}
}

// TestNextEpochAcceptedOnlyInsideMigrationWindow pins the prepare half
// of the flip: a node accepts requests routed at cur+1 exactly while
// BeginMigration has a window open on it, and nothing further ahead.
func TestNextEpochAcceptedOnlyInsideMigrationWindow(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 1})
	n := c.Nodes[0]
	cur := c.Topology().Epoch()
	if msg := n.epochCheck(cur + 1); !wire.IsWrongEpoch(msg) {
		t.Fatalf("outside a window cur+1 answered %q", msg)
	}
	n.BeginMigration(nil, nil)
	if msg := n.epochCheck(cur + 1); msg != "" {
		t.Fatalf("inside a window cur+1 rejected: %q", msg)
	}
	if msg := n.epochCheck(cur + 2); !wire.IsWrongEpoch(msg) {
		t.Fatalf("inside a window cur+2 answered %q", msg)
	}
	if cur > 1 {
		if msg := n.epochCheck(cur - 1); !wire.IsWrongEpoch(msg) {
			t.Fatalf("inside a window cur-1 answered %q", msg)
		}
	}
	n.EndMigration()
	if msg := n.epochCheck(cur + 1); !wire.IsWrongEpoch(msg) {
		t.Fatalf("after the window closed cur+1 answered %q", msg)
	}
}

// TestAddNodeOverTCP runs a join on real sockets.
func TestAddNodeOverTCP(t *testing.T) {
	c, err := StartTCP(LocalOptions{Nodes: 2, Storage: storage.Options{DisableWAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli := c.Client()
	key := func(i int) string { return fmt.Sprintf("cell-%06d", i) }
	const cells = 600
	for i := 0; i < cells; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte(key(i))); err != nil {
			t.Fatal(err)
		}
	}
	node, report, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if report.CellsStreamed == 0 {
		t.Fatal("TCP join streamed nothing")
	}
	for i := 0; i < cells; i++ {
		v, found, err := cli.Get(key(i), []byte("ck"))
		if err != nil || !found || string(v) != key(i) {
			t.Fatalf("cell %s unreadable after TCP join: %v %v", key(i), err, found)
		}
	}
	if len(enginePartitions(t, node)) == 0 {
		t.Fatal("TCP joining node holds no data")
	}
}
