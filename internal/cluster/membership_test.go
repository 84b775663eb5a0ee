package cluster

// Membership acceptance tests: wire-level joins under live traffic,
// whole-cluster restart from persisted topology files, peer health
// flips with failover reads, and graceful-departure announcements —
// all over real TCP sockets, so the full network path (framing,
// redialing, self-dialed flips) is exercised, not the in-process
// fabric shortcut.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalekv/internal/hashring"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

func tcpDial(addr string) (*transport.Client, error) {
	conn, err := transport.DialTCP(addr, 0)
	if err != nil {
		return nil, err
	}
	return transport.NewClient(conn), nil
}

// bootTCPRing hand-assembles an n-node epoch-1 ring on loopback TCP —
// the moral equivalent of n `kvstore serve` processes whose operator
// wrote the same member list into each config.
func bootTCPRing(t *testing.T, baseDir string, n, rf, vnodes int) ([]*Node, map[hashring.NodeID]string) {
	t.Helper()
	return bootTCPRingDialing(t, baseDir, n, rf, vnodes, tcpDial)
}

// bootTCPRingDialing is bootTCPRing with the dialer every member uses
// for its outbound connections — peers, forwards and, on whichever
// member coordinates a join, the join's control RPCs.
func bootTCPRingDialing(t *testing.T, baseDir string, n, rf, vnodes int, dial Dialer) ([]*Node, map[hashring.NodeID]string) {
	t.Helper()
	listeners := make([]transport.Listener, n)
	addrs := make(map[hashring.NodeID]string, n)
	for i := 0; i < n; i++ {
		l, err := transport.ListenTCP("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[hashring.NodeID(i)] = l.Addr()
	}
	ring := hashring.New(n, vnodes)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		id := hashring.NodeID(i)
		node, err := StartNode(listeners[i], NodeOptions{
			ID:                id,
			Dir:               filepath.Join(baseDir, fmt.Sprintf("node-%d", i)),
			Topology:          ring,
			Addrs:             addrs,
			ReplicationFactor: rf,
			Dialer:            dial,
			AdvertiseAddr:     addrs[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return nodes, addrs
}

// restartTCPNode reopens a stopped member on its previous address,
// with no topology supplied: everything must come from the persisted
// topology file.
func restartTCPNode(t *testing.T, dir, addr string, id hashring.NodeID, opts NodeOptions) *Node {
	t.Helper()
	l, err := transport.ListenTCP(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts.ID = id
	opts.Dir = dir
	opts.Dialer = tcpDial
	opts.AdvertiseAddr = addr
	node, err := StartNode(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// TestWireJoinUnderLiveTraffic: a 3-node TCP ring accepts a 4th member
// through JoinRing while a client hammers it — zero failed operations,
// every key readable afterwards, and the data moved is bounded by
// ~K/N (the consistent-hashing minimal-movement claim, with 2x slack).
func TestWireJoinUnderLiveTraffic(t *testing.T) {
	baseDir := t.TempDir()
	nodes, addrs := bootTCPRing(t, baseDir, 3, 1, 16)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	cli, err := Connect([]string{addrs[0]}, ClientOptions{Dialer: tcpDial})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const K = 3000
	key := func(i int) string { return fmt.Sprintf("pk-%05d", i) }
	for i := 0; i < K; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte(fmt.Sprintf("v0-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Live traffic: overwrite and read the key space until told to stop.
	// Every failure counts — the join must be invisible to clients.
	var failed, ops atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := key(i % K)
			if err := cli.Put(k, []byte("ck"), []byte(fmt.Sprintf("v1-%d", i))); err != nil {
				failed.Add(1)
			}
			if _, found, err := cli.Get(k, []byte("ck")); err != nil || !found {
				failed.Add(1)
			}
			ops.Add(2)
		}
	}()

	l, err := transport.ListenTCP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	joined, jr, err := JoinRing(l, NodeOptions{
		ID:            -1, // auto: next free ID from the seed's membership
		Dir:           filepath.Join(baseDir, "node-3"),
		Dialer:        tcpDial,
		AdvertiseAddr: l.Addr(),
	}, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, joined)

	close(stop)
	<-done
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d of %d live operations failed during the join", f, ops.Load())
	}
	if joined.ID() != 3 {
		t.Fatalf("auto-ID picked %d, want 3", joined.ID())
	}
	if jr.Epoch != 2 {
		t.Fatalf("post-join epoch %d, want 2", jr.Epoch)
	}
	// Minimal movement: the joiner takes ~1/4 of the keyspace.
	if jr.CellsStreamed > 2*K/4 {
		t.Fatalf("join streamed %d cells, want <= %d (2K/N)", jr.CellsStreamed, 2*K/4)
	}
	if jr.CellsStreamed == 0 {
		t.Fatal("join streamed nothing; the diff did not move data")
	}

	// Every key still readable through the grown ring.
	for i := 0; i < K; i++ {
		if _, found, err := cli.Get(key(i), []byte("ck")); err != nil || !found {
			t.Fatalf("key %s lost after join: found=%v err=%v", key(i), found, err)
		}
	}
	// The joiner holds data and flipped epochs along with everyone else.
	if got := joined.Topology().Epoch(); got != 2 {
		t.Fatalf("joiner at epoch %d, want 2", got)
	}
	for _, n := range nodes {
		if got := n.Topology().Epoch(); got != 2 {
			t.Fatalf("node %d at epoch %d, want 2", n.ID(), got)
		}
	}
}

// flipHolder is a dialer that lets a join's flip reach one old member
// and then holds the SetRingState addressed to the next old member until
// released: the state every multi-node flip passes through, frozen so a
// test can work inside it.
type flipHolder struct {
	old map[string]bool // addresses of the members before the join

	mu       sync.Mutex
	oldFlips int
	heldAddr string
	held     chan struct{} // closed once a flip is being held
	release  chan struct{}
}

func (h *flipHolder) dial(addr string) (*transport.Client, error) {
	conn, err := transport.DialTCP(addr, 0)
	if err != nil {
		return nil, err
	}
	return transport.NewClient(&flipHoldingConn{Conn: conn, addr: addr, h: h}), nil
}

type flipHoldingConn struct {
	transport.Conn
	addr string
	h    *flipHolder
}

func (c *flipHoldingConn) Send(f transport.Frame) error {
	if msg, err := (wire.FastCodec{}).Unmarshal(f.Payload); err == nil {
		if _, flip := msg.(*wire.SetRingStateRequest); flip && c.h.old[c.addr] {
			c.h.mu.Lock()
			c.h.oldFlips++
			hold := c.h.oldFlips == 2
			if hold {
				c.h.heldAddr = c.addr
				close(c.h.held)
			}
			c.h.mu.Unlock()
			if hold {
				<-c.h.release
			}
		}
	}
	return c.Conn.Send(f)
}

// TestClientAtNextEpochWorksThroughUnflippedNode is the wire-level test
// of the flip's prepare/commit gate: a join's SetRingState is held back
// from one old member while another has already committed, a client that
// adopted the next epoch from the committed one reads and writes through
// the held one — every operation must succeed, because the held node's
// migration window accepts cur+1 — and after the release the ring
// converges on the next epoch with every write readable.
func TestClientAtNextEpochWorksThroughUnflippedNode(t *testing.T) {
	baseDir := t.TempDir()
	h := &flipHolder{old: make(map[string]bool), held: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(h.release) }) }
	defer release()
	nodes, addrs := bootTCPRingDialing(t, baseDir, 3, 1, 16, h.dial)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for _, a := range addrs {
		h.old[a] = true
	}

	cli, err := Connect([]string{addrs[0]}, ClientOptions{Dialer: tcpDial})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const K = 600
	key := func(i int) string { return fmt.Sprintf("pk-%05d", i) }
	for i := 0; i < K; i++ { // also opens a connection to every member
		if err := cli.Put(key(i), []byte("ck"), []byte(fmt.Sprintf("v0-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	l, err := transport.ListenTCP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	type joinResult struct {
		node *Node
		err  error
	}
	joinDone := make(chan joinResult, 1)
	go func() {
		node, _, err := JoinRing(l, NodeOptions{
			ID:            -1,
			Dir:           filepath.Join(baseDir, "node-3"),
			Dialer:        tcpDial,
			AdvertiseAddr: l.Addr(),
		}, addrs[0])
		joinDone <- joinResult{node, err}
	}()
	select {
	case <-h.held:
	case r := <-joinDone:
		t.Fatalf("join finished without a flip being held: %v", r.err)
	case <-time.After(30 * time.Second):
		t.Fatal("no SetRingState was held within 30s")
	}

	// One old member has committed; the client learns the next epoch
	// from it while the held member is still at the current one.
	if err := cli.refreshRing(); err != nil {
		t.Fatal(err)
	}
	if got := cli.Ring().Epoch(); got != 2 {
		t.Fatalf("client at epoch %d after refresh, want 2", got)
	}
	var heldNode *Node
	for _, n := range nodes {
		if addrs[n.ID()] == h.heldAddr {
			heldNode = n
		}
	}
	if heldNode == nil {
		t.Fatalf("held address %s is no member's", h.heldAddr)
	}
	if got := heldNode.Topology().Epoch(); got != 1 {
		t.Fatalf("held node %d at epoch %d, want 1", heldNode.ID(), got)
	}

	// Read and write the whole key space at the next epoch — through the
	// held node for the keys it owns, and through whichever members the
	// flip has not reached behind it.
	throughHeld := 0
	for i := 0; i < K; i++ {
		if cli.Ring().Primary(key(i)) == heldNode.ID() {
			throughHeld++
		}
		want := fmt.Sprintf("v1-%d", i)
		if err := cli.Put(key(i), []byte("ck"), []byte(want)); err != nil {
			t.Fatalf("put %s at the next epoch: %v", key(i), err)
		}
		if v, found, err := cli.Get(key(i), []byte("ck")); err != nil || !found || string(v) != want {
			t.Fatalf("get %s at the next epoch: %q found=%v err=%v", key(i), v, found, err)
		}
	}
	if throughHeld == 0 {
		t.Fatal("no key routed through the held node")
	}
	if got := cli.Ring().Epoch(); got != 2 {
		t.Fatalf("client fell back to epoch %d", got)
	}
	if got := heldNode.Topology().Epoch(); got != 1 {
		t.Fatalf("held node flipped to epoch %d while held", got)
	}

	release()
	r := <-joinDone
	if r.err != nil {
		t.Fatalf("join after release: %v", r.err)
	}
	nodes = append(nodes, r.node)
	for _, n := range nodes {
		if got := n.Topology().Epoch(); got != 2 {
			t.Fatalf("node %d at epoch %d after the join, want 2", n.ID(), got)
		}
	}
	for i := 0; i < K; i++ {
		want := fmt.Sprintf("v1-%d", i)
		if v, found, err := cli.Get(key(i), []byte("ck")); err != nil || !found || string(v) != want {
			t.Fatalf("key %s after convergence: %q found=%v err=%v", key(i), v, found, err)
		}
	}
}

// TestCountAllDropsBrokenConnection: a master whose only traffic is the
// paper's query must survive a node bounce. The query after the bounce
// may report errors — its requests rode the dead connection — but it
// must also forget that connection, so the one after it re-dials and
// counts every partition.
func TestCountAllDropsBrokenConnection(t *testing.T) {
	baseDir := t.TempDir()
	nodes, addrs := bootTCPRing(t, baseDir, 3, 1, 16)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	cli, err := Connect([]string{addrs[0]}, ClientOptions{Dialer: tcpDial})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const K = 300
	pks := make([]string, K)
	for i := range pks {
		pks[i] = fmt.Sprintf("pk-%05d", i)
		if err := cli.Put(pks[i], []byte("ck"), []byte{byte(i % 4)}); err != nil {
			t.Fatal(err)
		}
	}
	countAll := func() (*MasterResult, error) { return cli.CountAll(pks, MasterOptions{}) }
	if res, err := countAll(); err != nil || res.Errors != 0 || res.Elements != K {
		t.Fatalf("query before the bounce: %+v, %v", res, err)
	}

	const bounced = 1
	dir := filepath.Join(baseDir, fmt.Sprintf("node-%d", bounced))
	if err := nodes[bounced].Close(); err != nil {
		t.Fatal(err)
	}
	nodes[bounced] = restartTCPNode(t, dir, addrs[bounced], bounced, NodeOptions{})

	// The first query finds out; whatever it reports, it must not be the
	// end of the master.
	if res, err := countAll(); err == nil && res.Errors == 0 && res.Elements != K {
		t.Fatalf("query across the bounce lost cells silently: %d elements, want %d", res.Elements, K)
	}
	res, err := countAll()
	if err != nil {
		t.Fatalf("query after the bounce: %v", err)
	}
	if res.Errors != 0 || res.Elements != K {
		t.Fatalf("query after the bounce: %d errors, %d elements; want 0 and %d", res.Errors, res.Elements, K)
	}
	var byType uint64
	for _, n := range res.Counts {
		byType += n
	}
	if byType != K || len(res.Counts) != 4 {
		t.Fatalf("query after the bounce counted %v", res.Counts)
	}
}

// TestRestartFromPersistedTopology: a 4-node rf=2 TCP cluster (grown
// to epoch 2 by a wire join) is torn down mid-traffic and restarted
// from its data directories alone — no seed, no supplied topology.
// The restarted ring serves every key at the persisted epoch, and
// once each member has run one repair pass, a second pass ships zero
// cells: the cluster reassembled converged.
func TestRestartFromPersistedTopology(t *testing.T) {
	baseDir := t.TempDir()
	nodes, addrs := bootTCPRing(t, baseDir, 3, 2, 16)
	closed := false
	defer func() {
		if !closed {
			for _, n := range nodes {
				n.Close()
			}
		}
	}()

	cli, err := Connect([]string{addrs[1]}, ClientOptions{Dialer: tcpDial})
	if err != nil {
		t.Fatal(err)
	}
	if cli.rf != 2 {
		t.Fatalf("Connect inherited rf %d, want 2 from the ring", cli.rf)
	}

	const K = 2000
	key := func(i int) string { return fmt.Sprintf("pk-%05d", i) }
	for i := 0; i < K; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Grow to 4 members over the wire so the persisted epoch is not
	// the trivial boot epoch.
	l, err := transport.ListenTCP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	joined, jr, err := JoinRing(l, NodeOptions{
		ID:            -1,
		Dir:           filepath.Join(baseDir, "node-3"),
		Dialer:        tcpDial,
		AdvertiseAddr: l.Addr(),
	}, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, joined)
	addrs[3] = l.Addr()
	if jr.Epoch != 2 {
		t.Fatalf("post-join epoch %d, want 2", jr.Epoch)
	}

	// Kill the whole cluster while traffic is in flight. Failures in
	// this window are expected (the cluster is going away); what must
	// hold is what the restart serves afterwards.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cli.Put(key(i%K), []byte("ck"), []byte(fmt.Sprintf("v2-%d", i)))
		}
	}()
	time.Sleep(20 * time.Millisecond)
	for _, n := range nodes {
		n.Close()
	}
	closed = true
	close(stop)
	<-done
	cli.Close()

	// Restart every member from disk on its old address, topology
	// unsupplied: the persisted file is the only membership source.
	restarted := make([]*Node, 4)
	for i := 0; i < 4; i++ {
		id := hashring.NodeID(i)
		restarted[i] = restartTCPNode(t, filepath.Join(baseDir, fmt.Sprintf("node-%d", i)), addrs[id], id, NodeOptions{})
	}
	defer func() {
		for _, n := range restarted {
			n.Close()
		}
	}()
	for _, n := range restarted {
		rs := n.ring.Load()
		if rs == nil {
			t.Fatalf("node %d restarted without a topology", n.ID())
		}
		if rs.topo.Epoch() != 2 || rs.topo.Size() != 4 || rs.rf != 2 {
			t.Fatalf("node %d restarted at epoch %d size %d rf %d, want 2/4/2",
				n.ID(), rs.topo.Epoch(), rs.topo.Size(), rs.rf)
		}
	}

	cli2, err := Connect([]string{addrs[2]}, ClientOptions{Dialer: tcpDial})
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if got := cli2.Ring().Epoch(); got != 2 {
		t.Fatalf("restarted ring at epoch %d, want 2", got)
	}
	for i := 0; i < K; i++ {
		if _, found, err := cli2.Get(key(i), []byte("ck")); err != nil || !found {
			t.Fatalf("key %s unreadable after restart: found=%v err=%v", key(i), found, err)
		}
	}

	// One repair pass per member reconciles whatever the mid-traffic
	// kill left half-replicated; a second pass over the converged
	// cluster must ship nothing.
	for _, n := range restarted {
		if _, err := n.RepairNow(); err != nil {
			t.Fatalf("node %d repair: %v", n.ID(), err)
		}
	}
	for _, n := range restarted {
		rep, err := n.RepairNow()
		if err != nil {
			t.Fatalf("node %d second repair: %v", n.ID(), err)
		}
		if rep.CellsShipped != 0 {
			t.Fatalf("node %d second repair shipped %d cells, want 0", n.ID(), rep.CellsShipped)
		}
	}
}

// TestPeerHealthFlipAndFailoverReads: killing one member of an rf=2
// ring flips its health to down on every peer (after the suspicion
// window), while client reads keep succeeding via replica failover;
// restarting the member flips it back up and kicks a repair pass on
// the peers that saw it return.
func TestPeerHealthFlipAndFailoverReads(t *testing.T) {
	baseDir := t.TempDir()
	listeners := make([]transport.Listener, 3)
	addrs := make(map[hashring.NodeID]string, 3)
	for i := 0; i < 3; i++ {
		l, err := transport.ListenTCP("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[hashring.NodeID(i)] = l.Addr()
	}
	ring := hashring.New(3, 16)
	nodes := make([]*Node, 3)
	for i := 0; i < 3; i++ {
		id := hashring.NodeID(i)
		node, err := StartNode(listeners[i], NodeOptions{
			ID:                id,
			Dir:               filepath.Join(baseDir, fmt.Sprintf("node-%d", i)),
			Topology:          ring,
			Addrs:             addrs,
			ReplicationFactor: 2,
			Dialer:            tcpDial,
			AdvertiseAddr:     addrs[id],
			ProbeInterval:     40 * time.Millisecond,
			RepairInterval:    time.Hour, // only kicked passes fire in-test
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()

	cli, err := Connect([]string{addrs[0]}, ClientOptions{Dialer: tcpDial})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const K = 300
	key := func(i int) string { return fmt.Sprintf("pk-%03d", i) }
	for i := 0; i < K; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Kill node 2 without an announcement: peers must notice via
	// missed probes alone.
	victim := nodes[2]
	nodes[2] = nil
	victim.Close()

	waitHealth := func(observer *Node, id hashring.NodeID, wantUp bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if ph, ok := observer.PeerHealth()[id]; ok && ph.Up == wantUp {
				if !wantUp && ph.Suspicion < defaultSuspicionThreshold {
					t.Fatalf("node %d sees %d down with suspicion %d < threshold", observer.ID(), id, ph.Suspicion)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never saw peer %d up=%v (health: %+v)",
					observer.ID(), id, wantUp, observer.PeerHealth())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitHealth(nodes[0], 2, false)
	waitHealth(nodes[1], 2, false)

	// Reads survive the outage: every partition has a live replica.
	for i := 0; i < K; i++ {
		if _, found, err := cli.Get(key(i), []byte("ck")); err != nil || !found {
			t.Fatalf("read %s with node 2 down: found=%v err=%v", key(i), found, err)
		}
	}
	if cli.Failovers.Load() == 0 {
		t.Fatal("no failovers recorded; node 2 was not primary for anything?")
	}

	// The returnee is re-probed up, and its return kicks catch-up
	// repair on the observers.
	passes0 := nodes[0].RepairPasses.Load()
	nodes[2] = restartTCPNode(t, filepath.Join(baseDir, "node-2"), addrs[2], 2, NodeOptions{
		ProbeInterval:  40 * time.Millisecond,
		RepairInterval: time.Hour,
	})
	waitHealth(nodes[0], 2, true)
	waitHealth(nodes[1], 2, true)
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].RepairPasses.Load() == passes0 {
		if time.Now().After(deadline) {
			t.Fatal("peer recovery never kicked a repair pass")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulShutdownAnnouncesDeparture: Shutdown sends LeaveRequest
// to every peer, flipping this node's health to down immediately —
// no suspicion window, no probe traffic needed (probing is off here).
func TestGracefulShutdownAnnouncesDeparture(t *testing.T) {
	baseDir := t.TempDir()
	nodes, _ := bootTCPRing(t, baseDir, 3, 1, 16)
	defer func() {
		for i, n := range nodes {
			if i != 1 {
				n.Close()
			}
		}
	}()

	if err := nodes[1].Shutdown(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		ph, ok := nodes[i].PeerHealth()[1]
		if !ok || ph.Up {
			t.Fatalf("node %d did not record node 1's departure: %+v", i, nodes[i].PeerHealth())
		}
	}
}

// TestTopologyFilePersistence: the snapshot round-trips exactly, a
// missing file reads as absent, and a corrupted file fails the boot
// loudly instead of seeding guessed membership.
func TestTopologyFilePersistence(t *testing.T) {
	dir := t.TempDir()
	topo, _, _, err := loadTopologyFile(dir)
	if err != nil || topo != nil {
		t.Fatalf("missing file: topo=%v err=%v, want nil/nil", topo, err)
	}

	want := hashring.FromNodes(7, []hashring.NodeID{0, 2, 5}, 32)
	addrs := map[hashring.NodeID]string{0: "127.0.0.1:9000", 2: "127.0.0.1:9002", 5: "127.0.0.1:9005"}
	if err := saveTopologyFile(dir, want, addrs, 3); err != nil {
		t.Fatal(err)
	}
	got, gaddrs, rf, err := loadTopologyFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != 7 || got.Vnodes() != 32 || got.Size() != 3 || rf != 3 {
		t.Fatalf("round trip: epoch=%d vnodes=%d size=%d rf=%d", got.Epoch(), got.Vnodes(), got.Size(), rf)
	}
	for id, a := range addrs {
		if gaddrs[id] != a {
			t.Fatalf("addr %d: %q, want %q", id, gaddrs[id], a)
		}
	}
	// Same placement, not just same parameters.
	for _, tok := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		if want.PrimaryForToken(tok) != got.PrimaryForToken(tok) {
			t.Fatalf("placement diverged at token %d", tok)
		}
	}

	if err := os.WriteFile(filepath.Join(dir, topologyFileName), []byte("scalekv-topology v1\ngarbage here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadTopologyFile(dir); err == nil {
		t.Fatal("corrupted topology file loaded without error")
	}
}

// TestRingFromWireValidates: every ring state read off a socket goes
// through hashring.Validate before a topology is built from it, so a
// member listed twice or a vnode count past the bound is an error. The
// bound is exceeded by one: a huge count would allocate if the check
// ever regressed.
func TestRingFromWireValidates(t *testing.T) {
	nodes := []wire.NodeAddr{{ID: 0, Addr: "a"}, {ID: 1, Addr: "b"}}
	topo, addrs, err := ringFromWire(4, nodes, 16)
	if err != nil || topo.Epoch() != 4 || topo.Size() != 2 || addrs[1] != "b" {
		t.Fatalf("a valid ring state: %v, %v, %v", topo, addrs, err)
	}
	if _, _, err := ringFromWire(4, nodes, hashring.MaxVnodes+1); err == nil {
		t.Fatal("accepted a vnode count past hashring.MaxVnodes")
	}
	if _, _, err := ringFromWire(4, append(nodes, wire.NodeAddr{ID: 1, Addr: "c"}), 16); err == nil {
		t.Fatal("accepted a member listed twice")
	}
	resp := (&Node{}).handleSetRingState(&wire.SetRingStateRequest{Epoch: 2, Nodes: nodes, Vnodes: hashring.MaxVnodes + 1})
	if resp.ErrMsg == "" {
		t.Fatal("a node accepted a flip to a ring past the vnode bound")
	}
}
