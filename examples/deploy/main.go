// Deploy: self-organizing membership over real sockets. Instead of an
// operator handing every process the full member list (the static
// deployment the earlier examples use), each node here learns the ring
// the way a production deployment would: the first node bootstraps a
// one-member ring, every later node joins through any existing member
// (ownership diff, dual-write window, range streaming, epoch flip),
// every node persists the membership it learns, and peer liveness is
// probed continuously. The demo then kills a node to show health
// flipping and failover reads, and restarts it from its data directory
// alone — no seed, no member list, just the persisted topology file.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"scalekv/internal/cluster"
	"scalekv/internal/hashring"
	"scalekv/internal/transport"
)

func main() {
	baseDir, err := os.MkdirTemp("", "scalekv-deploy-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(baseDir)

	opts := func(dir string) cluster.NodeOptions {
		return cluster.NodeOptions{
			ID:             -1, // joiners ask the ring for the next free id
			Dir:            filepath.Join(baseDir, dir),
			Dialer:         cluster.DialTCP,
			ProbeInterval:  50 * time.Millisecond,
			RepairInterval: time.Hour, // self-scheduled; kicked early on peer recovery
		}
	}
	listen := func() transport.Listener {
		l, err := transport.ListenTCP("127.0.0.1:0", 0)
		if err != nil {
			log.Fatal(err)
		}
		return l
	}

	// Node 0 bootstraps: a one-member ring at epoch 1, rf 2 (writes land
	// on two replicas once the ring has two).
	l0 := listen()
	o := opts("node-0")
	o.ID = 0
	o.Topology = hashring.FromNodes(1, []hashring.NodeID{0}, 64)
	o.Addrs = map[hashring.NodeID]string{0: l0.Addr()}
	o.AdvertiseAddr = l0.Addr()
	o.ReplicationFactor = 2
	node0, err := cluster.StartNode(l0, o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 0 bootstrapped on %s (epoch %d, rf 2)\n", l0.Addr(), node0.Topology().Epoch())

	// Nodes 1 and 2 join through node 0 — no member list, one seed
	// address each, id and rf adopted from the ring.
	nodes := []*cluster.Node{node0}
	addrs := map[hashring.NodeID]string{0: l0.Addr()}
	for i := 1; i <= 2; i++ {
		l := listen()
		o := opts(fmt.Sprintf("node-%d", i))
		o.AdvertiseAddr = l.Addr()
		n, jr, err := cluster.JoinRing(l, o, l0.Addr())
		if err != nil {
			log.Fatal(err)
		}
		nodes = append(nodes, n)
		addrs[n.ID()] = l.Addr()
		fmt.Printf("node %d joined via %s: epoch %d, %d ranges moved, %d cells streamed\n",
			n.ID(), l0.Addr(), jr.Epoch, jr.Moves, jr.CellsStreamed)
	}

	// A client discovers the ring the same way: one seed, everything
	// else (members, epoch, rf) learned over the wire.
	cli, err := cluster.Connect([]string{addrs[1]}, cluster.ClientOptions{Dialer: cluster.DialTCP})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	fmt.Printf("client connected: %d members at epoch %d, rf %d\n",
		cli.Ring().Size(), cli.Ring().Epoch(), cli.ReplicationFactor())

	const K = 5000
	key := func(i int) string { return fmt.Sprintf("cell-%05d", i) }
	for i := 0; i < K; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte(key(i))); err != nil {
			log.Fatal(err)
		}
	}

	// A fourth node joins under live traffic; the join must be invisible
	// to the client (wrong-epoch retries absorb the flip).
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
			if _, found, err := cli.Get(key(i%K), []byte("ck")); err != nil || !found {
				failed.Add(1)
			}
			ops.Add(1)
		}
	}()
	l3 := listen()
	o3 := opts("node-3")
	o3.AdvertiseAddr = l3.Addr()
	node3, jr, err := cluster.JoinRing(l3, o3, addrs[0])
	if err != nil {
		log.Fatal(err)
	}
	nodes = append(nodes, node3)
	addrs[node3.ID()] = l3.Addr()
	close(stop)
	<-done
	fmt.Printf("node %d joined under load: epoch %d, %d cells streamed (%.1f%% of %d), %d reads alongside, %d failed\n",
		node3.ID(), jr.Epoch, jr.CellsStreamed, 100*float64(jr.CellsStreamed)/K, K, ops.Load(), failed.Load())
	if failed.Load() > 0 {
		log.Fatal("deploy demo saw failed operations during the join")
	}

	// Kill node 2 without ceremony: its peers' probes flip it to down
	// after the suspicion window, and reads keep succeeding off the
	// surviving replicas.
	fmt.Println("killing node 2 (no departure announcement)...")
	victimAddr := addrs[2]
	nodes[2].Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ph, ok := node0.PeerHealth()[2]; ok && !ph.Up {
			fmt.Printf("node 0 marked node 2 down (suspicion %d)\n", ph.Suspicion)
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("node 0 never noticed node 2 going down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < K; i++ {
		if _, found, err := cli.Get(key(i), []byte("ck")); err != nil || !found {
			log.Fatalf("read %s with node 2 down: found=%v err=%v", key(i), found, err)
		}
	}
	fmt.Printf("all %d cells readable with node 2 down (%d failover reads)\n", K, cli.Failovers.Load())

	// Restart node 2 from its data directory alone: the persisted
	// topology file restores membership at the flipped epoch, and its
	// peers re-probe it up (kicking catch-up repair).
	l2, err := transport.ListenTCP(victimAddr, 0)
	if err != nil {
		log.Fatal(err)
	}
	o2 := opts("node-2")
	o2.ID = 2
	o2.AdvertiseAddr = victimAddr
	restarted, err := cluster.StartNode(l2, o2)
	if err != nil {
		log.Fatal(err)
	}
	nodes[2] = restarted
	fmt.Printf("node 2 restarted from disk at epoch %d with %d members — no seed needed\n",
		restarted.Topology().Epoch(), restarted.Topology().Size())
	for {
		if ph, ok := node0.PeerHealth()[2]; ok && ph.Up {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("node 0 never saw node 2 return")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Println("node 0 sees node 2 up again")

	// Graceful exit: Shutdown announces the departure so peers flip
	// health immediately instead of waiting out the suspicion window.
	for _, n := range nodes {
		if err := n.Shutdown(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("deploy demo complete: wire-level joins, probed health, persisted-topology restart")
}
