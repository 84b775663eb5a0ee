// Command kvstore runs one store node over TCP, inspects a running
// cluster, or acts as a client against one.
//
// Bootstrap a fresh single-node cluster, then grow it — each new node
// joins through any existing member and the ring rebalances live:
//
//	kvstore serve -addr :7070 -dir ./data-0 -rf 2
//	kvstore serve -addr :7071 -dir ./data-1 -join 127.0.0.1:7070
//	kvstore serve -addr :7072 -dir ./data-2 -join 127.0.0.1:7070
//
// Every node persists the membership it learns (a `topology` file in
// its data directory), so a restart needs no -join and no member list:
//
//	kvstore serve -addr :7071 -id 1 -dir ./data-1
//
// Inspect membership, epochs and peer health through any member:
//
//	kvstore status -nodes 127.0.0.1:7070
//
// Client commands discover the ring from any member (no hand-written
// member list to keep in sync):
//
//	kvstore -nodes 127.0.0.1:7070 put   <pk> <ck> <value>
//	kvstore -nodes 127.0.0.1:7070 get   <pk> <ck>
//	kvstore -nodes 127.0.0.1:7070 scan  <pk>
//	kvstore -nodes 127.0.0.1:7070 count <pk>
//	kvstore -nodes 127.0.0.1:7070 repair
//
// Anti-entropy is self-scheduled by the nodes (serve -repair-interval);
// the client `repair` verb remains for one-shot admin passes.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"scalekv/internal/cluster"
	"scalekv/internal/hashring"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

func main() {
	if len(os.Args) >= 2 {
		switch os.Args[1] {
		case "serve":
			serve(os.Args[2:])
			return
		case "status":
			status(os.Args[2:])
			return
		}
	}
	client(os.Args[1:])
}

func tcpDial(addr string) (*transport.Client, error) {
	conn, err := transport.DialTCP(addr, 0)
	if err != nil {
		return nil, err
	}
	return transport.NewClient(conn), nil
}

// advertiseAddr picks the address peers dial: the -advertise override,
// or the listen address with a wildcard host rewritten to loopback
// (":7070" is dialable by nobody; "127.0.0.1:7070" at least works for
// single-host deployments, and multi-host ones pass -advertise).
func advertiseAddr(listen, override string) string {
	if override != "" {
		return override
	}
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return listen
	}
	switch host {
	case "", "0.0.0.0", "::", "[::]":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":7070", "listen address")
	id := fs.Int("id", -1, "node id; -1 picks the next free id when joining, 0 when bootstrapping (restarts must pass their old id)")
	dir := fs.String("dir", "", "data directory (required)")
	join := fs.String("join", "", "address of any existing member to join through (empty = bootstrap or resume)")
	advertise := fs.String("advertise", "", "address peers dial to reach this node (default: listen address, wildcard host rewritten to 127.0.0.1)")
	rf := fs.Int("rf", 1, "replication factor when bootstrapping a fresh cluster (joins and resumes adopt the ring's)")
	vnodes := fs.Int("vnodes", 64, fmt.Sprintf("virtual nodes per member when bootstrapping a fresh cluster (1 to %d)", hashring.MaxVnodes))
	parallelism := fs.Int("db-parallelism", 16, "concurrent database requests")
	probeInterval := fs.Duration("probe-interval", time.Second, "peer liveness probe interval (0 = off)")
	repairInterval := fs.Duration("repair-interval", 5*time.Minute, "self-scheduled anti-entropy interval, jittered (0 = off)")
	fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "kvstore serve: -dir is required")
		os.Exit(2)
	}
	l, err := transport.ListenTCP(*addr, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvstore:", err)
		os.Exit(1)
	}
	adv := advertiseAddr(l.Addr(), *advertise)
	opts := cluster.NodeOptions{
		ID:                hashring.NodeID(*id),
		Dir:               *dir,
		DBParallelism:     *parallelism,
		ReplicationFactor: *rf,
		Dialer:            tcpDial,
		AdvertiseAddr:     adv,
		ProbeInterval:     *probeInterval,
		RepairInterval:    *repairInterval,
	}

	var node *cluster.Node
	if *join != "" {
		var jr *wire.JoinResponse
		node, jr, err = cluster.JoinRing(l, opts, *join)
		if err == nil {
			fmt.Printf("kvstore: joined at epoch %d: %d ranges moved, %d cells streamed in %d pages, %d retired\n",
				jr.Epoch, jr.Moves, jr.CellsStreamed, jr.Pages, jr.CellsRetired)
			if jr.RetireErr != "" {
				fmt.Fprintf(os.Stderr, "kvstore: retirement incomplete (repair will reconcile): %s\n", jr.RetireErr)
			}
		}
	} else {
		// Bootstrap or resume. The single-member epoch-1 ring below is
		// only the fallback: a persisted topology file at a higher epoch
		// wins inside StartNode, so a restarted member comes back with
		// the membership it last flipped to.
		if opts.ID < 0 {
			opts.ID = 0
		}
		if err := hashring.Validate([]hashring.NodeID{opts.ID}, *vnodes); err != nil {
			fmt.Fprintln(os.Stderr, "kvstore serve:", err)
			os.Exit(2)
		}
		opts.Topology = hashring.FromNodes(1, []hashring.NodeID{opts.ID}, *vnodes)
		opts.Addrs = map[hashring.NodeID]string{opts.ID: adv}
		node, err = cluster.StartNode(l, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvstore:", err)
		os.Exit(1)
	}
	topo := node.Topology()
	fmt.Printf("kvstore: node %d serving on %s (advertised %s), epoch %d, %d members, data in %s\n",
		node.ID(), l.Addr(), adv, topo.Epoch(), topo.Size(), *dir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	// Graceful departure: announce the leave so peers flip this node's
	// health immediately instead of waiting out the suspicion window.
	fmt.Println("kvstore: shutting down")
	if err := node.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "kvstore:", err)
		os.Exit(1)
	}
}

// callNode sends one request to one address over a throwaway
// connection — status is a diagnostic, it should not disturb the
// cluster's connection state.
func callNode(addr string, req wire.Message) (wire.Message, error) {
	conn, err := tcpDial(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	codec := wire.FastCodec{}
	payload, err := codec.Marshal(req)
	if err != nil {
		return nil, err
	}
	raw, err := conn.Call(payload)
	if err != nil {
		return nil, err
	}
	return codec.Unmarshal(raw)
}

func status(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	nodesFlag := fs.String("nodes", "127.0.0.1:7070", "comma-separated addresses of any members (first reachable one supplies the ring)")
	fs.Parse(args)

	var rs *wire.RingStateResponse
	var via string
	for _, seed := range strings.Split(*nodesFlag, ",") {
		seed = strings.TrimSpace(seed)
		resp, err := callNode(seed, &wire.RingStateRequest{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvstore status: %s unreachable: %v\n", seed, err)
			continue
		}
		if r, ok := resp.(*wire.RingStateResponse); ok && r.ErrMsg == "" {
			rs, via = r, seed
			break
		}
	}
	if rs == nil {
		fmt.Fprintln(os.Stderr, "kvstore status: no member answered a ring-state request")
		os.Exit(1)
	}
	fmt.Printf("ring (via %s): epoch %d, %d members, rf %d, %d vnodes\n",
		via, rs.Epoch, len(rs.Nodes), rs.RF, rs.Vnodes)

	members := append([]wire.NodeAddr(nil), rs.Nodes...)
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	for _, m := range members {
		resp, err := callNode(m.Addr, &wire.NodeStatsRequest{})
		if err != nil {
			fmt.Printf("node %d @ %s: DOWN (%v)\n", m.ID, m.Addr, err)
			continue
		}
		st, ok := resp.(*wire.NodeStatsResponse)
		if !ok {
			fmt.Printf("node %d @ %s: unexpected reply %T\n", m.ID, m.Addr, resp)
			continue
		}
		var memBytes uint64
		var tables uint32
		for _, s := range st.Shards {
			memBytes += s.MemtableBytes
			tables += s.SSTables
		}
		fmt.Printf("node %d @ %s: epoch %d, memtable %d KiB, %d sstables, %d flushes, dials %d (+%d redials)\n",
			m.ID, m.Addr, st.Epoch, memBytes/1024, tables, st.FlushCount, st.DialCount, st.RedialCount)
		peers := append([]wire.PeerStat(nil), st.Peers...)
		sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
		for _, p := range peers {
			state := "up"
			if !p.Up {
				state = "DOWN"
			}
			fmt.Printf("  peer %d: %-4s suspicion %d, %s in state\n",
				p.ID, state, p.Suspicion, (time.Duration(p.SinceMillis) * time.Millisecond).Round(time.Second))
		}
	}
}

func client(args []string) {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	nodesFlag := fs.String("nodes", "127.0.0.1:7070", "comma-separated addresses of any members (seeds for ring discovery)")
	rf := fs.Int("rf", 0, "replication factor for writes (0 = adopt the ring's)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: kvstore [-nodes a,b,c] <put|get|scan|count|repair> args...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		os.Exit(2)
	}

	seeds := strings.Split(*nodesFlag, ",")
	for i := range seeds {
		seeds[i] = strings.TrimSpace(seeds[i])
	}
	// Connect learns the real ring (epoch, members, rf) from whichever
	// seed answers — the member list no longer has to be complete or
	// ordered, any one live address will do.
	cli, err := cluster.Connect(seeds, cluster.ClientOptions{
		ReplicationFactor: *rf,
		Dialer:            tcpDial,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvstore:", err)
		os.Exit(1)
	}
	defer cli.Close()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "kvstore:", err)
		os.Exit(1)
	}
	need := func(n int, usage string) {
		if len(rest) != n+1 {
			fmt.Fprintf(os.Stderr, "usage: kvstore %s\n", usage)
			os.Exit(2)
		}
	}
	switch rest[0] {
	case "put":
		need(3, "put <pk> <ck> <value>")
		if err := cli.Put(rest[1], []byte(rest[2]), []byte(rest[3])); err != nil {
			die(err)
		}
		fmt.Println("OK")
	case "get":
		need(2, "get <pk> <ck>")
		v, found, err := cli.Get(rest[1], []byte(rest[2]))
		if err != nil {
			die(err)
		}
		if !found {
			fmt.Println("(not found)")
			os.Exit(1)
		}
		fmt.Printf("%s\n", v)
	case "scan":
		need(1, "scan <pk>")
		cells, err := cli.Scan(rest[1], nil, nil)
		if err != nil {
			die(err)
		}
		for _, c := range cells {
			fmt.Printf("%q\t%q\n", c.CK, c.Value)
		}
		fmt.Printf("(%d cells)\n", len(cells))
	case "count":
		need(1, "count <pk>")
		counts, total, err := cli.Count(rest[1])
		if err != nil {
			die(err)
		}
		fmt.Printf("elements: %d\n", total)
		for ty, n := range counts {
			fmt.Printf("  type %d: %d\n", ty, n)
		}
	case "repair":
		// One-shot admin anti-entropy pass. Steady-state convergence is
		// the nodes' own job now (serve -repair-interval); this verb is
		// for forcing a pass after an incident, before the gc_grace
		// window closes on any tombstone a down replica missed.
		need(0, "repair")
		erf := cli.ReplicationFactor()
		if erf < 2 {
			// At rf=1 no range has a second owner, so the pass would
			// no-op while printing a success-looking report.
			fmt.Fprintln(os.Stderr, "kvstore repair: the ring runs at rf 1 — there is nothing to reconcile")
			os.Exit(2)
		}
		start := time.Now()
		rep, err := cli.RepairAll(erf)
		if err != nil {
			die(err)
		}
		fmt.Printf("repair: %d ranges, %d pairs, %d digests, %d leaf mismatches, %d cells shipped in %s\n",
			rep.Ranges, rep.Pairs, rep.DigestRPCs, rep.LeafMismatches, rep.CellsShipped, time.Since(start).Round(time.Millisecond))
	default:
		fs.Usage()
		os.Exit(2)
	}
}
