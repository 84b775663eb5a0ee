package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scalekv/internal/hashring"
	"scalekv/internal/storage"
	"scalekv/internal/transport"
)

// LocalOptions configures an in-process cluster.
type LocalOptions struct {
	// Nodes is the cluster size.
	Nodes int
	// Vnodes per node on the ring; 0 means 64.
	Vnodes int
	// BaseDir holds per-node storage directories; empty means a temp
	// directory that the caller removes via Cluster.Close.
	BaseDir string
	// DBParallelism per node (the paper's concurrent-request limit).
	DBParallelism int
	// ReplicationFactor for writes.
	ReplicationFactor int
	// Storage tunes every node's engine.
	Storage storage.Options
	// ReadRepair enables the client's failover read-repair (see
	// ClientOptions.ReadRepair).
	ReadRepair bool
	// ProbeInterval enables per-node peer liveness probing (see
	// NodeOptions.ProbeInterval). 0 keeps it off — in-process tests
	// rarely want background ping traffic.
	ProbeInterval time.Duration
	// RepairInterval enables per-node self-scheduled anti-entropy (see
	// NodeOptions.RepairInterval). 0 keeps it off.
	RepairInterval time.Duration
}

// Cluster is a set of in-process nodes plus a connected client —
// everything the examples and integration tests need in one value. It
// is also the topology authority: AddNode and RemoveNode grow and
// shrink the ring while the cluster serves traffic.
//
// Ring is the topology the cluster was started with; it is updated at
// each epoch flip. Concurrent readers should use Topology() instead of
// the field.
type Cluster struct {
	Ring    *hashring.Topology
	Nodes   []*Node
	network *transport.Network
	client  *Client
	baseDir string
	ownsDir bool
	opts    LocalOptions

	// listen opens a server endpoint for a node, returning the listener
	// and its dialable address; dial opens a client connection. Both are
	// set per transport flavour (in-process fabric or TCP loopback).
	listen func(id hashring.NodeID) (transport.Listener, string, error)
	dial   Dialer
	// addrs is the member address book at the current epoch.
	addrs map[hashring.NodeID]string

	// topoMu serializes topology changes (one join/leave at a time) and
	// repair passes (which must not race a migration's epoch-0 traffic).
	topoMu sync.Mutex

	// testStreamErr, when set (tests only), is consulted before each
	// range is streamed during a rebalance — an injected failure or
	// panic simulates a coordinator dying mid-join.
	testStreamErr func(hashring.RangeMove) error
}

// StartLocal boots an n-node cluster inside the current process,
// connected by the in-process transport.
func StartLocal(opts LocalOptions) (*Cluster, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", opts.Nodes)
	}
	network := transport.NewNetwork()
	return start(opts, func(id hashring.NodeID) (transport.Listener, string, error) {
		addr := fmt.Sprintf("node-%d", id)
		l, err := network.Listen(addr)
		return l, addr, err
	}, func(addr string) (*transport.Client, error) {
		conn, err := network.Dial(addr)
		if err != nil {
			return nil, err
		}
		return transport.NewClient(conn), nil
	}, network)
}

// StartTCP boots an n-node cluster on loopback TCP — the same topology
// StartLocal builds in-process, but with real sockets, so integration
// tests and demos exercise the full network path.
func StartTCP(opts LocalOptions) (*Cluster, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", opts.Nodes)
	}
	return start(opts, func(id hashring.NodeID) (transport.Listener, string, error) {
		l, err := transport.ListenTCP("127.0.0.1:0", 0)
		if err != nil {
			return nil, "", err
		}
		return l, l.Addr(), nil
	}, func(addr string) (*transport.Client, error) {
		conn, err := transport.DialTCP(addr, 0)
		if err != nil {
			return nil, err
		}
		return transport.NewClient(conn), nil
	}, nil)
}

// start is the shared bring-up: topology, per-node listeners and
// engines, and a ring-routed client with lazy dialing.
func start(opts LocalOptions, listen func(hashring.NodeID) (transport.Listener, string, error), dial Dialer, network *transport.Network) (*Cluster, error) {
	if opts.Vnodes <= 0 {
		opts.Vnodes = 64
	}
	ownsDir := false
	if opts.BaseDir == "" {
		dir, err := os.MkdirTemp("", "scalekv-cluster-")
		if err != nil {
			return nil, err
		}
		opts.BaseDir = dir
		ownsDir = true
	}

	c := &Cluster{
		Ring:    hashring.New(opts.Nodes, opts.Vnodes),
		network: network,
		baseDir: opts.BaseDir,
		ownsDir: ownsDir,
		opts:    opts,
		listen:  listen,
		dial:    dial,
	}

	// Open every listener first so the address book is complete before
	// any node starts serving RingStateRequests.
	listeners := make([]transport.Listener, opts.Nodes)
	addrs := make(map[hashring.NodeID]string, opts.Nodes)
	for i := 0; i < opts.Nodes; i++ {
		l, addr, err := listen(hashring.NodeID(i))
		if err != nil {
			c.Close()
			return nil, err
		}
		listeners[i] = l
		addrs[hashring.NodeID(i)] = addr
	}

	conns := make(map[hashring.NodeID]*transport.Client, opts.Nodes)
	for i := 0; i < opts.Nodes; i++ {
		id := hashring.NodeID(i)
		node, err := StartNode(listeners[i], NodeOptions{
			ID:                id,
			Dir:               filepath.Join(opts.BaseDir, fmt.Sprintf("node-%d", i)),
			DBParallelism:     opts.DBParallelism,
			Storage:           opts.Storage,
			Topology:          c.Ring,
			Addrs:             addrs,
			ReplicationFactor: opts.ReplicationFactor,
			Dialer:            dial,
			AdvertiseAddr:     addrs[id],
			ProbeInterval:     opts.ProbeInterval,
			RepairInterval:    opts.RepairInterval,
		})
		if err != nil {
			listeners[i].Close()
			c.Close()
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)

		conn, err := dial(addrs[id])
		if err != nil {
			c.Close()
			return nil, err
		}
		conns[id] = conn
	}
	c.addrs = addrs
	c.client = NewClient(c.Ring, conns, ClientOptions{
		ReplicationFactor: opts.ReplicationFactor,
		Dialer:            dial,
		Addrs:             addrs,
		ReadRepair:        opts.ReadRepair,
	})
	return c, nil
}

// Client returns the cluster's connected client.
func (c *Cluster) Client() *Client { return c.client }

// Topology returns the current epoch-stamped ring.
func (c *Cluster) Topology() *hashring.Topology { return c.client.topo() }

// FlushAll flushes every node's memtable to disk, so subsequent reads
// exercise the SSTable path.
func (c *Cluster) FlushAll() error {
	for _, n := range c.Nodes {
		if err := n.Engine().Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the client, every node, and removes owned directories.
func (c *Cluster) Close() error {
	if c.client != nil {
		c.client.Close()
	}
	var firstErr error
	for _, n := range c.Nodes {
		if err := n.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.ownsDir {
		os.RemoveAll(c.baseDir)
	}
	return firstErr
}
