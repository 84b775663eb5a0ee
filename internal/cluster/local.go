package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"scalekv/internal/hashring"
	"scalekv/internal/storage"
	"scalekv/internal/transport"
)

// localVnodes is the virtual-node count per member of an in-process ring.
const localVnodes = 64

// LocalOptions configures an in-process cluster. Its nodes run with
// NodeOptions' defaults otherwise: 16 concurrent database requests each,
// and neither peer probing nor self-scheduled repair.
type LocalOptions struct {
	// Nodes is the cluster size.
	Nodes int
	// BaseDir holds per-node storage directories; empty means a temp
	// directory that the caller removes via Cluster.Close.
	BaseDir string
	// ReplicationFactor for writes.
	ReplicationFactor int
	// Storage tunes every node's engine.
	Storage storage.Options
	// ReadRepair enables the client's failover read-repair (see
	// ClientOptions.ReadRepair).
	ReadRepair bool
}

// Cluster is a set of in-process nodes plus a connected client —
// everything the examples and integration tests need in one value.
// AddNode and RemoveNode grow and shrink the ring while the cluster
// serves traffic; a member node coordinates each change, as it does
// for a process joining over the network.
type Cluster struct {
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

	// topoMu serializes the cluster's topology changes and repair
	// passes (which must not race a migration's epoch-0 traffic), and
	// guards Nodes while they run.
	topoMu sync.Mutex
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
	}, DialTCP, nil)
}

// DialTCP is the Dialer of TCP members: one pipelined connection to
// addr.
func DialTCP(addr string) (*transport.Client, error) {
	conn, err := transport.DialTCP(addr, 0)
	if err != nil {
		return nil, err
	}
	return transport.NewClient(conn), nil
}

// start is the shared bring-up: topology, per-node listeners and
// engines, and a ring-routed client with lazy dialing.
func start(opts LocalOptions, listen func(hashring.NodeID) (transport.Listener, string, error), dial Dialer, network *transport.Network) (*Cluster, error) {
	ownsDir := false
	if opts.BaseDir == "" {
		dir, err := os.MkdirTemp("", "scalekv-cluster-")
		if err != nil {
			return nil, err
		}
		opts.BaseDir = dir
		ownsDir = true
	}

	ring := hashring.New(opts.Nodes, localVnodes)
	c := &Cluster{
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

	for i := 0; i < opts.Nodes; i++ {
		id := hashring.NodeID(i)
		node, err := StartNode(listeners[i], NodeOptions{
			ID:                id,
			Dir:               filepath.Join(opts.BaseDir, fmt.Sprintf("node-%d", i)),
			Storage:           opts.Storage,
			Topology:          ring,
			Addrs:             addrs,
			ReplicationFactor: opts.ReplicationFactor,
			Dialer:            dial,
			AdvertiseAddr:     addrs[id],
		})
		if err != nil {
			listeners[i].Close()
			c.Close()
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
	}
	c.client = NewClient(ring, ClientOptions{
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

// AddNode grows the cluster by one member under live traffic: it
// listens at the next free ID and joins through JoinRing, with the
// first node as the seed that coordinates the change — streaming the
// new member's ranges from their current owners, flipping every node to
// the new epoch and retiring the moved ranges at their old owners.
// In-flight client operations never fail: writes during the stream are
// dual-written, and requests routed with the old epoch after the flip
// are rejected with a wrong-epoch error that makes the client refresh
// and re-route. A failed join leaves the joiner closed and its
// directory on disk; a retried AddNode picks the same ID and reopens
// it.
func (c *Cluster) AddNode() (*Node, *RebalanceReport, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()

	ids := c.client.topo().Nodes() // sorted ascending
	id := ids[len(ids)-1] + 1
	l, addr, err := c.listen(id)
	if err != nil {
		return nil, nil, err
	}
	node, jr, err := JoinRing(l, NodeOptions{
		ID:                id,
		Dir:               filepath.Join(c.baseDir, fmt.Sprintf("node-%d", id)),
		Storage:           c.opts.Storage,
		ReplicationFactor: c.opts.ReplicationFactor,
		Dialer:            c.dial,
		AdvertiseAddr:     addr,
	}, c.Nodes[0].selfAddr)
	if err != nil {
		return nil, nil, err
	}
	c.adopt(node)
	c.Nodes = append(c.Nodes, node)
	return node, reportFromJoin(id, jr), nil
}

// RemoveNode drains a member and shrinks the cluster: a surviving
// member coordinates the leave — the leaving node's ranges are streamed
// to their new owners (with the dual-write window covering concurrent
// writes) and the topology flips — and the node is shut down. Its
// storage directory is left on disk.
func (c *Cluster) RemoveNode(id hashring.NodeID) (*RebalanceReport, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()

	var victim *Node
	survivors := make([]*Node, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.ID() == id {
			victim = n
		} else {
			survivors = append(survivors, n)
		}
	}
	if victim == nil {
		return nil, fmt.Errorf("cluster: node %d not running here", id)
	}
	if len(survivors) == 0 {
		return nil, fmt.Errorf("cluster: node %d is the last member", id)
	}
	report, err := survivors[0].coordinate(id, "", true)
	if err != nil {
		return nil, err
	}
	c.adopt(survivors[0])

	// The member is drained and unrouted; stop it. The flip already
	// committed the leave, so the bookkeeping happens regardless of how
	// the shutdown goes — keeping a closed node listed would poison
	// FlushAll, Close and the next topology change. A Close error (e.g.
	// a latched background-flush failure surfacing in the final drain)
	// is reported after the fact.
	closeErr := victim.Close()
	c.Nodes = survivors
	return report, closeErr
}

// adopt moves the client to a member's ring after a change it took
// part in.
func (c *Cluster) adopt(n *Node) {
	rs := n.ring.Load()
	c.client.adopt(rs.topo, rs.addrs)
}

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
