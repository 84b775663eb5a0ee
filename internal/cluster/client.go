package cluster

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"scalekv/internal/hashring"
	"scalekv/internal/row"
	"scalekv/internal/stages"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

// maxRouteAttempts bounds how many times an operation re-routes after a
// ring refresh (wrong-epoch rejection or unreachable replicas). Each
// attempt already tries every replica, so this is a topology-churn
// bound, not a per-node retry count.
const maxRouteAttempts = 4

// retryableError marks a failure the client may recover from by
// refreshing its ring and re-routing: a wrong-epoch rejection or a
// transport-level error (as opposed to a storage error the server
// reported while healthy).
type retryableError struct{ error }

func (e retryableError) Unwrap() error { return e.error }

func retryable(err error) error {
	if err == nil {
		return nil
	}
	return retryableError{err}
}

func isRetryable(err error) bool {
	if err == nil {
		return false // before r, which escapes: a success allocates nothing
	}
	var r retryableError
	return errors.As(err, &r)
}

// Dialer opens a pipelined RPC connection to a node address; the client
// uses it to reach members it learns about from ring refreshes.
type Dialer func(addr string) (*transport.Client, error)

// Client routes operations to nodes by an epoch-versioned token ring
// and runs fan-out queries. Safe for concurrent use.
//
// The ring is mutable: every routed request carries the topology epoch
// it was routed under, and a node that has moved to a different epoch
// rejects it, making the client refresh its ring (RingStateRequest to
// any reachable member) and re-route. New members are dialed lazily via
// the Dialer; connections to departed members are closed on adoption.
// Point reads (Get, MultiGet, Scan, Count) fail over to the next
// replica when a node is unreachable, so a dead primary degrades
// instead of failing every read — provided data was written with a
// replication factor above one.
type Client struct {
	rf         int
	dialer     Dialer
	readRepair bool

	mu      sync.Mutex
	ring    *hashring.Topology
	conns   map[hashring.NodeID]*transport.Client
	addrs   map[hashring.NodeID]string
	queryID uint64

	// RepairedReads counts best-effort read-repair writes issued after
	// failover reads (observability; see ClientOptions.ReadRepair).
	RepairedReads atomic.Int64
	// Failovers counts routed reads (Get, Scan, Count) a non-primary
	// replica served because an earlier replica was unreachable.
	// cmd/kvload prints the per-step delta: a non-zero count means the
	// sweep ran against a degraded cluster.
	Failovers atomic.Int64
	// repairsInFlight bounds concurrent repair goroutines (see
	// repairAsync).
	repairsInFlight atomic.Int64
}

// maxRepairsInFlight caps concurrent read-repair goroutines. Failover
// reads against a dead primary can fire at full read throughput; the
// repair is best-effort, so past the cap new repairs are simply
// skipped instead of accumulating goroutines that all block dialing
// the same unreachable node.
const maxRepairsInFlight = 8

// ClientOptions configures a cluster client.
type ClientOptions struct {
	// ReplicationFactor is how many replicas each write lands on — and
	// how many replicas a read may fail over across. 0 means 1.
	ReplicationFactor int
	// Dialer lets the client open connections to nodes it discovers
	// through ring refreshes (and re-dial nodes whose connection died).
	// Nil restricts the client to the initial conns map.
	Dialer Dialer
	// Addrs seeds the member address book used with Dialer.
	Addrs map[hashring.NodeID]string
	// ReadRepair makes a Get that failed over past one or more replicas
	// (rf > 1) asynchronously re-put the cell it read — with its
	// original version, so last-write-wins keeps the propagation
	// harmless — to the partition's other replicas. Deletes repair too:
	// a failover read that lands on a tombstone forwards the tombstone,
	// so the skipped replica stops serving the old value. Best-effort:
	// errors are dropped; it narrows replica divergence after a node
	// outage but touches only what failover reads hit — Cluster.Repair
	// is the convergence guarantee.
	ReadRepair bool
}

// defaultRepairConcurrency is how many token ranges an anti-entropy
// pass (RepairRange, RepairAll, Cluster.Repair) digests and reconciles
// concurrently: wide enough to overlap digest round trips across
// ranges, narrow enough that repair traffic cannot crowd out foreground
// reads on the replicas.
const defaultRepairConcurrency = 4

// NewClient wraps per-node RPC clients with ring routing. The conns map
// seeds the connection set; with a Dialer and address book the client
// dials further members lazily.
func NewClient(ring *hashring.Topology, conns map[hashring.NodeID]*transport.Client, opts ClientOptions) *Client {
	if opts.ReplicationFactor <= 0 {
		opts.ReplicationFactor = 1
	}
	c := &Client{
		rf:         opts.ReplicationFactor,
		dialer:     opts.Dialer,
		readRepair: opts.ReadRepair,
		ring:       ring,
		conns:      make(map[hashring.NodeID]*transport.Client, len(conns)),
		addrs:      make(map[hashring.NodeID]string, len(opts.Addrs)),
	}
	for id, conn := range conns {
		c.conns[id] = conn
	}
	for id, a := range opts.Addrs {
		c.addrs[id] = a
	}
	return c
}

// Ring exposes the current routing topology (read-only use).
func (c *Client) Ring() *hashring.Topology { return c.topo() }

// ReplicationFactor reports the client's effective replication factor —
// either the one configured or, for Connect with none set, the one
// adopted from the ring.
func (c *Client) ReplicationFactor() int { return c.rf }

func (c *Client) topo() *hashring.Topology {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// conn returns the pipelined connection to a node, dialing lazily when
// the client knows the node's address.
func (c *Client) conn(node hashring.NodeID) (*transport.Client, error) {
	c.mu.Lock()
	if conn, ok := c.conns[node]; ok {
		c.mu.Unlock()
		return conn, nil
	}
	addr, haveAddr := c.addrs[node]
	dialer := c.dialer
	c.mu.Unlock()
	if !haveAddr || dialer == nil {
		return nil, fmt.Errorf("cluster: no connection to node %d", node)
	}
	conn, err := dialer(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial node %d: %w", node, err)
	}
	c.mu.Lock()
	if existing, ok := c.conns[node]; ok {
		// Lost the dial race; keep the established winner.
		c.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	c.conns[node] = conn
	c.mu.Unlock()
	return conn, nil
}

// dropConn forgets a connection observed failing, so the next use
// re-dials (the node may have restarted, or is gone from the ring).
func (c *Client) dropConn(node hashring.NodeID, conn *transport.Client) {
	c.mu.Lock()
	if c.conns[node] == conn {
		delete(c.conns, node)
	}
	c.mu.Unlock()
	conn.Close()
}

// callRaw sends one framed request to a node and waits for the reply.
// Every returned error is transport-class.
func (c *Client) callRaw(node hashring.NodeID, payload []byte) ([]byte, error) {
	conn, err := c.conn(node)
	if err != nil {
		return nil, err
	}
	raw, err := conn.Call(payload)
	if err != nil {
		c.dropConn(node, conn)
		return nil, err
	}
	return raw, nil
}

// caller is the Caller for one node, for call: the connection is picked
// (or dialed) per call and dropped when it fails.
func (c *Client) caller(node hashring.NodeID) transport.Caller {
	return callerFunc(func(payload []byte) ([]byte, error) { return c.callRaw(node, payload) })
}

// --- Ring refresh -----------------------------------------------------------

// refreshRing asks every reachable member for its ring state and
// adopts the highest epoch seen. Polling all members matters during an
// epoch flip, which installs the new topology node by node: the member
// that just rejected a request already has the new state, while another
// may still answer with the old one. Taking the maximum moves the client
// to the new epoch in one refresh; members the flip has not reached yet
// accept it, because their migration window is still open
// (Node.epochCheck).
func (c *Client) refreshRing() error {
	c.mu.Lock()
	ids := make([]hashring.NodeID, 0, len(c.conns))
	for id := range c.conns {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	lastErr := errors.New("cluster: no members reachable for ring refresh")
	var best *wire.RingStateResponse
	for _, id := range ids {
		rs, err := ringStateRPC(c.caller(id))
		if err != nil {
			lastErr = err
			continue
		}
		if best == nil || rs.Epoch > best.Epoch {
			best = rs
		}
	}
	if best == nil {
		return lastErr
	}
	topo, addrs, err := ringFromWire(best.Epoch, best.Nodes, best.Vnodes)
	if err != nil {
		return err
	}
	c.adopt(topo, addrs)
	return nil
}

// adopt installs a topology (unless it is older than the current one),
// merges the address book, and closes connections to departed members.
func (c *Client) adopt(topo *hashring.Topology, addrs map[hashring.NodeID]string) {
	var closeConns []*transport.Client
	c.mu.Lock()
	if c.ring != nil && topo.Epoch() < c.ring.Epoch() {
		c.mu.Unlock()
		return
	}
	c.ring = topo
	for id, a := range addrs {
		c.addrs[id] = a
	}
	for id, conn := range c.conns {
		if !topo.Contains(id) {
			closeConns = append(closeConns, conn)
			delete(c.conns, id)
			delete(c.addrs, id)
		}
	}
	c.mu.Unlock()
	for _, conn := range closeConns {
		conn.Close()
	}
}

// --- Writes -----------------------------------------------------------------

// routedWrite is routedRead's twin for writes: send makes one attempt
// at the whole write, routed by the given ring. On a wrong-epoch
// rejection or an unreachable replica the client refreshes its ring and
// sends the whole write again (idempotent: last write wins).
func (c *Client) routedWrite(send func(t *hashring.Topology) error) error {
	var err error
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		if err = send(c.topo()); err == nil || !isRetryable(err) {
			return err
		}
		if c.refreshRing() != nil {
			break
		}
	}
	return err
}

// Put writes one cell to every replica of its partition. The replica
// RPCs are issued concurrently over the pipelined transport, so a
// replication factor above one costs one network round trip, not rf.
// Epoch changes and unreachable replicas re-route (see routedWrite).
func (c *Client) Put(pk string, ck, value []byte) error {
	return c.routedWrite(func(t *hashring.Topology) error {
		return c.fanOutWrite(t.Replicas(pk, c.rf), &wire.PutRequest{PK: pk, CK: ck, Value: value, Epoch: t.Epoch()})
	})
}

// Delete removes one cell on every replica of its partition — the
// distributed half of the engine's tombstone write. Routing, replica
// fan-out and re-routing match Put: the accepting node stamps the
// tombstone's version and dual-write-forwards it during a migration, so
// the delete converges to the same winner on every replica even while
// the range is moving.
func (c *Client) Delete(pk string, ck []byte) error {
	return c.routedWrite(func(t *hashring.Topology) error {
		return c.fanOutWrite(t.Replicas(pk, c.rf), &wire.DeleteRequest{PK: pk, CK: ck, Epoch: t.Epoch()})
	})
}

// PutBatch writes many cells in replica-aware batches: entries are
// grouped by destination node across all replicas, each node receives
// one BatchPutRequest, and all node RPCs fly concurrently. Equivalent to
// a Put per entry, minus the per-cell round trips, and re-routed like
// one.
func (c *Client) PutBatch(entries []row.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	return c.routedWrite(func(t *hashring.Topology) error {
		perNode := make(map[hashring.NodeID][]row.Entry)
		for _, e := range entries {
			for _, node := range t.Replicas(e.PK, c.rf) {
				perNode[node] = append(perNode[node], e)
			}
		}
		w := acks{chans: make([]<-chan []byte, 0, len(perNode))}
		for node, batch := range perNode {
			w.add(c.goBatch(node, batch, t.Epoch()))
		}
		return w.wait(c)
	})
}

// fanOutWrite sends one write to every listed node concurrently and
// reaps every acknowledgement.
func (c *Client) fanOutWrite(nodes []hashring.NodeID, req wire.Message) error {
	payload, err := codec.Marshal(req)
	if err != nil {
		return err
	}
	w := acks{chans: make([]<-chan []byte, 0, len(nodes))}
	for _, node := range nodes {
		w.add(c.goWrite(node, payload))
	}
	return w.wait(c)
}

// acks holds one write's in-flight acknowledgements and its first
// error.
type acks struct {
	chans []<-chan []byte
	err   error
}

// add records one launched write, or the error that kept it from
// launching.
func (w *acks) add(ch <-chan []byte, err error) {
	if err == nil {
		w.chans = append(w.chans, ch)
	} else if w.err == nil {
		w.err = err
	}
}

// wait reaps every acknowledgement and returns the write's first error.
func (w *acks) wait(c *Client) error {
	for _, ch := range w.chans {
		if err := c.reapPut(ch); err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// goWrite launches one pre-marshalled write at a node. Errors are
// transport-class and marked retryable.
func (c *Client) goWrite(node hashring.NodeID, payload []byte) (<-chan []byte, error) {
	conn, err := c.conn(node)
	if err != nil {
		return nil, retryable(err)
	}
	ch, err := conn.Go(payload)
	if err != nil {
		c.dropConn(node, conn)
		return nil, retryable(err)
	}
	return ch, nil
}

// goBatch launches one asynchronous BatchPutRequest at a node.
func (c *Client) goBatch(node hashring.NodeID, batch []row.Entry, epoch uint64) (<-chan []byte, error) {
	payload, err := codec.Marshal(&wire.BatchPutRequest{Entries: batch, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	return c.goWrite(node, payload)
}

// reapPut waits for one in-flight write (single put, batch or delete)
// and converts its reply into an error (see decode). A connection that
// closed under the write is retryable.
func (c *Client) reapPut(ch <-chan []byte) error {
	raw, ok := <-ch
	if !ok {
		return retryable(fmt.Errorf("cluster: write failed: %w", transport.ErrClosed))
	}
	_, err := decode[wire.Reply](raw)
	return err
}

// --- Reads ------------------------------------------------------------------

// readServed reports which replica answered a routedRead: the serving
// node, its index in the replica list, and the list itself. A non-zero
// index means the read failed over past earlier replicas — the signal
// read-repair keys on.
type readServed struct {
	node     hashring.NodeID
	idx      int
	replicas []hashring.NodeID
}

// routedRead is the shared failover/refresh loop behind Get, Scan and
// Count: marshal the request for the current epoch, walk the
// partition's replicas on transport errors (a dead primary degrades a
// read instead of killing it — requires rf > 1 to have somewhere to
// go), and on a wrong-epoch rejection refresh the ring and re-route.
// build must stamp the given epoch into the request. Sharing the loop
// keeps the three read paths from diverging on retry or epoch policy.
func routedRead[R wire.Reply](c *Client, pk string, build func(epoch uint64) wire.Message) (R, readServed, error) {
	var zero R
	var lastErr error
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		t := c.topo()
		payload, err := codec.Marshal(build(t.Epoch()))
		if err != nil {
			return zero, readServed{}, err
		}
		replicas := t.Replicas(pk, c.rf)
		for i, node := range replicas {
			raw, err := c.callRaw(node, payload)
			if err != nil {
				lastErr = retryable(err)
				continue // unreachable replica: try the next one
			}
			tr, err := decode[R](raw)
			if isRetryable(err) {
				lastErr = err
				break // stale ring: refresh, then re-route
			}
			if err != nil {
				return zero, readServed{}, err
			}
			if i > 0 {
				c.Failovers.Add(1)
			}
			return tr, readServed{node: node, idx: i, replicas: replicas}, nil
		}
		if err := c.refreshRing(); err != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: read %q: no replicas", pk)
	}
	return zero, readServed{}, lastErr
}

// Get reads one cell, starting at the partition's primary replica and
// failing over across replicas; wrong-epoch rejections refresh the
// ring and re-route (see routedRead). With ClientOptions.ReadRepair, a
// read that failed over re-propagates the cell it found to the other
// replicas in the background. The value is a view into the response
// frame, which nothing else refers to: it is the caller's, to keep or
// to modify.
func (c *Client) Get(pk string, ck []byte) ([]byte, bool, error) {
	resp, served, err := routedRead[*wire.GetResponse](c, pk,
		func(epoch uint64) wire.Message { return &wire.GetRequest{PK: pk, CK: ck, Epoch: epoch} })
	if err != nil {
		return nil, false, err
	}
	// Repair values AND tombstones: a failover read of a deleted cell
	// must propagate the delete, or the lagging replica keeps serving
	// the old value forever once it is primary again.
	if c.readRepair && served.idx > 0 && resp.VerSeq > 0 && (resp.Found || resp.Tombstone) {
		c.repairAsync(served, row.Entry{
			PK: pk, CK: ck, Value: resp.Value, Tombstone: resp.Tombstone,
			Ver: row.Version{Seq: resp.VerSeq, Node: resp.VerNode},
		})
	}
	return resp.Value, resp.Found, nil
}

// repairAsync best-effort re-puts a cell (or a tombstone — deletes ride
// the same path) — with its original version, so a replica that already
// holds something newer keeps it (the last-write-wins merge makes the
// repair harmless) — to every replica other than the one that served
// the read. Errors are dropped: the lagging replica was likely the
// unreachable node the read failed over past, and the repair simply
// misses until it returns.
func (c *Client) repairAsync(served readServed, ent row.Entry) {
	targets := make([]hashring.NodeID, 0, len(served.replicas)-1)
	for _, node := range served.replicas {
		if node != served.node {
			targets = append(targets, node)
		}
	}
	if len(targets) == 0 {
		return
	}
	if c.repairsInFlight.Add(1) > maxRepairsInFlight {
		// Another burst of failover reads is already repairing; drop
		// this one rather than pile goroutines onto an unreachable node.
		c.repairsInFlight.Add(-1)
		return
	}
	// Epoch 0: the repair is admin-class traffic, valid at any epoch —
	// a topology flip mid-repair must not turn a best-effort write into
	// a retry loop.
	payload, err := codec.Marshal(&wire.BatchPutRequest{Entries: []row.Entry{ent}})
	if err != nil {
		c.repairsInFlight.Add(-1)
		return
	}
	c.RepairedReads.Add(1)
	go func() {
		defer c.repairsInFlight.Add(-1)
		for _, node := range targets {
			conn, err := c.conn(node)
			if err != nil {
				continue
			}
			if _, err := conn.Call(payload); err != nil {
				c.dropConn(node, conn)
			}
		}
	}()
}

// MultiGet reads many cells, one MultiGetRequest per involved node, all
// in flight at once. Results are positional: out[i] answers keys[i].
// Keys on an unreachable node are retried against their next replica;
// a wrong-epoch rejection refreshes the ring and re-routes the
// remaining keys. Values are views into one response frame per node,
// and like Get's they are the caller's.
func (c *Client) MultiGet(keys []wire.GetKey) ([]wire.MultiGetValue, error) {
	out := make([]wire.MultiGetValue, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	resolved := make([]bool, len(keys))
	replicaTry := make([]int, len(keys)) // per-key failover offset
	remaining := len(keys)
	var lastErr error

	for attempt := 0; attempt < maxRouteAttempts && remaining > 0; attempt++ {
		t := c.topo()
		perNode := make(map[hashring.NodeID][]int)
		for i, k := range keys {
			if resolved[i] {
				continue
			}
			replicas := t.Replicas(k.PK, c.rf)
			if len(replicas) == 0 {
				return nil, fmt.Errorf("cluster: multi-get %q: empty ring", k.PK)
			}
			node := replicas[replicaTry[i]%len(replicas)]
			perNode[node] = append(perNode[node], i)
		}

		type pendingGet struct {
			node hashring.NodeID
			idx  []int
			ch   <-chan []byte
			err  error
		}
		pending := make([]pendingGet, 0, len(perNode))
		for node, idx := range perNode {
			p := pendingGet{node: node, idx: idx}
			sub := make([]wire.GetKey, len(idx))
			for j, i := range idx {
				sub[j] = keys[i]
			}
			conn, err := c.conn(node)
			if err != nil {
				p.err = err
			} else {
				payload, merr := codec.Marshal(&wire.MultiGetRequest{Keys: sub, Epoch: t.Epoch()})
				if merr != nil {
					return nil, merr
				}
				p.ch, err = conn.Go(payload)
				if err != nil {
					c.dropConn(node, conn)
					p.err = err
				}
			}
			pending = append(pending, p)
		}

		needRefresh := false
		for _, p := range pending {
			failNode := func(err error) {
				lastErr = retryable(err)
				for _, i := range p.idx {
					replicaTry[i]++ // fail over to the next replica
				}
			}
			if p.err != nil {
				failNode(p.err)
				continue
			}
			raw, ok := <-p.ch
			if !ok {
				failNode(fmt.Errorf("cluster: multi-get failed: %w", transport.ErrClosed))
				continue
			}
			mr, err := decode[*wire.MultiGetResponse](raw)
			if isRetryable(err) {
				lastErr = err
				needRefresh = true
				continue // keys stay unresolved; re-routed next attempt
			}
			if err != nil {
				return nil, err
			}
			if len(mr.Values) != len(p.idx) {
				return nil, fmt.Errorf("cluster: multi-get returned %d values for %d keys", len(mr.Values), len(p.idx))
			}
			for j, i := range p.idx {
				out[i] = mr.Values[j]
				if !resolved[i] {
					resolved[i] = true
					remaining--
				}
			}
		}
		if remaining == 0 {
			return out, nil
		}
		if needRefresh || lastErr != nil {
			if err := c.refreshRing(); err != nil && needRefresh {
				return nil, lastErr
			}
		}
	}
	if remaining == 0 {
		return out, nil
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: multi-get incomplete")
	}
	return nil, lastErr
}

// Scan reads a clustering range of a partition, failing over across
// replicas like Get. The cells' keys and values alias one response
// frame and are the caller's; each is capped, so appending to one never
// writes into the next.
func (c *Client) Scan(pk string, from, to []byte) ([]row.Cell, error) {
	resp, _, err := routedRead[*wire.ScanResponse](c, pk,
		func(epoch uint64) wire.Message { return &wire.ScanRequest{PK: pk, From: from, To: to, Epoch: epoch} })
	if err != nil {
		return nil, err
	}
	return resp.Cells, nil
}

// Count aggregates one partition (count by type), with the same
// replica failover and epoch protection as Get — without the epoch a
// stale client would silently count zero at a node that retired the
// partition after a rebalance. (CountAll's fan-out stays unversioned
// and accounts failures per request instead.)
func (c *Client) Count(pk string) (map[uint8]uint64, uint64, error) {
	resp, _, err := routedRead[*wire.CountResponse](c, pk,
		func(epoch uint64) wire.Message { return &wire.CountRequest{PK: pk, Epoch: epoch} })
	if err != nil {
		return nil, 0, err
	}
	return resp.Counts, resp.Elements, nil
}

// NodeStats fetches one member's engine-load summary.
func (c *Client) NodeStats(node hashring.NodeID) (*wire.NodeStatsResponse, error) {
	return call[*wire.NodeStatsResponse](c.caller(node), &wire.NodeStatsRequest{})
}

// MasterOptions tunes the fan-out aggregation — the knobs the paper's
// Section V experiment turns.
type MasterOptions struct {
	// Verbose reproduces the unoptimized master: per-message logging
	// and integrity checks on top of serialization (the costs the paper
	// profiled and removed).
	Verbose bool
	// LogSink receives the verbose log lines; nil means io.Discard.
	LogSink io.Writer
	// SelectReplica enables the Section VII replica-selection
	// algorithm: each request goes to the least-loaded replica of its
	// partition (by requests issued so far) instead of always the
	// primary. It only balances load when data was written with a
	// replication factor above one, and it costs the master extra
	// bookkeeping per message — the trade-off the paper quantifies.
	SelectReplica bool
}

// MasterResult is the outcome of a fan-out query.
type MasterResult struct {
	Counts   map[uint8]uint64
	Elements uint64
	// Duration is the wall time from first send to last response
	// processed.
	Duration time.Duration
	// SendDuration is the master-side time to issue every request —
	// Formula 3's term, observed. Requests are queued per connection and
	// flushed once after the last one, and the flush is inside this
	// span.
	SendDuration time.Duration
	// OpsPerNode counts requests served by each node.
	OpsPerNode map[int]int
	// Trace carries the per-request stage spans (Figure 2/4 input).
	Trace *stages.Trace
	// BytesSent totals the request payloads, the paper's 7.5MB-vs-900KB
	// measurement.
	BytesSent int64
	Errors    int
}

// CountAll runs the paper's prototype query: the master knows every key
// up front, issues one CountRequest per key to the key's primary node,
// and aggregates the responses. Stage timings land in the result trace.
// The topology is snapshotted once at query start; requests are
// epoch-agnostic, so a concurrent rebalance shows up as per-request
// errors (counted), not a failed query.
func (c *Client) CountAll(pks []string, opts MasterOptions) (*MasterResult, error) {
	logSink := opts.LogSink
	if logSink == nil {
		logSink = io.Discard
	}
	topo := c.topo()
	c.mu.Lock()
	c.queryID++
	qid := c.queryID
	c.mu.Unlock()

	res := &MasterResult{
		Counts:     make(map[uint8]uint64),
		OpsPerNode: make(map[int]int),
		Trace:      stages.NewTrace(),
	}
	type pendingResp struct {
		seq     uint32
		node    hashring.NodeID
		conn    *transport.Client
		sentAbs time.Time
		ch      <-chan []byte
	}
	start := time.Now()
	pending := make([]pendingResp, 0, len(pks))

	// Send phase: strictly sequential, like the paper's master loop.
	// Requests are queued, not sent: the burst leaves in one write per
	// connection, after the loop, instead of one per request.
	touched := make(map[hashring.NodeID]*transport.Client)
	issued := make(map[hashring.NodeID]int)
	queue := func(i int, pk string) error {
		node := topo.Primary(pk)
		if opts.SelectReplica {
			// Least-issued replica: the master-side balancing the
			// paper's Section VII analyses (and whose per-message cost
			// bounds the cluster size the master can feed).
			for _, cand := range topo.Replicas(pk, c.rf) {
				if issued[cand] < issued[node] {
					node = cand
				}
			}
		}
		issued[node]++
		req := &wire.CountRequest{
			QueryID: qid,
			Seq:     uint32(i),
			PK:      pk,
		}
		sendAbs := time.Now()
		req.TraceSendNanos = sendAbs.UnixNano()
		payload, err := codec.Marshal(req)
		if err != nil {
			return err
		}
		if opts.Verbose {
			// The unoptimized master's per-message extras: a formatted
			// log line and an integrity checksum of the frame.
			fmt.Fprintf(logSink, "query=%d seq=%d pk=%s node=%d bytes=%d crc=%08x\n",
				qid, i, pk, node, len(payload), crc32.ChecksumIEEE(payload))
			if rt, err := codec.Unmarshal(payload); err != nil {
				return fmt.Errorf("cluster: integrity check: %w", err)
			} else if rt.(*wire.CountRequest).PK != pk {
				return errors.New("cluster: integrity check mismatch")
			}
		}
		conn, err := c.conn(node)
		if err != nil {
			return err
		}
		ch, err := conn.Queue(payload)
		if err != nil {
			// The node may have bounced: forget the dead connection so
			// the next query re-dials instead of failing the same way.
			delete(touched, node)
			c.dropConn(node, conn)
			return err
		}
		touched[node] = conn
		res.BytesSent += int64(len(payload))
		pending = append(pending, pendingResp{seq: uint32(i), node: node, conn: conn, sentAbs: sendAbs, ch: ch})
		return nil
	}
	var sendErr error
	for i, pk := range pks {
		if sendErr = queue(i, pk); sendErr != nil {
			break
		}
	}
	// Flush also when the loop stopped early, so no queued request — and
	// no pending entry waiting for its response — is left stranded. A
	// connection that fails to flush is dropped, which closes the
	// response channels of everything queued on it.
	for node, conn := range touched {
		if conn.Flush() != nil {
			c.dropConn(node, conn)
		}
	}
	if sendErr != nil {
		return nil, sendErr
	}
	res.SendDuration = time.Since(start)

	// Collect phase.
	for _, p := range pending {
		raw, ok := <-p.ch
		if !ok {
			// The connection broke under the request; dropConn is
			// idempotent, so every request that shared it may say so.
			c.dropConn(p.node, p.conn)
			res.Errors++
			continue
		}
		recvAbs := time.Now()
		cr, err := decode[*wire.CountResponse](raw)
		if err != nil {
			res.Errors++
			continue
		}
		res.Elements += cr.Elements
		for ty, n := range cr.Counts {
			res.Counts[ty] += n
		}
		res.OpsPerNode[int(p.node)]++

		// Reconstruct the four stages relative to query start.
		nodeRecv := time.Unix(0, cr.RecvNanos)
		reqID := uint64(p.seq)
		node := int(p.node)
		res.Trace.Record(reqID, node, stages.MasterToSlave,
			p.sentAbs.Sub(start), nodeRecv.Sub(start))
		queueEnd := nodeRecv.Add(time.Duration(cr.QueueNanos))
		res.Trace.Record(reqID, node, stages.InQueue,
			nodeRecv.Sub(start), queueEnd.Sub(start))
		dbEnd := queueEnd.Add(time.Duration(cr.DBNanos))
		res.Trace.Record(reqID, node, stages.InDB,
			queueEnd.Sub(start), dbEnd.Sub(start))
		res.Trace.Record(reqID, node, stages.SlaveToMaster,
			dbEnd.Sub(start), recvAbs.Sub(start))
	}
	res.Duration = time.Since(start)
	return res, nil
}

// Close closes every node connection.
func (c *Client) Close() {
	c.mu.Lock()
	conns := make([]*transport.Client, 0, len(c.conns))
	for _, conn := range c.conns {
		conns = append(conns, conn)
	}
	c.conns = make(map[hashring.NodeID]*transport.Client)
	c.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
}
