package scalekv

import (
	"scalekv/internal/cluster"
	"scalekv/internal/core"
	"scalekv/internal/d8tree"
	"scalekv/internal/hashring"
	"scalekv/internal/master"
	"scalekv/internal/row"
	"scalekv/internal/storage"
	"scalekv/internal/wire"
)

// --- The analytical model (the paper's contribution) ---------------------

// System is the Formula 2 model: database regressions plus master
// messaging costs. See internal/core for the full method set
// (Predict, OptimalKeys, LossAtOptimum, MasterLimit, ...).
type System = core.System

// DBModel is the database component model (Formulas 6-8).
type DBModel = core.DBModel

// Prediction is the model output for one configuration.
type Prediction = core.Prediction

// Tier and HierarchicalDB extend the model to tiered storage (the
// paper's future-work section).
type (
	Tier           = core.Tier
	HierarchicalDB = core.HierarchicalDB
)

// PaperSystem returns the paper's fitted constants with the optimized
// master (19 µs per message).
func PaperSystem() System { return core.PaperSystem() }

// PaperSlowSystem returns the paper's system before the serialization
// fix (150 µs per message).
func PaperSlowSystem() System { return core.PaperSlowSystem() }

// PaperDBModel returns Formula 6/7 verbatim.
func PaperDBModel() DBModel { return core.PaperDBModel() }

// ImbalanceRatio is Formula 1: expected relative overload of the most
// loaded of n nodes holding m keys.
func ImbalanceRatio(keys, nodes int) float64 { return core.ImbalanceRatio(keys, nodes) }

// MaxKeysPerNode is Formula 5: the high-probability maximum key count
// on any node.
func MaxKeysPerNode(keys, nodes int) float64 { return core.MaxKeysPerNode(keys, nodes) }

// --- The real cluster ------------------------------------------------------

// Cluster is an in-process multi-node store (one storage engine and
// server per node, connected by the in-process transport). It is
// elastic: AddNode and RemoveNode grow and shrink the ring under live
// traffic, streaming token ranges between nodes and flipping the
// topology epoch when the data is in place. Cluster.Repair runs an
// anti-entropy pass that converges every replica of every range to the
// per-cell last-write-wins winner, tombstones included.
type Cluster = cluster.Cluster

// Topology is the epoch-versioned token ring: an immutable membership
// snapshot whose AddNode/RemoveNode return a new topology plus the
// token ranges that changed owner.
type Topology = hashring.Topology

// NodeID identifies a cluster member on the ring.
type NodeID = hashring.NodeID

// RangeMove is one element of an ownership diff: copy the inclusive
// token range [Lo, Hi] from node From to node To.
type RangeMove = hashring.RangeMove

// RebalanceReport summarizes one AddNode/RemoveNode: moves, cells
// streamed and retired, stream and flip durations.
type RebalanceReport = cluster.RebalanceReport

// RepairReport summarizes one anti-entropy pass (Cluster.Repair /
// Client.RepairRange): ranges and replica pairs walked, digest probes,
// mismatched leaves and cells shipped to lagging replicas. A converged
// cluster reports zero cells shipped — the pass cost only digests.
type RepairReport = cluster.RepairReport

// Client routes operations by token ring and runs the master-style
// fan-out (CountAll).
type Client = cluster.Client

// ClusterOptions configures StartClusterWith: the node count, the
// replication factor, each node's storage engine, the base directory and
// the client's read repair. The rest is fixed for an in-process cluster:
// 64 virtual nodes per member, 16 concurrent database requests per node,
// and no peer probing or self-scheduled repair (a `kvstore serve`
// process sets those by flag).
type ClusterOptions = cluster.LocalOptions

// MasterOptions tunes fan-out queries (verbose master, log sink).
type MasterOptions = cluster.MasterOptions

// MasterResult is a fan-out query outcome with stage trace.
type MasterResult = cluster.MasterResult

// Cell is one clustering-key/value pair, stamped with the version of
// the write that produced it.
type Cell = row.Cell

// Version orders writes to one cell address: a (Seq, Node) hybrid
// counter stamped by the storage engine that accepted the write.
// Wherever two copies of a cell meet — replicas, rebalance streams,
// compactions — the higher version wins (last-write-wins).
type Version = row.Version

// Entry is one write addressed to a partition — the unit of the batched
// bulk-write path.
type Entry = row.Entry

// Batcher accumulates writes and ships them as replica-aware batched
// RPCs with a bounded per-node window of in-flight requests. Create one
// per writer goroutine with Client.NewBatcher.
type Batcher = cluster.Batcher

// BatcherOptions tunes batch flush thresholds and the async window.
type BatcherOptions = cluster.BatcherOptions

// GetKey addresses one cell for Client.MultiGet.
type GetKey = wire.GetKey

// MultiGetValue is one Client.MultiGet result.
type MultiGetValue = wire.MultiGetValue

// StorageOptions tunes each node's local engine. Notably Shards sets
// the engine's lock-stripe count (default 8): each shard runs its own
// memtable, WAL segments, SSTables and background flusher, so writes
// never wait on SSTable I/O and parallel readers don't contend on one
// lock. Shards: 1 restores the single-stripe layout for ablations.
// Sync selects the WAL fsync policy (SyncNever / SyncOnSeal /
// SyncAlways).
type StorageOptions = storage.Options

// SyncMode selects when WAL segments are fsynced.
type SyncMode = storage.SyncMode

// WAL fsync policies, in increasing durability (and cost) order.
const (
	SyncNever  = storage.SyncNever
	SyncOnSeal = storage.SyncOnSeal
	SyncAlways = storage.SyncAlways
)

// EngineStats is a storage engine's load snapshot: per-shard memtable
// backlog, SSTable counts, flushed bytes and background-work counters.
type EngineStats = storage.EngineStats

// StartCluster boots an n-node in-process cluster with defaults
// (replication factor 1, WAL enabled).
func StartCluster(nodes int) (*Cluster, error) {
	return cluster.StartLocal(cluster.LocalOptions{Nodes: nodes})
}

// StartClusterWith boots a cluster with explicit options.
func StartClusterWith(opts ClusterOptions) (*Cluster, error) {
	return cluster.StartLocal(opts)
}

// --- The simulated prototype ----------------------------------------------

// SimConfig describes one simulated master-slave query (the Section V
// prototype under virtual time).
type SimConfig = master.Config

// SimResult carries a simulated run's measurements and stage trace.
type SimResult = master.Result

// Calibration holds per-component service times for the simulator.
type Calibration = master.Calibration

// Simulate runs one query on the discrete-event simulator.
func Simulate(cfg SimConfig) *SimResult { return master.Run(cfg) }

// PaperCalibration returns the paper's measured component costs;
// fastMaster selects the optimized master.
func PaperCalibration(fastMaster bool) Calibration { return master.PaperCalibration(fastMaster) }

// --- The case-study index ---------------------------------------------------

// D8Tree is the denormalized octree index over a key-value store.
type D8Tree = d8tree.Tree

// D8TreeOptions configures tree depth and read fan-out.
type D8TreeOptions = d8tree.Options

// Point and Box are the index's element and query region.
type (
	Point = d8tree.Point
	Box   = d8tree.Box
)

// KVStore is the substrate interface a D8Tree writes through.
type KVStore = d8tree.Store

// BatchKVStore is the batch-capable KVStore variant; both ClientStore
// and EngineStore satisfy it, so D8Tree.InsertBatch bulk-loads through
// the batched write path on either substrate.
type BatchKVStore = d8tree.BatchStore

// NewD8Tree binds a tree to any KVStore (a cluster client via
// ClientStore, or a local engine via EngineStore).
func NewD8Tree(store KVStore, opts D8TreeOptions) *D8Tree { return d8tree.New(store, opts) }

// clientStore adapts a cluster client to the KVStore interface. It also
// implements the batch-capable store variant, so D8Tree.InsertBatch
// ships bulk loads through the batched write path.
type clientStore struct{ c *Client }

func (s clientStore) Put(pk string, ck, value []byte) error { return s.c.Put(pk, ck, value) }
func (s clientStore) PutBatch(entries []row.Entry) error    { return s.c.PutBatch(entries) }
func (s clientStore) Scan(pk string, from, to []byte) ([]row.Cell, error) {
	return s.c.Scan(pk, from, to)
}

// ClientStore lets a D8Tree run over a cluster client.
func ClientStore(c *Client) KVStore { return clientStore{c: c} }

// engineStore adapts a local storage engine to the KVStore interface,
// batch path included (the engine group-commits a batch under one lock
// acquisition and one WAL write).
type engineStore struct{ e *storage.Engine }

func (s engineStore) Put(pk string, ck, value []byte) error { return s.e.Put(pk, ck, value) }
func (s engineStore) PutBatch(entries []row.Entry) error    { return s.e.PutBatch(entries) }
func (s engineStore) Scan(pk string, from, to []byte) ([]row.Cell, error) {
	return s.e.ScanPartition(pk, from, to)
}

// OpenEngine opens a standalone single-node engine (no cluster), useful
// for local indexing and the Figure 6/7 measurements.
func OpenEngine(opts StorageOptions) (*storage.Engine, error) { return storage.Open(opts) }

// EngineStore lets a D8Tree run over a local engine.
func EngineStore(e *storage.Engine) KVStore { return engineStore{e: e} }
