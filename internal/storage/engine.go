// Package storage assembles the local database node the paper's slaves
// run: a log-structured wide-column engine with a write-ahead log,
// skip-list memtables, bloom-filtered block-based SSTables (see
// internal/sstable) behind a shared block cache, size-triggered flushes
// and leveled compaction.
//
// The engine is lock-striped into shards keyed by partition-key hash.
// Each shard owns its own active memtable, frozen-memtable queue, WAL
// segments, leveled SSTable tree and one background worker goroutine. A
// write appends to the shard's WAL segment and active memtable under
// the shard lock only; when the active memtable crosses the flush
// threshold it is atomically swapped for a fresh one and the frozen
// memtable — together with its sealed WAL segments — is handed to the
// worker, which writes the SSTable into level 0 and retires the
// segments off the write path. Compaction runs on the same worker:
// when L0 grows past its table-count threshold or a deeper level past
// its byte budget, the worker merges the overflow into the overlapping
// slice of the next level — tables there are range-partitioned and
// bounded by TargetTableBytes — holding the shard lock only for the
// level-layout swap. A per-shard manifest records the layout across
// restarts.
//
// Reads never take a lock. Every mutation of a shard's read sources —
// memtable swap, flush accept, compaction or purge table swap —
// publishes a fresh immutable snapshot (active memtable + frozen queue
// + refcounted SSTable list) through an atomic pointer; a point read
// pins it with a single compare-and-swap, merges active + frozen
// memtables + SSTables, and releases it. The memtables themselves are
// single-writer lock-free skip lists, so the common case — the newest
// version of a hot key sits in the active memtable — costs zero lock
// acquisitions and zero heap allocations. Partition reads stream: a
// k-way merge over one cursor per source (visit.go) hands each winning
// cell to its consumer as a view, so a count copies nothing and a scan
// copies each cell once. Token-range operations
// (ScanRange, RangeDigest, CountRange, DeleteRange) share one cached
// token-sorted partition index, invalidated by per-shard generation
// counters instead of rebuilt per request.
//
// The engine is the "in-cassandra" stage of the paper's four-phase
// decomposition: the Figure 6/7 harness measures it directly to fit the
// database model (Formulas 6-8).
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"scalekv/internal/murmur"
	"scalekv/internal/row"
	"scalekv/internal/sstable"
)

// DefaultShards is the lock-stripe count used when Options.Shards is
// zero.
const DefaultShards = 8

// SyncMode selects when WAL segments are fsynced — the durability
// window a crash (as opposed to a process kill) can lose.
type SyncMode int

const (
	// SyncNever leaves fsync to segment close — the historical behaviour
	// and the default; benches are unaffected. An OS crash can lose the
	// unsynced tail of the active segment.
	SyncNever SyncMode = iota
	// SyncOnSeal fsyncs a segment when the memtable it covers freezes,
	// bounding machine-crash loss to the active memtable.
	SyncOnSeal
	// SyncAlways fsyncs after every WAL append (Put and PutBatch alike):
	// an acknowledged write survives a machine crash, at ~one disk flush
	// per write call. Batching amortizes it — one sync covers the batch.
	SyncAlways
)

// Options configures an Engine.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// NodeID is the engine's identity inside cell versions: every write
	// this engine stamps carries it as the version tie-breaker. Cluster
	// nodes set it to their ring ID so replicas stamping concurrently
	// never produce equal versions for different writes; a standalone
	// engine can leave it 0.
	NodeID uint16
	// Sync selects the WAL fsync policy. Zero value is SyncNever.
	Sync SyncMode
	// Shards is the lock-stripe count: each shard has its own memtable,
	// WAL segments, SSTables and background flusher. 0 means
	// DefaultShards; negative means 1 (the pre-sharding single-lock
	// layout). The count is fixed at first open and persisted in a
	// SHARDS manifest — on reopen the on-disk value wins, because the
	// existing files were partitioned with it.
	Shards int
	// FlushThreshold is the ceiling of the memtable payload size, in
	// bytes, that triggers a background flush to SSTable: each shard
	// freezes at its own fixed point in (¾·FlushThreshold,
	// FlushThreshold], shard 0 at FlushThreshold itself, so the shards
	// do not all flush and compact at once. 0 means 4MB.
	FlushThreshold int64
	// ColumnIndexSize forwards to the SSTable writer, which reads only
	// its sign: negative disables intra-partition seeking (the Figure 6
	// ablation knob).
	ColumnIndexSize int
	// BlockCacheBytes bounds the engine-wide cache of decompressed
	// SSTable blocks and lazily-loaded table metadata, shared across
	// every shard's tables. 0 means 64MB; negative disables the cache
	// (every block read then hits the OS page cache and decompresses).
	BlockCacheBytes int64
	// DisableWAL turns off the commit log; used by bulk loads and
	// benchmarks where durability is irrelevant.
	DisableWAL bool
	// CompactAfter triggers a leveled compaction of a shard once more
	// than this many SSTables sit in its L0 (flush landing zone). 0
	// means 8.
	CompactAfter int
	// TargetTableBytes is the size at which compaction output tables
	// rotate (split at a partition boundary), keeping deep levels
	// range-partitioned into bounded-size tables. 0 means 2MB.
	TargetTableBytes int64
	// LevelBaseBytes is the byte budget of level 1; each deeper level
	// gets 10x the previous. A level over budget promotes tables into
	// the next one. 0 means 8MB.
	LevelBaseBytes int64
	// Seed drives the memtable skip lists for reproducibility.
	Seed int64
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Shards == 0 {
		out.Shards = DefaultShards
	}
	if out.Shards < 1 {
		out.Shards = 1
	}
	if out.FlushThreshold == 0 {
		out.FlushThreshold = 4 << 20
	}
	if out.CompactAfter == 0 {
		out.CompactAfter = 8
	}
	if out.TargetTableBytes == 0 {
		out.TargetTableBytes = 2 << 20
	}
	if out.LevelBaseBytes == 0 {
		out.LevelBaseBytes = 8 << 20
	}
	if out.BlockCacheBytes == 0 {
		out.BlockCacheBytes = 64 << 20
	}
	return out
}

// Metrics counts the engine's physical work. All fields are cumulative.
type Metrics struct {
	Puts         atomic.Int64
	Gets         atomic.Int64
	Scans        atomic.Int64
	Deletes      atomic.Int64
	Flushes      atomic.Int64
	FlushedBytes atomic.Int64
	Compactions  atomic.Int64
	// CompactionBytesIn/Out measure write amplification: bytes of table
	// input consumed and table output produced by merges (leveled, major
	// and purge alike). Out/FlushedBytes approximates the write-amp
	// factor the leveled policy is bounding.
	CompactionBytesIn  atomic.Int64
	CompactionBytesOut atomic.Int64
	RangePurges        atomic.Int64
	TombstonesGCed     atomic.Int64
	BloomSkips         atomic.Int64
	SSTablesTouched    atomic.Int64
	// DirectoryCounts counts the CountTypes calls a lone table's
	// directory answered without reading a data block.
	DirectoryCounts atomic.Int64
	// BlockBytesLogical/Stored accumulate the uncompressed payload vs
	// on-disk size of every data block written by flush and compaction —
	// Stored/Logical is the engine's cumulative compression ratio.
	BlockBytesLogical atomic.Int64
	BlockBytesStored  atomic.Int64
}

var errClosed = errors.New("storage: engine closed")

// Engine is a single-node wide-column store, striped into shards.
type Engine struct {
	opts   Options
	shards []*shard
	bcache *sstable.BlockCache // nil when disabled
	wg     sync.WaitGroup
	closed atomic.Bool

	Metrics Metrics

	// seq is the version counter: every accepted write stamps
	// (seq+1, NodeID), and any incoming pre-versioned write (a forwarded
	// or streamed copy, a read-repair) pulls it forward to at least that
	// sequence, hybrid-logical-clock style — so a local write accepted
	// after a remote copy arrives always orders after it. Restored on
	// open from the WAL and SSTable max sequences.
	seq atomic.Uint64

	// idxMu/partIdx are the engine-wide cached partition index shared by
	// every token-range operation; per-shard partGen counters invalidate
	// it (see partitionIndex in range.go).
	idxMu   sync.Mutex
	partIdx atomic.Pointer[partIndex]

	// fences are the active anti-GC migration fences (see fence.go):
	// token ranges whose tombstones compaction must keep because stale
	// copies may still stream in behind them. fenceGen counts fence
	// openings so an in-flight merge that predates a fence is detected
	// and redone.
	fenceMu  sync.Mutex
	fences   map[uint64]fenceRange
	fenceSeq uint64
	fenceGen atomic.Uint64

	// Test hooks, nil in production. Set the gate before any engine
	// activity: the first mutex handoff to the workers publishes it.
	// Tests set and clear the error hook while the worker runs, so it
	// is an atomic pointer (one load per flush or compaction, off the
	// request path).
	testFlushGate chan struct{}                                         // worker blocks here before a job writes a table
	testFlushErr  atomic.Pointer[func(shardID int, kind jobKind) error] // injected failure of a job's table write
}

// Open creates or reopens an engine in opts.Dir, replaying any per-shard
// WAL segments left by a previous process.
func Open(opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("storage: Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := rejectLegacyLayout(opts.Dir); err != nil {
		return nil, err
	}
	// A crash between SSTable write and rename leaves an orphaned .tmp
	// that nothing would ever load or reuse; sweep them here (one engine
	// process per dir is already assumed everywhere).
	tmps, _ := filepath.Glob(filepath.Join(opts.Dir, "sst-*.db.tmp"))
	for _, tmp := range tmps {
		os.Remove(tmp)
	}
	nshards, err := loadOrInitShardCount(opts.Dir, opts.Shards)
	if err != nil {
		return nil, err
	}
	opts.Shards = nshards

	e := &Engine{opts: opts}
	if opts.BlockCacheBytes > 0 {
		e.bcache = sstable.NewBlockCache(opts.BlockCacheBytes)
	}
	for i := 0; i < nshards; i++ {
		s, err := e.openShard(i)
		if err != nil {
			e.abortOpen()
			return nil, err
		}
		e.shards = append(e.shards, s)
	}
	for _, s := range e.shards {
		// Recovered memtables sit frozen in the queue; the worker starts
		// flushing them immediately, off the Open path.
		e.wg.Add(1)
		go s.worker()
	}
	return e, nil
}

// abortOpen releases the shards opened so far when Open fails midway.
func (e *Engine) abortOpen() {
	for _, s := range e.shards {
		if v := s.view.Load(); v != nil {
			v.close() // drop the publisher's reference and its table pins
		}
		for _, t := range s.allTablesLocked() {
			t.release()
		}
	}
}

// rejectLegacyLayout fails loudly on a data directory written by the
// pre-sharding engine (sst-NNNNNN.db / wal.log). Those files mix
// partitions of every shard, so silently ignoring them would present
// an empty store; opening them correctly needs a re-ingest.
func rejectLegacyLayout(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
		return fmt.Errorf("storage: %s holds a pre-sharding wal.log; re-ingest the data with this version", dir)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "sst-*.db"))
	for _, name := range names {
		if !strings.HasPrefix(filepath.Base(name), "sst-s") {
			return fmt.Errorf("storage: %s holds pre-sharding table %s; re-ingest the data with this version", dir, filepath.Base(name))
		}
	}
	return nil
}

// manifestFormat is the on-disk format generation recorded in the
// SHARDS manifest: "v4" marks a directory with per-shard level
// manifests, block-based tables whose partition directory counts live
// cells by type, and versioned WAL records — the only generation this
// engine reads or writes.
const manifestFormat = "v4"

// maxShards bounds the shard count. Each shard opens with a worker, a
// memtable and a scan of the directory, so a SHARDS file claiming more
// is damage, not a layout to open.
const maxShards = 1 << 10

// loadOrInitShardCount reads the SHARDS manifest — "<count> <format>" —
// writing it with want on first open. The persisted count wins on
// reopen: partition keys were hashed to files with it. A count above
// maxShards is corrupt. Any other format field — "v3", "v2" or none
// from an older engine, something newer from a later one — fails
// loudly: this engine would misread the files (for older data see
// "Migrating older data" in docs/sstable-format.md).
func loadOrInitShardCount(dir string, want int) (int, error) {
	path := filepath.Join(dir, "SHARDS")
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if want > maxShards {
			return 0, fmt.Errorf("storage: %d shards, at most %d", want, maxShards)
		}
		if err := os.WriteFile(path, []byte(fmt.Sprintf("%d %s\n", want, manifestFormat)), 0o644); err != nil {
			return 0, err
		}
		return want, nil
	}
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0, fmt.Errorf("storage: corrupt shard manifest %s: %q", path, b)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 1 || n > maxShards {
		return 0, fmt.Errorf("storage: corrupt shard manifest %s: %q", path, b)
	}
	format := ""
	if len(fields) > 1 {
		format = fields[1]
	}
	if format != manifestFormat {
		return 0, fmt.Errorf("storage: %s was written with format %q; this engine supports %q", path, format, manifestFormat)
	}
	return n, nil
}

// shardFor routes a partition key to its stripe.
func (e *Engine) shardFor(pk string) *shard {
	return e.shards[e.shardIndex(pk)]
}

func (e *Engine) shardIndex(pk string) int {
	if len(e.shards) == 1 {
		return 0
	}
	return int(murmur.StringSum64(pk) % uint64(len(e.shards)))
}

// BlockCacheStats snapshots the shared block cache's counters; all-zero
// when the cache is disabled.
func (e *Engine) BlockCacheStats() sstable.CacheStats {
	if e.bcache == nil {
		return sstable.CacheStats{}
	}
	return e.bcache.Stats()
}

// openTable opens an SSTable reader attached to the engine's shared
// block cache — the one open path every shard uses, so no table escapes
// the cache budget.
func (e *Engine) openTable(path string) (*sstable.Reader, error) {
	r, err := sstable.Open(path)
	if err != nil {
		return nil, err
	}
	r.AttachCache(e.bcache)
	return r, nil
}

// stamp assigns the next local version — the engine is the "accepting
// node" of the write.
func (e *Engine) stamp() row.Version {
	return row.Version{Seq: e.seq.Add(1), Node: e.opts.NodeID}
}

// advanceSeq pulls the version counter forward to at least seq, so a
// local write accepted after an incoming pre-versioned copy (forwarded,
// streamed, repaired) always stamps a higher sequence.
func (e *Engine) advanceSeq(seq uint64) {
	for {
		cur := e.seq.Load()
		if cur >= seq || e.seq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Put stores value under (pk, ck), stamped with a fresh local version.
// It returns once the write is in the shard's WAL segment and active
// memtable; flushing to SSTable happens in the background and is never
// waited on.
func (e *Engine) Put(pk string, ck, value []byte) error {
	e.Metrics.Puts.Add(1)
	return e.write(pk, ck, value, e.stamp(), false)
}

// Delete removes (pk, ck) by writing a tombstone: a versioned cell that
// masks every older copy of the address — in the active memtable, in
// frozen memtables awaiting flush, and in SSTables — until compaction
// collects it under the shard's GC watermark. A delete is a first-class
// durable write: it is WAL-logged, survives flush, compaction and
// reopen, and replicates like a put.
func (e *Engine) Delete(pk string, ck []byte) error {
	e.Metrics.Deletes.Add(1)
	return e.write(pk, ck, nil, e.stamp(), true)
}

// write is the shared single-cell write path behind Put and Delete.
func (e *Engine) write(pk string, ck, value []byte, ver row.Version, tombstone bool) error {
	s := e.shardFor(pk)
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return errClosed
	}
	if err := s.checkBacklogLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if err := s.ensureWALLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.wal != nil {
		if err := s.wal.append(pk, ck, value, ver, tombstone); err != nil {
			s.mu.Unlock()
			return err
		}
		if e.opts.Sync == SyncAlways {
			if err := s.wal.sync(); err != nil {
				s.mu.Unlock()
				return err
			}
		}
	}
	if s.mem.Put(pk, ck, value, ver, tombstone) {
		s.partGen.Add(1) // new cell address: the partition set may have grown
	}
	s.freezeIfFullLocked()
	s.mu.Unlock()
	return nil
}

// maxFrozenBacklog bounds the frozen-memtable queue when the flusher is
// failing: past this depth writes start reporting the background error
// instead of growing memory without bound. A healthy flusher is never
// this far behind; a failing one (disk full, permissions) must push
// back on writers — with DisableWAL there is no other signal at all.
const maxFrozenBacklog = 8

// checkBacklogLocked applies that backpressure. Caller holds mu.
func (s *shard) checkBacklogLocked() error {
	if s.flushErr != nil && len(s.frozen) >= maxFrozenBacklog {
		s.cond.Broadcast() // nudge the parked worker into another retry
		return fmt.Errorf("storage: %d memtables queued behind failing flush: %w", len(s.frozen), s.flushErr)
	}
	return nil
}

// PutBatch stores every entry with one lock acquisition and one WAL
// write per involved shard — the group commit behind the cluster's
// batched bulk-write path. Amortizing the per-operation lock and
// commit-log costs over the batch is what lets ingest throughput track
// the hardware instead of the per-call overhead. On error the batch
// stops at the failing entry of the failing shard; entries already
// appended stay applied (same semantics as a partially completed
// sequence of Puts).
//
// Versioning: entries with a zero Ver are fresh writes and are stamped
// in place with this engine's next versions (callers — the cluster's
// write handlers — read the stamps back to forward them); entries that
// already carry a version (forwarded, streamed or repaired copies) keep
// it, and the engine's counter is pulled forward past it so later local
// writes still win last-write-wins. Tombstone entries are applied like
// puts.
func (e *Engine) PutBatch(entries []row.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	e.Metrics.Puts.Add(int64(len(entries)))
	var maxIncoming uint64
	for i := range entries {
		if entries[i].Ver.IsZero() {
			entries[i].Ver = e.stamp()
		} else if entries[i].Ver.Seq > maxIncoming {
			maxIncoming = entries[i].Ver.Seq
		}
	}
	if maxIncoming > 0 {
		e.advanceSeq(maxIncoming)
	}
	// Single-entry batches are the wire put path (the node applies
	// through PutBatch to read the stamp back for forwarding); skip the
	// bucketing machinery for them.
	if len(entries) == 1 {
		return e.shardFor(entries[0].PK).putBatch(entries)
	}
	if len(e.shards) == 1 {
		return e.shards[0].putBatch(entries)
	}
	buckets := make([][]row.Entry, len(e.shards))
	for _, ent := range entries {
		i := e.shardIndex(ent.PK)
		buckets[i] = append(buckets[i], ent)
	}
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		if err := e.shards[i].putBatch(b); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the live value for (pk, ck): the highest-versioned cell
// across the active memtable, frozen memtables and SSTables, masked by
// tombstones. Sources whose maximum version cannot beat the best cell
// found so far are skipped, so the common case — the newest copy is in
// the active memtable — touches nothing else.
func (e *Engine) Get(pk string, ck []byte) ([]byte, bool, error) {
	cell, found, err := e.GetVersioned(pk, ck)
	if err != nil || !found || cell.Tombstone {
		return nil, false, err
	}
	return cell.Value, true, nil
}

// GetVersioned returns the winning cell for (pk, ck) with its version
// and tombstone flag — found=true with Tombstone set means the address
// is deleted (Get reports it as absent). The cluster's read path uses
// the version for read-repair.
func (e *Engine) GetVersioned(pk string, ck []byte) (row.Cell, bool, error) {
	e.Metrics.Gets.Add(1)
	view := e.shardFor(pk).snapshot()
	defer view.close()

	var best row.Cell
	found := false
	// Newest sources first; a later (older) source only replaces the
	// best cell on a strictly higher version, so exact ties keep the
	// newer source's copy — the same tie-break as mergeCursor.
	if v, ver, tomb, ok := view.mem.Get(pk, ck); ok {
		best = row.Cell{CK: ck, Value: v, Ver: ver, Tombstone: tomb}
		found = true
	}
	for i := len(view.frozen) - 1; i >= 0; i-- {
		fm := view.frozen[i].mem
		if found && !best.Ver.Less(fm.MaxVersion()) {
			continue // nothing in this memtable can beat the best cell
		}
		if v, ver, tomb, ok := fm.Get(pk, ck); ok && (!found || best.Ver.Less(ver)) {
			best = row.Cell{CK: ck, Value: v, Ver: ver, Tombstone: tomb}
			found = true
		}
	}
	for i := len(view.tables) - 1; i >= 0; i-- {
		t := view.tables[i]
		if found && t.MaxSeq() < best.Ver.Seq {
			continue // every cell in this table loses to the best cell
		}
		if !t.MayContain(pk) {
			e.Metrics.BloomSkips.Add(1)
			continue
		}
		e.Metrics.SSTablesTouched.Add(1)
		cell, ok, err := t.Get(pk, ck)
		if err == sstable.ErrNotFound {
			continue
		}
		if err != nil {
			return row.Cell{}, false, err
		}
		if ok && (!found || best.Ver.Less(cell.Ver)) {
			best = cell
			found = true
		}
	}
	return best, found, nil
}

// ScanPartition returns the live merged cells of a partition with
// from <= CK < to, the highest version winning and tombstones masking
// what they shadow. Nil bounds mean unbounded. The cells are the
// caller's to keep.
func (e *Engine) ScanPartition(pk string, from, to []byte) ([]row.Cell, error) {
	e.Metrics.Scans.Add(1)
	return e.collectPartition(pk, from, to, false)
}

// visitRaw streams the merged cells of a whole partition through fn,
// tombstones included: visitPartition under a snapshot of the
// partition's shard.
func (e *Engine) visitRaw(pk string, fn func(ck, value []byte, ver row.Version, tombstone bool) bool) error {
	view := e.shardFor(pk).snapshot()
	defer view.close()
	return e.visitPartition(view, pk, nil, nil, fn)
}

// CountPartition returns the number of live cells in a partition.
func (e *Engine) CountPartition(pk string) (int, error) {
	var tc row.TypeCounts
	err := e.CountTypes(pk, &tc)
	return int(tc.Live()), err
}

// CountTypes adds the live cells of a partition to tc by type
// (row.TypeOf) — the paper's "count by type" query. When a single table
// is the partition's only source, the answer is that table's directory
// histogram and no data block is read (Metrics.DirectoryCounts counts
// these); otherwise the sources are merged and every live cell tallied,
// as AggregatePartition would.
func (e *Engine) CountTypes(pk string, tc *row.TypeCounts) error {
	e.Metrics.Scans.Add(1)
	view := e.shardFor(pk).snapshot()
	defer view.close()
	mc, err := e.gatherSources(view, pk, nil, nil)
	if err != nil {
		return err
	}
	defer mc.close()
	if t := mc.loneTable(); t != nil {
		e.Metrics.DirectoryCounts.Add(1)
		t.TypeCounts(tc)
		return nil
	}
	if err := mc.start(); err != nil {
		return err
	}
	for mc.Next() {
		if _, value, _, tomb := mc.Cell(); !tomb {
			tc.Add(row.TypeOf(value), 1)
		}
	}
	return mc.Err()
}

// AggregatePartition streams every live cell of a partition through fn
// in clustering order, always through the merge: the cursor walk that
// CountTypes falls back to, for callers that must see each cell.
// Nothing is copied on the way: ck and value are valid only during the
// call, and point into memory other readers share, so fn reads them and
// copies what it keeps.
func (e *Engine) AggregatePartition(pk string, fn func(ck, value []byte)) error {
	e.Metrics.Scans.Add(1)
	return e.visitRaw(pk, func(ck, value []byte, _ row.Version, tombstone bool) bool {
		if !tombstone {
			fn(ck, value)
		}
		return true
	})
}

// Partitions returns the distinct partition keys across every shard's
// memtables and SSTables, sorted ascending.
func (e *Engine) Partitions() ([]string, error) {
	idx, err := e.partitionIndex()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(idx.parts))
	for i, p := range idx.parts {
		out[i] = p.pk
	}
	sort.Strings(out)
	return out, nil
}

// Flush freezes every shard's active memtable and waits until every
// memtable queued then — frozen by this call or earlier — is in a
// level-0 table and its WAL segments are removed. It does not wait for
// the leveled compactions those tables trigger (WaitIdle does), and it
// reports only the failure of one of those flushes, or errClosed. All
// shards are frozen before any is waited on, so their workers flush in
// parallel. A no-op for empty memtables.
func (e *Engine) Flush() error {
	for _, s := range e.shards {
		s.mu.Lock()
		if !s.closing {
			s.freezeLocked()
		}
		s.mu.Unlock()
	}
	_, err := e.await(jobFlush, 0, 0)
	return err
}

// Compact merges every shard's whole level tree into a single sorted run
// (one table, or several range-partitioned ones past TargetTableBytes)
// at the deepest level, dropping shadowed cell versions and collectable
// tombstones. It runs one shard at a time, waiting until the shard's run
// is installed and its inputs retired before the next starts, and stops
// at the first failure of a merge or of a flush queued ahead of one, or
// at errClosed.
func (e *Engine) Compact() error {
	_, err := e.await(jobMajor, 0, 0)
	return err
}

// await is the one path of a foreground request: shard by shard, it
// queues the request (enqueueLocked) and waits on the ticket the worker
// settles before it moves on, so a purge or major compaction holds one
// shard's inputs and outputs on disk at a time. It returns the sum of
// the tickets' counts and stops at the first error.
func (e *Engine) await(kind jobKind, lo, hi int64) (int64, error) {
	var n int64
	for _, s := range e.shards {
		s.mu.Lock()
		t := s.enqueueLocked(kind, lo, hi)
		s.cond.Broadcast() // also wakes a worker parked after a failure, to retry
		for !t.done {
			s.cond.Wait()
		}
		s.mu.Unlock()
		if n += t.n; t.err != nil {
			return n, t.err
		}
	}
	return n, nil
}

// WaitIdle blocks until no shard has a frozen memtable, a request or
// leveled maintenance queued or running. Unlike Flush it freezes
// nothing, so it observes the engine's autonomous behaviour — tests and
// measurements use it to settle the engine. It returns early with a
// shard's background error — the failure of its last flush, leveled
// compaction or relink, until a later job succeeds — or errClosed.
func (e *Engine) WaitIdle() error {
	for _, s := range e.shards {
		s.mu.Lock()
		err := s.waitDrainedLocked()
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// NumSSTables returns the current count of sorted runs across shards.
func (e *Engine) NumSSTables() int {
	n := 0
	for _, s := range e.shards {
		s.mu.RLock()
		n += s.totalTablesLocked()
		s.mu.RUnlock()
	}
	return n
}

// MemtableBytes returns the unflushed payload size: active memtables
// plus frozen memtables still queued for flush.
func (e *Engine) MemtableBytes() int64 {
	var n int64
	for _, s := range e.shards {
		s.mu.RLock()
		n += s.mem.Bytes()
		for _, fm := range s.frozen {
			n += fm.mem.Bytes()
		}
		s.mu.RUnlock()
	}
	return n
}

// Close drains every shard's queued work and releases every resource. A
// Flush, Compact or DeleteRange still waiting gets errClosed. The engine
// is unusable afterwards; a second Close is a no-op.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	for _, s := range e.shards {
		s.mu.Lock()
		s.freezeLocked()
		s.closing = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	e.wg.Wait()
	var firstErr error
	for _, s := range e.shards {
		s.mu.Lock()
		if s.flushErr != nil && firstErr == nil {
			firstErr = s.flushErr
		}
		s.failQueuedLocked(errClosed)
		// Publish an empty view first so late readers pin nothing: a read
		// racing Close sees a clean miss instead of a released table.
		s.mem = e.newMemtable(s.id, s.memGen+1)
		s.frozen = nil
		saved := s.allTablesLocked()
		s.levels = nil
		s.publishLocked()
		for _, t := range saved {
			if err := t.release(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if s.wal != nil {
			if err := s.wal.sync(); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := s.wal.close(); err != nil && firstErr == nil {
				firstErr = err
			}
			s.wal = nil
		}
		s.mu.Unlock()
	}
	return firstErr
}
