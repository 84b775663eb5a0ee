package storage

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"

	"scalekv/internal/murmur"
	"scalekv/internal/row"
)

// This file is the engine's token-range surface: the primitives the
// cluster's elastic rebalancing is built on. ScanRange pages a node's
// share of a token range out for streaming to a new owner; DeleteRange
// retires the data once the handoff is complete; Stats exposes the
// per-shard backlog the coordinator uses to pick streaming sources.

// PartitionToken returns the ring token of a partition key — the same
// murmur token the hashring places the key by, so engine range scans
// and ring ownership diffs agree exactly.
func PartitionToken(pk string) int64 {
	return murmur.Token([]byte(pk))
}

// RangePage is one page of a token-range scan. Entries are grouped by
// partition and ordered by (token, partition key); pages always hold
// whole partitions.
type RangePage struct {
	Entries []row.Entry
	// NextToken/NextPK form the cursor for the next page when More is
	// set: pass them as ScanRange's afterToken/afterPK.
	NextToken int64
	NextPK    string
	More      bool
}

// DefaultRangePageCells bounds a ScanRange page when the caller passes
// maxCells <= 0.
const DefaultRangePageCells = 4096

// rangePK is one partition selected for a range operation.
type rangePK struct {
	token int64
	pk    string
}

// partIndex is the engine's cached token-sorted partition index: every
// partition across every shard, ordered by (token, pk), tagged with the
// per-shard partition generations it was built from. It is immutable
// once published; gens is the invalidation check — if any shard's
// partGen has moved (a write created a new cell address, a purge or
// compaction removed partitions), the index is rebuilt on next use.
// ScanRange, RangeDigest, CountRange and DeleteRange all share it, so
// a repair pass digesting many sub-ranges pays one enumeration total
// instead of one per request.
type partIndex struct {
	gens  []uint64 // shard partGen values loaded before enumeration
	parts []rangePK
}

// fresh reports whether no shard's partition set has changed since the
// index was built.
func (idx *partIndex) fresh(shards []*shard) bool {
	for i, s := range shards {
		if s.partGen.Load() != idx.gens[i] {
			return false
		}
	}
	return true
}

// partitionIndex returns the current partition index, rebuilding it if
// any shard invalidated it. Rebuilds are serialized by idxMu; readers
// that lose the freshness race at worst rebuild once more. The
// generations are loaded BEFORE the shards are enumerated and writers
// bump theirs AFTER publishing the change, so a partition that slips in
// mid-build is either included or flips a generation the stored tags
// no longer match — a stale index never survives its next use. A table
// whose partition directory cannot be read fails the build, and a
// failed build is not cached: an index missing that table's partitions
// would make every range operation silently skip data.
func (e *Engine) partitionIndex() (*partIndex, error) {
	if idx := e.partIdx.Load(); idx != nil && idx.fresh(e.shards) {
		return idx, nil
	}
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	if idx := e.partIdx.Load(); idx != nil && idx.fresh(e.shards) {
		return idx, nil
	}
	gens := make([]uint64, len(e.shards))
	for i, s := range e.shards {
		gens[i] = s.partGen.Load()
	}
	seen := map[string]bool{}
	for _, s := range e.shards {
		view := s.snapshot()
		for _, pk := range view.mem.Partitions() {
			seen[pk] = true
		}
		for _, fm := range view.frozen {
			for _, pk := range fm.mem.Partitions() {
				seen[pk] = true
			}
		}
		for _, t := range view.tables {
			pks, err := t.Partitions()
			if err != nil {
				view.close()
				return nil, fmt.Errorf("storage: partition directory of %s: %w", filepath.Base(t.Path()), err)
			}
			for _, pk := range pks {
				seen[pk] = true
			}
		}
		view.close()
	}
	parts := make([]rangePK, 0, len(seen))
	for pk := range seen {
		parts = append(parts, rangePK{token: PartitionToken(pk), pk: pk})
	}
	sort.Slice(parts, func(a, b int) bool {
		if parts[a].token != parts[b].token {
			return parts[a].token < parts[b].token
		}
		return parts[a].pk < parts[b].pk
	})
	idx := &partIndex{gens: gens, parts: parts}
	e.partIdx.Store(idx)
	return idx, nil
}

// partitionsInRange returns the partitions whose token falls in the
// inclusive [lo, hi], ordered by (token, pk) — a binary-searched
// subslice of the cached index; callers must not mutate it. Wrap-around
// ranges are the caller's concern: ownership diffs split them at the
// int64 boundary, so lo <= hi always holds here.
func (e *Engine) partitionsInRange(lo, hi int64) ([]rangePK, error) {
	idx, err := e.partitionIndex()
	if err != nil {
		return nil, err
	}
	parts := idx.parts
	i := sort.Search(len(parts), func(k int) bool { return parts[k].token >= lo })
	j := sort.Search(len(parts), func(k int) bool { return parts[k].token > hi })
	return parts[i:j], nil
}

// scanPartitions returns the partitions of [lo, hi] strictly after the
// (afterToken, afterPK) cursor, resuming by binary search in the cached
// index. Unlike the per-scan index this replaced, the shared index may
// refresh between pages, so a partition created mid-scan is picked up
// by a later page — harmless for the rebalance streamer (the only paged
// caller): those are exactly the writes the dual-write window already
// forwards, and LWW makes shipping a copy twice idempotent.
func (e *Engine) scanPartitions(lo, hi, afterToken int64, afterPK string) ([]rangePK, error) {
	parts, err := e.partitionsInRange(lo, hi)
	if err != nil || (afterToken == math.MinInt64 && afterPK == "") {
		return parts, err
	}
	at := sort.Search(len(parts), func(i int) bool {
		p := parts[i]
		return p.token > afterToken || (p.token == afterToken && p.pk > afterPK)
	})
	return parts[at:], nil
}

// ScanRange returns one page of the cells whose partition token falls
// in the inclusive token range [lo, hi], in (token, partition key)
// order — the streaming source of a range handoff. The page holds whole
// partitions and at least one partition regardless of maxCells; when
// More is set, resume with the returned cursor. Pass (math.MinInt64, "")
// to start. The scan merges memtables and SSTables exactly like a
// partition read — tombstones included, so a delete propagates to the
// range's new owner and keeps masking older copies there. Pages resume
// by binary search in the engine's cached partition index (see
// scanPartitions); writes landing mid-scan are the dual-write window's
// concern, not the streamer's.
func (e *Engine) ScanRange(lo, hi, afterToken int64, afterPK string, maxCells int) (*RangePage, error) {
	if maxCells <= 0 {
		maxCells = DefaultRangePageCells
	}
	page := &RangePage{}
	selected, err := e.scanPartitions(lo, hi, afterToken, afterPK)
	if err != nil {
		return nil, err
	}
	for i, p := range selected {
		cells, err := e.collectPartition(p.pk, nil, nil, true)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			page.Entries = append(page.Entries, row.Entry{
				PK: p.pk, CK: c.CK, Value: c.Value, Ver: c.Ver, Tombstone: c.Tombstone,
			})
		}
		page.NextToken, page.NextPK = p.token, p.pk
		if len(page.Entries) >= maxCells && i < len(selected)-1 {
			page.More = true
			break
		}
	}
	return page, nil
}

// CountRange returns the number of live cells whose partition token
// falls in [lo, hi] — the verification half of a handoff (source and
// target counts must line up before the source range is retired).
func (e *Engine) CountRange(lo, hi int64) (int64, error) {
	parts, err := e.partitionsInRange(lo, hi)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range parts {
		c, err := e.CountPartition(p.pk)
		if err != nil {
			return 0, err
		}
		n += int64(c)
	}
	return n, nil
}

// DeleteRange removes every partition whose token falls in the
// inclusive [lo, hi] from the engine and returns the number of cells
// dropped. It is the retirement half of a range handoff. Shard by
// shard, it freezes the active memtable and waits until the shard's
// worker has flushed the frozen queue, rewritten the shard's tables
// without the in-range partitions, installed the result and retired its
// inputs. It stops at the first failure of a purge or of a flush queued
// ahead of one, or at errClosed, returning the cells the shards before
// it dropped; a retry purges afresh and counts what it drops. Blocking
// but off the write path — concurrent writes to out-of-range partitions
// proceed; in-range writes racing a purge land in the fresh active
// memtable and survive, so callers must fence writers first (the
// coordinator flips the topology epoch before retiring).
func (e *Engine) DeleteRange(lo, hi int64) (int64, error) {
	return e.await(jobPurge, lo, hi)
}

// LevelStats is one compaction level's footprint within a shard or
// across the engine.
type LevelStats struct {
	Tables int
	Bytes  int64
}

// ShardStats is one shard's load snapshot.
type ShardStats struct {
	Shard           int
	MemtableBytes   int64
	FrozenMemtables int
	FrozenBytes     int64
	SSTables        int
	SSTableBytes    int64
	Levels          []LevelStats // index = level; L0 is the flush zone
}

// EngineStats aggregates the engine's physical state: per-shard write
// backlog plus cumulative background work. The cluster coordinator
// reads it to pick streaming sources; tests read it to verify
// retirement. Levels and the CompactionBytes counters are the
// write-amplification observability surface: Levels shows where the
// compaction debt sits, CompactionBytesOut/FlushedBytes approximates
// the amplification factor.
type EngineStats struct {
	Shards             []ShardStats
	MemtableBytes      int64 // active + frozen payload across shards
	FrozenMemtables    int
	SSTables           int
	SSTableBytes       int64
	Levels             []LevelStats // aggregated across shards, index = level
	FlushedBytes       int64
	Flushes            int64
	Compactions        int64
	CompactionBytesIn  int64
	CompactionBytesOut int64
	RangePurges        int64

	// Read-path memory hierarchy: the shared block cache's counters and
	// the cumulative compressed-vs-logical bytes of every data block
	// flush and compaction wrote. BlockBytesStored/BlockBytesLogical is
	// the on-disk compression ratio.
	BlockCacheHits      int64
	BlockCacheMisses    int64
	BlockCacheEvictions int64
	BlockCacheBytes     int64
	BlockBytesLogical   int64
	BlockBytesStored    int64
}

// Stats snapshots the engine's per-shard state and cumulative counters.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		FlushedBytes:       e.Metrics.FlushedBytes.Load(),
		Flushes:            e.Metrics.Flushes.Load(),
		Compactions:        e.Metrics.Compactions.Load(),
		CompactionBytesIn:  e.Metrics.CompactionBytesIn.Load(),
		CompactionBytesOut: e.Metrics.CompactionBytesOut.Load(),
		RangePurges:        e.Metrics.RangePurges.Load(),
		BlockBytesLogical:  e.Metrics.BlockBytesLogical.Load(),
		BlockBytesStored:   e.Metrics.BlockBytesStored.Load(),
	}
	cs := e.BlockCacheStats()
	st.BlockCacheHits = cs.Hits
	st.BlockCacheMisses = cs.Misses
	st.BlockCacheEvictions = cs.Evictions
	st.BlockCacheBytes = cs.Bytes
	for _, s := range e.shards {
		s.mu.RLock()
		sh := ShardStats{
			Shard:           s.id,
			MemtableBytes:   s.mem.Bytes(),
			FrozenMemtables: len(s.frozen),
		}
		for _, fm := range s.frozen {
			sh.FrozenBytes += fm.mem.Bytes()
		}
		for _, tables := range s.levels {
			ls := LevelStats{Tables: len(tables), Bytes: levelBytes(tables)}
			sh.Levels = append(sh.Levels, ls)
			sh.SSTables += ls.Tables
			sh.SSTableBytes += ls.Bytes
		}
		s.mu.RUnlock()
		st.Shards = append(st.Shards, sh)
		st.MemtableBytes += sh.MemtableBytes + sh.FrozenBytes
		st.FrozenMemtables += sh.FrozenMemtables
		st.SSTables += sh.SSTables
		st.SSTableBytes += sh.SSTableBytes
		for level, ls := range sh.Levels {
			for len(st.Levels) <= level {
				st.Levels = append(st.Levels, LevelStats{})
			}
			st.Levels[level].Tables += ls.Tables
			st.Levels[level].Bytes += ls.Bytes
		}
	}
	return st
}
