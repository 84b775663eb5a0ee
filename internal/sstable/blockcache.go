package sstable

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// BlockCache is a process-wide, capacity-bounded cache of *decompressed*
// block payloads and lazily-loaded table metadata (block index +
// partition directory), shared by every Reader the storage engine opens.
// It is the RAM tier of the read-path memory hierarchy: compressed
// blocks on flash behind decompressed blocks in memory, the FlashMap
// arrangement.
//
// A cached entry is found through a slot its Reader owns — one per data
// block, allocated with the table's meta, plus one for the meta itself —
// so a hit is one atomic load of that slot: no key, no map, no lock.
// The cache holds the entries, charges their bytes and evicts them;
// evicting an entry clears its slot. Table IDs are unique per Reader
// attachment and only spread a table's entries across shards. When
// compaction retires a table, its entries simply stop being requested
// and age out through normal eviction: no epoch bookkeeping, no explicit
// purge.
//
// Inserts and evictions take one shard mutex, so a burst of misses does
// not serialize on one lock — the contention point "When More Cores
// Hurts" warns about. Eviction is CLOCK (second chance): each shard
// sweeps a hand over its entry ring, clearing reference bits until it
// finds a cold entry, approximating LRU without any per-hit list
// manipulation.
type BlockCache struct {
	shards   [cacheShardCount]blockCacheShard
	perShard int64
	ids      atomic.Uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64
}

// cacheShardCount spreads lock traffic; a power of two so the hash mix
// below distributes entries with a shift and a mask.
const cacheShardCount = 32

// metaOffset is the sentinel block offset that places a table's meta
// entry in a shard; real blocks can never sit at the file's last byte.
const metaOffset = ^uint64(0)

// cacheEntryOverhead approximates the bookkeeping bytes an entry costs
// beyond its payload (slot, ring slot, entry struct), so tiny blocks
// cannot blow the budget through sheer count.
const cacheEntryOverhead = 96

// cacheSlot is where a Reader finds one cached entry; nil when the entry
// is not cached. Only the cache stores into a slot, under the shard
// mutex of the entry it holds.
type cacheSlot = atomic.Pointer[cacheEntry]

type cacheEntry struct {
	slot *cacheSlot // the slot that points here while the entry is cached
	data []byte     // decompressed block payload, nil for meta entries
	meta *tableMeta // decoded table meta, nil for block entries
	size int64      // charged bytes, overhead included
	ref  atomic.Bool
}

type blockCacheShard struct {
	mu    sync.Mutex
	ring  []*cacheEntry // CLOCK ring, order irrelevant
	hand  int
	bytes int64
}

// CacheStats is a point-in-time snapshot of a BlockCache's counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64 // currently cached payload + overhead bytes
}

// NewBlockCache builds a cache bounded at roughly capacity bytes
// (payloads plus per-entry overhead). A capacity too small to hold one
// block still works: entries churn through constantly, which is exactly
// what the eviction-stress tests want.
func NewBlockCache(capacity int64) *BlockCache {
	c := &BlockCache{perShard: capacity / cacheShardCount}
	if c.perShard < 1 {
		c.perShard = 1
	}
	return c
}

// NewTableID issues a fresh, never-reused table identity. Readers take
// one when a cache is attached.
func (c *BlockCache) NewTableID() uint64 { return c.ids.Add(1) }

// Stats snapshots the cache counters.
func (c *BlockCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes.Load(),
	}
}

func (c *BlockCache) shard(table, offset uint64) *blockCacheShard {
	// Mix table and offset so consecutive blocks of one table spread
	// across shards (fibonacci hashing on the xor).
	h := (table ^ offset*0x9E3779B97F4A7C15) * 0x9E3779B97F4A7C15
	return &c.shards[h>>58&(cacheShardCount-1)]
}

// get returns the entry cached in slot, or nil, and counts the hit or
// the miss. The reference bit is written only when it is clear, so a hot
// entry's hits share its cache line without writing to it.
func (c *BlockCache) get(slot *cacheSlot) *cacheEntry {
	e := slot.Load()
	if e == nil {
		c.misses.Add(1)
		return nil
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	c.hits.Add(1)
	return e
}

// putBlock caches a decompressed block payload in slot; table and
// offset pick the shard.
func (c *BlockCache) putBlock(slot *cacheSlot, table, offset uint64, payload []byte) {
	c.put(slot, table, offset, &cacheEntry{
		data: payload,
		size: int64(len(payload)) + cacheEntryOverhead,
	})
}

// putMeta caches a table's decoded metadata under its charged size, so
// open-table index memory lives inside the same budget as data blocks.
func (c *BlockCache) putMeta(slot *cacheSlot, table uint64, m *tableMeta) {
	c.put(slot, table, metaOffset, &cacheEntry{
		meta: m,
		size: m.memSize() + cacheEntryOverhead,
	})
}

func (c *BlockCache) put(slot *cacheSlot, table, offset uint64, e *cacheEntry) {
	if e.size > c.perShard {
		// Larger than a whole shard's budget: caching it would evict
		// everything for one entry's benefit. Serve it uncached.
		return
	}
	e.slot = slot
	s := c.shard(table, offset)
	s.mu.Lock()
	if slot.Load() != nil {
		// A concurrent miss on the same block raced us here; keep the
		// incumbent, the payloads are identical.
		s.mu.Unlock()
		return
	}
	evicted, freed := 0, int64(0)
	for s.bytes+e.size > c.perShard && len(s.ring) > 0 {
		evicted++
		freed += s.evictOneLocked()
	}
	slot.Store(e)
	s.ring = append(s.ring, e)
	s.bytes += e.size
	s.mu.Unlock()
	c.bytes.Add(e.size - freed)
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
}

// evictOneLocked advances the CLOCK hand until it claims one entry,
// clearing reference bits as it passes warm ones, clears the claimed
// entry's slot and returns the freed bytes. Caller holds the shard mutex
// and reconciles c.bytes.
func (s *blockCacheShard) evictOneLocked() int64 {
	for {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		e := s.ring[s.hand]
		if e.ref.Load() {
			e.ref.Store(false)
			s.hand++
			continue
		}
		// Swap-remove keeps the ring compact; CLOCK order is approximate
		// anyway.
		last := len(s.ring) - 1
		s.ring[s.hand] = s.ring[last]
		s.ring[last] = nil
		s.ring = s.ring[:last]
		e.slot.CompareAndSwap(e, nil)
		s.bytes -= e.size
		return e.size
	}
}

// memSize is the resident bytes of a decoded table meta, every byte it
// holds: the meta section it keeps (block first keys and the directory's
// keys and histograms are views into it), the block index and directory
// records, the block slots and the struct itself.
func (m *tableMeta) memSize() int64 {
	return int64(unsafe.Sizeof(*m)) + int64(cap(m.buf)) +
		int64(cap(m.blocks))*int64(unsafe.Sizeof(blockIndexEntry{})) +
		int64(cap(m.parts))*int64(unsafe.Sizeof(partDirEntry{})) +
		int64(cap(m.slots))*int64(unsafe.Sizeof(cacheSlot{}))
}
