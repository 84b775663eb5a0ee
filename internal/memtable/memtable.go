// Package memtable implements the in-memory, mutable head of the storage
// engine: a skip list of internal keys. Writes land here first; when the
// payload size crosses the engine's flush threshold the memtable is
// frozen (Freeze marks it immutable) and handed to a background flusher
// that writes it out as an SSTable while readers keep merging it.
//
// Concurrency follows the skip list's single-writer discipline: Put and
// Freeze must be externally serialized (the storage engine holds the
// shard write lock around them), but Get, Slice and Scan (and the Cursor
// they position), ScanPartition and Partitions are lock-free — they
// ride the skip list's atomically published links, so the engine's
// point-read fast path acquires no locks at all. MinVersion must be called under the same serialization
// as Put; MaxVersion is safe once the memtable is frozen and published
// (the engine reads it only on frozen memtables reached through an
// atomically published snapshot).
//
// Cells are versioned: Put resolves a clustering-key collision by
// last-write-wins on the cell version, not by arrival order, so a stale
// copy (a rebalance stream page landing after the dual-write forward of
// a newer overwrite, a read-repair of an old value) can never clobber a
// newer one. Tombstones are stored like any other cell — a delete is a
// versioned write that masks older copies in frozen memtables and
// SSTables until compaction collects it.
//
// Every memtable carries a bloom.Filter over the internal keys and the
// partition keys it holds (RocksDB's memtable bloom filter; the same
// filter every SSTable stores), so a read of a key the memtable lacks —
// the common case once data has been flushed — costs one hash and one
// atomic load instead of a walk down the skip list. The single writer
// adds a key's bits before it links the key's cell, and cells are never
// removed, so a reader that can see a cell can see its bits.
package memtable

import (
	"bytes"
	"encoding/binary"
	"sync"

	"scalekv/internal/bloom"
	"scalekv/internal/enc"
	"scalekv/internal/row"
	"scalekv/internal/skiplist"
)

// The key filter is sized from the flush threshold: one bit per 8
// payload bytes, 64KB of filter for the default 4MB memtable.
const (
	filterBytesPerBit = 8
	minFilterWords    = 64      // 512 bytes
	maxFilterWords    = 1 << 17 // 1MB: a larger memtable saturates gracefully
)

func newKeyFilter(flushBytes int64) *bloom.Filter {
	bits := min(max((flushBytes+filterBytesPerBit-1)/filterBytesPerBit, minFilterWords*64), maxFilterWords*64)
	return bloom.New(int(bits))
}

// Stored value layout: fixed-width header (8-byte seq | 2-byte node |
// flags), then the payload. The layout is private to this package and
// never persisted (WAL and SSTables have their own formats), so it is
// chosen purely for decode speed: the header is read back on every
// point-read hit and every overwrite, and two fixed loads beat two
// varint loops there for ~6 bytes per cell of memory.
const (
	flagTombstone = byte(1)
	headerLen     = 11
)

func encodeValue(ver row.Version, tombstone bool, value []byte) []byte {
	out := make([]byte, headerLen, headerLen+len(value))
	binary.LittleEndian.PutUint64(out, ver.Seq)
	binary.LittleEndian.PutUint16(out[8:], ver.Node)
	if tombstone {
		out[10] = flagTombstone
	}
	return append(out, value...)
}

// decodeValue splits a stored value. The encoding is written only by
// Put, so corruption is impossible; the length check guards programmer
// error loudly.
func decodeValue(stored []byte) (ver row.Version, tombstone bool, value []byte) {
	if len(stored) < headerLen {
		panic("memtable: corrupt stored value")
	}
	ver = row.Version{
		Seq:  binary.LittleEndian.Uint64(stored),
		Node: binary.LittleEndian.Uint16(stored[8:]),
	}
	return ver, stored[10]&flagTombstone != 0, stored[headerLen:]
}

// Memtable is a sorted map from (partition key, clustering key) to a
// versioned cell: single writer, lock-free readers.
type Memtable struct {
	list   *skiplist.List
	filter *bloom.Filter

	// mu guards the writer-side bookkeeping below. Writers are already
	// externally serialized; the mutex exists for direct users of the
	// package (tests) and to keep Freeze/Frozen well-defined on their
	// own. It is never taken on the read path.
	mu     sync.Mutex
	frozen bool
	// minVer/maxVer bound the versions stored (over every Put accepted,
	// including ones later overwritten — a conservative envelope). The
	// engine uses maxVer to keep the point-read fast path (an active-
	// memtable hit newer than every flushed version needs no SSTable
	// merge) and minVer as the tombstone GC watermark input.
	minVer, maxVer row.Version
	hasVer         bool
	// lastPK is the partition key of the previous Put, already in the
	// filter: a batch of cells of one partition hashes it once.
	lastPK    string
	hasLastPK bool
}

// New creates an empty memtable that will be frozen at about flushBytes
// of payload, which sizes its key filter; the seed drives skip-list
// tower heights so tests are reproducible.
func New(seed, flushBytes int64) *Memtable {
	return &Memtable{list: skiplist.New(seed), filter: newKeyFilter(flushBytes)}
}

// Put stores a cell under (pk, ck) if its version is not older than the
// version already stored — last write wins, decided by version. Ties go
// to the incoming cell (a re-put of the same write is idempotent). The
// ck and value slices are copied. Put panics on a frozen memtable: a
// write landing after the freeze would be silently dropped when the
// frozen table is retired, so the invariant violation must be loud.
// It reports whether a new cell address was created (false for an
// overwrite or a rejected stale copy) — the engine's partition index
// invalidation rides on it.
func (m *Memtable) Put(pk string, ck, value []byte, ver row.Version, tombstone bool) bool {
	ik := enc.EncodeInternalKey(pk, ck)
	v := encodeValue(ver, tombstone, value)
	m.mu.Lock()
	if m.frozen {
		m.mu.Unlock()
		panic("memtable: Put on frozen memtable")
	}
	// The filter learns the keys before the skip list links the cell.
	m.filter.Add(ik)
	if !m.hasLastPK || pk != m.lastPK {
		m.filter.AddString(pk)
		m.lastPK, m.hasLastPK = pk, true
	}
	if !m.hasVer {
		m.minVer, m.maxVer, m.hasVer = ver, ver, true
	} else {
		if ver.Less(m.minVer) {
			m.minVer = ver
		}
		if m.maxVer.Less(ver) {
			m.maxVer = ver
		}
	}
	inserted := m.list.Update(ik, func(old []byte, exists bool) ([]byte, bool) {
		if exists {
			if oldVer, _, _ := decodeValue(old); ver.Less(oldVer) {
				return nil, false // stale copy: the stored cell is newer
			}
		}
		return v, true
	})
	m.mu.Unlock()
	return inserted
}

// Get returns the cell stored for (pk, ck) — value, version and
// tombstone flag. A tombstone is returned like any other cell (ok=true);
// masking it from reads is the engine's merge's job, which needs the
// version to decide whether the tombstone wins. Lock-free and
// allocation-free: the composite key is built once in a stack buffer
// (keys longer than it fall back to the heap) so every skiplist probe
// is one vectorized byte comparison — and a key the filter rules out
// never reaches the skip list at all.
func (m *Memtable) Get(pk string, ck []byte) (value []byte, ver row.Version, tombstone, ok bool) {
	var buf [128]byte
	ik := enc.AppendInternalKey(buf[:0], pk, ck)
	if !m.filter.MayContain(ik) {
		return nil, row.Version{}, false, false
	}
	stored, ok := m.list.Get(ik)
	if !ok {
		return nil, row.Version{}, false, false
	}
	ver, tombstone, value = decodeValue(stored)
	return value, ver, tombstone, true
}

// Freeze marks the memtable immutable. The storage engine freezes a
// memtable when handing it to a background flusher: readers keep
// merging it until the SSTable is live, but any further write is a bug.
func (m *Memtable) Freeze() {
	m.mu.Lock()
	m.frozen = true
	m.mu.Unlock()
}

// Frozen reports whether Freeze has been called.
func (m *Memtable) Frozen() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frozen
}

// MaxVersion returns the highest version any accepted Put carried (zero
// if none). Lock-free: call it either under the writer's serialization
// or on a frozen memtable reached through a published snapshot — the
// engine's read path does the latter.
func (m *Memtable) MaxVersion() row.Version {
	return m.maxVer
}

// MinVersion returns the lowest version any accepted Put carried and
// whether one exists — the shard's tombstone GC watermark reads it,
// under the same shard lock that serializes Put.
func (m *Memtable) MinVersion() (row.Version, bool) {
	return m.minVer, m.hasVer
}

// Cursor streams one partition slice of a memtable in clustering order,
// or the whole memtable in internal-key order, tombstones included. The
// cells it yields are views into the skip list: keys are immutable after
// insert and an overwrite swaps the value pointer instead of writing
// through it, so a view stays intact for as long as the caller holds it.
// The zero value is ready for Slice or Scan, and a reused Cursor builds
// its bounds without allocating.
type Cursor struct {
	it      skiplist.Iterator
	bounds  enc.Bounds
	started bool
	scan    bool // positioned by Scan: no end bound, whole keys
}

// Slice points c before the first cell of pk with from <= CK < to; nil
// bounds mean unbounded. Lock-free, like every memtable read: a cursor
// racing the writer sees each concurrently inserted cell either fully
// or not at all. It reports false when the filter rules the partition
// out; the cursor is then empty and the skip list was not touched.
func (m *Memtable) Slice(c *Cursor, pk string, from, to []byte) bool {
	c.started, c.scan = false, false
	if !m.filter.MayContainString(pk) {
		c.it = skiplist.Iterator{}
		return false
	}
	c.bounds.Set(pk, from, to)
	c.it = m.list.Seek(c.bounds.Start())
	return true
}

// Scan points c before the memtable's first cell, for one pass over
// every cell in internal-key order: the flush's source, the twin of
// sstable.Reader.Scan. Its Cell returns the whole internal key where a
// slice returns the clustering key, so the caller splits partitions
// where the key's partition prefix changes.
func (m *Memtable) Scan(c *Cursor) {
	c.started, c.scan = false, true
	c.it = m.list.First()
}

// Next steps to the following cell and reports whether there is one.
func (c *Cursor) Next() bool {
	if c.started {
		c.it.Next()
	}
	c.started = true
	return c.it.Valid() && (c.scan || bytes.Compare(c.it.Key(), c.bounds.End()) < 0)
}

// Cell returns the current cell — its clustering key, or its whole
// internal key under Scan; call it only after Next reported true.
func (c *Cursor) Cell() (key, value []byte, ver row.Version, tombstone bool) {
	ver, tombstone, value = decodeValue(c.it.Value())
	if key = c.it.Key(); !c.scan {
		key = key[len(c.bounds.Prefix()):]
	}
	return key, value, ver, tombstone
}

// Release drops the cursor's hold on the memtable, keeping only its
// bounds buffer for the next Slice.
func (c *Cursor) Release() { c.it = skiplist.Iterator{} }

// ScanPartition returns every cell of the partition with from <= CK < to,
// in clustering order — tombstones included (the engine's merge masks
// them against older sources before serving). The cells alias the skip
// list, see Cursor.
func (m *Memtable) ScanPartition(pk string, from, to []byte) []row.Cell {
	var c Cursor
	var cells []row.Cell
	for m.Slice(&c, pk, from, to); c.Next(); {
		ck, value, ver, tomb := c.Cell()
		cells = append(cells, row.Cell{CK: ck, Value: value, Ver: ver, Tombstone: tomb})
	}
	return cells
}

// Len returns the number of cells stored (tombstones included).
func (m *Memtable) Len() int {
	return m.list.Len()
}

// Bytes returns the approximate payload size.
func (m *Memtable) Bytes() int64 {
	return m.list.Bytes()
}

// Partitions returns the distinct partition keys present, in key order.
// A key is decoded only where the partition prefix changes, so it costs
// one allocation per partition, not per cell.
func (m *Memtable) Partitions() []string {
	var out []string
	var prefix []byte // the current partition's prefix, a view into the list
	for it := m.list.First(); it.Valid(); it.Next() {
		ik := it.Key()
		if prefix != nil && bytes.HasPrefix(ik, prefix) {
			continue
		}
		pk, ck, err := enc.DecodeInternalKey(ik)
		if err != nil {
			continue
		}
		prefix = ik[:len(ik)-len(ck)]
		out = append(out, pk)
	}
	return out
}
