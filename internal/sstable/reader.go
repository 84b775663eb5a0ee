package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"scalekv/internal/bloom"
	"scalekv/internal/enc"
	"scalekv/internal/row"
)

// ReadStats counts the physical work a Reader has done; the Figure 6
// harness, the block-index tests and the O(1)-point-read pin use it to
// verify that reads really touch only what they must.
type ReadStats struct {
	PartitionsRead atomic.Int64
	BytesRead      atomic.Int64
	ReadAtCalls    atomic.Int64 // physical ReadAt issues since Open
	IndexedReads   atomic.Int64 // reads that seeked via the block index
	SeeksSaved     atomic.Int64 // bytes skipped thanks to that index
}

// Reader serves point and range reads from one SSTable file. It is safe
// for concurrent use: all reads go through ReadAt.
type Reader struct {
	f      *os.File
	size   int64
	filter *bloom.Filter
	maxSeq uint64
	Stats  ReadStats

	// cache, when attached, serves decompressed blocks and table meta
	// under the engine-wide budget; cacheID is this table's identity in
	// it, metaSlot where the cached meta is found. slots are the block
	// slots, allocated at the first meta load and handed to every later
	// one, so blocks cached under an evicted meta stay reachable; metaMu
	// guards them.
	cache    *BlockCache
	cacheID  uint64
	metaSlot cacheSlot
	slots    []cacheSlot

	// Footer fields; the block index and partition directory load
	// lazily on first use (loadMeta), as one combined ReadAt.
	blockIdxOff uint64
	partDirOff  uint64
	bloomOff    uint64
	entryCount  uint64 // cells in the data blocks; a scan checks it
	partCount   uint64
	metaCRC     uint32
	metaMu      sync.Mutex
	meta        atomic.Pointer[tableMeta]
}

// tableMeta is a table's lazily-loaded index state: the meta section
// as read (block index, then partition directory), the block index
// decoded over it, one record per partition locating its directory
// entry and first block, and — with a cache attached — one cache slot
// per block. Keys and histograms stay in buf, read in place: a decode
// allocates the same few times whatever the partition count.
type tableMeta struct {
	buf    []byte
	blocks []blockIndexEntry // firstKey views into buf
	parts  []partDirEntry    // sorted by key
	slots  []cacheSlot
}

// partDirEntry locates one partition in a decoded meta: its key is
// buf[off:off+klen], its cell count and type histogram follow the key.
// first is not stored: the reader derives it when it loads the
// directory.
type partDirEntry struct {
	off, klen uint32
	first     uint32 // the block a slice of the partition starts its search at
}

// key returns partition i's key, a view into the meta buffer.
func (m *tableMeta) key(i int) []byte {
	e := &m.parts[i]
	return m.buf[e.off : e.off+e.klen]
}

// entry returns partition i's cell count and the encoded type histogram
// behind it, read in place; readMeta checked the bytes.
func (m *tableMeta) entry(i int) (cells uint64, hist []byte) {
	e := &m.parts[i]
	p := m.buf[e.off+e.klen:]
	cells, u := enc.Uvarint(p)
	return cells, p[u:]
}

// part finds pk's index in the partition directory by binary search.
func (m *tableMeta) part(pk string) (int, bool) {
	i, j := 0, len(m.parts)
	for i < j {
		h := int(uint(i+j) >> 1)
		if string(m.key(h)) < pk {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(m.parts) && string(m.key(i)) == pk
}

// Open prepares a reader for an SSTable file: it validates the footer
// and loads the bloom filter; the block index and partition directory
// stay on disk until the first read that needs them (loadMeta). An
// intact file in one of the flat layouts older engines wrote is
// recognised by its footer terminator and refused with
// ErrUnsupportedFormat rather than reported as damage.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sstable: open: %w", err)
	}
	r, err := open(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func open(f *os.File) (*Reader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(magic)+len(footerMagic)) {
		return nil, ErrCorrupt
	}
	var term [4]byte
	if _, err := f.ReadAt(term[:], size-4); err != nil {
		return nil, err
	}
	switch string(term[:]) {
	case string(footerMagic):
	case "SKVT", "SKV2", "SKV3", "SKV4":
		return nil, ErrUnsupportedFormat
	default:
		return nil, ErrCorrupt
	}
	if size < int64(len(magic)+footerSize) {
		return nil, ErrCorrupt
	}
	footer := make([]byte, footerSize)
	if _, err := f.ReadAt(footer, size-footerSize); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(footer[:56]) != binary.LittleEndian.Uint32(footer[56:]) {
		return nil, fmt.Errorf("%w: footer crc mismatch", ErrCorrupt)
	}
	r := &Reader{
		f:           f,
		size:        size,
		blockIdxOff: binary.LittleEndian.Uint64(footer[0:]),
		partDirOff:  binary.LittleEndian.Uint64(footer[8:]),
		bloomOff:    binary.LittleEndian.Uint64(footer[16:]),
		entryCount:  binary.LittleEndian.Uint64(footer[24:]),
		partCount:   binary.LittleEndian.Uint64(footer[32:]),
		maxSeq:      binary.LittleEndian.Uint64(footer[40:]),
		metaCRC:     binary.LittleEndian.Uint32(footer[48:]),
	}
	dataStart := uint64(len(magic))
	if r.blockIdxOff < dataStart || r.blockIdxOff > r.partDirOff ||
		r.partDirOff > r.bloomOff || r.bloomOff > uint64(size)-footerSize {
		return nil, ErrCorrupt
	}
	bloomBuf := make([]byte, uint64(size)-footerSize-r.bloomOff)
	if _, err := f.ReadAt(bloomBuf, int64(r.bloomOff)); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(bloomBuf) != binary.LittleEndian.Uint32(footer[52:]) {
		return nil, fmt.Errorf("%w: bloom crc mismatch", ErrCorrupt)
	}
	if r.filter, err = bloom.Unmarshal(bloomBuf); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return r, nil
}

// readAt is the single physical-read funnel: every post-Open disk
// access goes through it so ReadStats counts I/O operations and bytes
// exactly.
func (r *Reader) readAt(p []byte, off int64) error {
	r.Stats.ReadAtCalls.Add(1)
	r.Stats.BytesRead.Add(int64(len(p)))
	_, err := r.f.ReadAt(p, off)
	return err
}

// AttachCache points the reader at a shared block cache, issuing it a
// fresh table identity. Call once, right after Open, before any reads;
// data blocks and the lazily-loaded meta then live in (and are bounded
// by) the cache instead of per-reader memory. The identity is never
// reused, so a retired table's entries become unreachable and age out —
// invalidation by identity, no purge call.
func (r *Reader) AttachCache(c *BlockCache) {
	if c == nil {
		return
	}
	r.cache = c
	r.cacheID = c.NewTableID()
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// MaxSeq returns the highest cell version sequence stored in the table.
// The engine restores its write counter from it and uses it to skip
// tables that cannot beat an already-found version.
func (r *Reader) MaxSeq() uint64 { return r.maxSeq }

// Path returns the file backing this table; the storage engine's
// compactor uses it to retire exactly the inputs it merged.
func (r *Reader) Path() string { return r.f.Name() }

// Size returns the table's file size in bytes; the leveled compactor
// uses it to budget levels and split outputs.
func (r *Reader) Size() int64 { return r.size }

// NumPartitions returns how many partitions the table holds.
func (r *Reader) NumPartitions() int { return int(r.partCount) }

// Partitions returns all partition keys in ascending order, forcing the
// lazy index load; a failed load is the caller's to report — an empty
// list would read as an empty table.
func (r *Reader) Partitions() ([]string, error) {
	m, err := r.loadMeta()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(m.parts))
	for i := range m.parts {
		out[i] = string(m.key(i))
	}
	return out, nil
}

// Bounds returns the table's first and last partition keys, forcing the
// lazy index load. An empty table returns ("", "").
func (r *Reader) Bounds() (first, last string, err error) {
	m, err := r.loadMeta()
	if err != nil {
		return "", "", err
	}
	if len(m.parts) == 0 {
		return "", "", nil
	}
	return string(m.key(0)), string(m.key(len(m.parts) - 1)), nil
}

// MayContain consults the bloom filter; false means the partition is
// definitely absent and the read path can skip this table.
func (r *Reader) MayContain(pk string) bool { return r.filter.MayContainString(pk) }

// loadMeta reads and caches the block index and partition directory —
// one combined ReadAt covering both sections, so the first read of a
// cold table costs exactly one extra I/O. With a block cache attached
// the decoded meta lives under the cache's budget (found through
// r.metaSlot) instead of pinned per-reader memory, so open-table index
// overhead competes with data blocks for RAM and can be evicted; without
// one it is pinned in r.meta.
func (r *Reader) loadMeta() (*tableMeta, error) {
	if m := r.residentMeta(); m != nil {
		return m, nil
	}
	r.metaMu.Lock()
	defer r.metaMu.Unlock()
	if m := r.residentMeta(); m != nil {
		return m, nil
	}
	m, err := r.readMeta()
	if err != nil {
		return nil, err
	}
	if r.cache != nil {
		if r.slots == nil {
			r.slots = make([]cacheSlot, len(m.blocks))
		}
		m.slots = r.slots
		r.cache.putMeta(&r.metaSlot, r.cacheID, m)
	} else {
		r.meta.Store(m)
	}
	return m, nil
}

// residentMeta returns the decoded meta if it is in memory: in the cache
// when one is attached, pinned in r.meta otherwise.
func (r *Reader) residentMeta() *tableMeta {
	if r.cache == nil {
		return r.meta.Load()
	}
	if e := r.cache.get(&r.metaSlot); e != nil {
		return e.meta
	}
	return nil
}

// Minimum encoded sizes of a block index entry (empty first key, one-
// byte offset and length), a partition directory entry (empty key,
// one-byte cell count, no types) and a data-block entry (three length
// varints, seq, node and flags of one byte each): a count read off disk
// is checked against them before it sizes an allocation.
const (
	minBlockIndexEntry = 3
	minPartDirEntry    = 3
	minBlockEntry      = 6
)

// readMeta reads, checks and decodes the block index and partition
// directory, then derives each partition's first block.
func (r *Reader) readMeta() (*tableMeta, error) {
	// Directory entries are located by 32-bit offsets into the section.
	if r.bloomOff-r.blockIdxOff > math.MaxUint32 {
		return nil, fmt.Errorf("%w: meta section over 4 GiB", ErrCorrupt)
	}
	buf := make([]byte, r.bloomOff-r.blockIdxOff)
	if err := r.readAt(buf, int64(r.blockIdxOff)); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(buf) != r.metaCRC {
		return nil, fmt.Errorf("%w: meta crc mismatch", ErrCorrupt)
	}
	m := &tableMeta{buf: buf}
	p := buf
	nBlocks, u := enc.Uvarint(p)
	if u <= 0 || nBlocks > uint64(len(p)-u)/minBlockIndexEntry {
		return nil, ErrCorrupt
	}
	p = p[u:]
	m.blocks = make([]blockIndexEntry, 0, nBlocks)
	prevEnd := uint64(len(magic))
	for i := uint64(0); i < nBlocks; i++ {
		fk, u1 := enc.Bytes(p)
		if u1 == 0 {
			return nil, ErrCorrupt
		}
		p = p[u1:]
		off, u2 := enc.Uvarint(p)
		if u2 <= 0 {
			return nil, ErrCorrupt
		}
		p = p[u2:]
		ln, u3 := enc.Uvarint(p)
		if u3 <= 0 {
			return nil, ErrCorrupt
		}
		p = p[u3:]
		// Blocks are contiguous and ascending, in file offset and in first
		// key; anything else is damage. off <= blockIdxOff holds by
		// induction, so the subtraction cannot wrap.
		if off != prevEnd || ln == 0 || ln > r.blockIdxOff-off ||
			(i > 0 && bytes.Compare(fk, m.blocks[i-1].firstKey) <= 0) {
			return nil, ErrCorrupt
		}
		prevEnd = off + ln
		m.blocks = append(m.blocks, blockIndexEntry{firstKey: fk, offset: off, length: ln})
	}
	nParts, u := enc.Uvarint(p)
	if u <= 0 || nParts != r.partCount || nParts > uint64(len(p)-u)/minPartDirEntry {
		return nil, ErrCorrupt
	}
	p = p[u:]
	m.parts = make([]partDirEntry, 0, nParts)
	// A partition's cell count sizes its collect (ReadSlice), so the
	// counts are bounded by the cells the data section can hold: a
	// stored byte decodes to at most lzMaxCopy/2 bytes (a two-byte copy
	// op), an entry takes minBlockEntry of them.
	cellsLeft := (r.blockIdxOff - uint64(len(magic))) * lzMaxCopy / (2 * minBlockEntry)
	var prev []byte
	for i := uint64(0); i < nParts; i++ {
		pk, u1 := enc.Bytes(p)
		if u1 == 0 || (i > 0 && bytes.Compare(pk, prev) <= 0) {
			return nil, ErrCorrupt
		}
		prev = pk
		off := uint32(len(buf) - len(p) + u1 - len(pk))
		p = p[u1:]
		cells, u2 := enc.Uvarint(p)
		if u2 <= 0 || cells > cellsLeft {
			return nil, ErrCorrupt
		}
		cellsLeft -= cells
		p = p[u2:]
		u3, err := checkTypeCounts(p, cells)
		if err != nil {
			return nil, err
		}
		p = p[u3:]
		m.parts = append(m.parts, partDirEntry{off: off, klen: uint32(len(pk))})
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the partition directory", ErrCorrupt, len(p))
	}
	// Each partition's first block is blockFor(its prefix), found in one
	// merge pass: partitions and block first keys are both ascending, so
	// the block cursor only moves forward.
	var prefix []byte
	j := 0
	for i := range m.parts {
		prefix = enc.AppendInternalKey(prefix[:0], string(m.key(i)), nil)
		for j+1 < len(m.blocks) && bytes.Compare(m.blocks[j+1].firstKey, prefix) <= 0 {
			j++
		}
		m.parts[i].first = uint32(j)
	}
	return m, nil
}

// checkTypeCounts checks the type histogram at the head of p, which
// belongs to a partition of the given cell count, and returns its
// encoded length: nTypes uvarint, then nTypes (type u8, count uvarint)
// pairs with types strictly ascending and every count non-zero. The
// counts sum to the partition's live cells, so neither nTypes nor the
// sum may exceed its cell count; anything else is ErrCorrupt.
func checkTypeCounts(p []byte, cells uint64) (int, error) {
	nTypes, n := enc.Uvarint(p)
	if n <= 0 || nTypes > cells || nTypes > 256 {
		return 0, ErrCorrupt
	}
	left, prev := cells, -1
	for range nTypes {
		if n >= len(p) || int(p[n]) <= prev {
			return 0, ErrCorrupt
		}
		prev = int(p[n])
		c, u := enc.Uvarint(p[n+1:])
		if u <= 0 || c == 0 || c > left {
			return 0, ErrCorrupt
		}
		left -= c
		n += 1 + u
	}
	return n, nil
}

// addTypeCounts adds a histogram checkTypeCounts accepted to tc.
func addTypeCounts(tc *row.TypeCounts, p []byte) {
	nTypes, n := enc.Uvarint(p)
	for range nTypes {
		c, u := enc.Uvarint(p[n+1:])
		tc.Add(p[n], c)
		n += 1 + u
	}
}

// blockFor returns the index of the last block whose first key is <=
// key (the only block that can contain key), clamped to 0.
func blockFor(blocks []blockIndexEntry, key []byte) int {
	i := sort.Search(len(blocks), func(k int) bool {
		return bytes.Compare(blocks[k].firstKey, key) > 0
	})
	if i > 0 {
		i--
	}
	return i
}

// readBlock fetches one stored data block; decodeStoredBlock verifies
// its CRC.
func (r *Reader) readBlock(b blockIndexEntry) ([]byte, error) {
	buf := make([]byte, b.length)
	if err := r.readAt(buf, int64(b.offset)); err != nil {
		return nil, err
	}
	return buf, nil
}

// blockPayload returns one block's decoded entry payload, serving it
// from the shared cache when possible. A miss reads and decodes the
// stored block; fill says whether the result is then cached — point and
// slice reads fill, the compactor's scan-once pass only probes, so a
// compaction pass cannot flush the working set out of the cache. The
// returned payload is shared and read-only.
func (r *Reader) blockPayload(m *tableMeta, bi int, fill bool) ([]byte, error) {
	if r.cache != nil {
		if e := r.cache.get(&m.slots[bi]); e != nil {
			return e.data, nil
		}
	}
	b := m.blocks[bi]
	stored, err := r.readBlock(b)
	if err != nil {
		return nil, err
	}
	payload, err := decodeStoredBlock(stored)
	if err != nil {
		return nil, err
	}
	if r.cache != nil && fill {
		r.cache.putBlock(&m.slots[bi], r.cacheID, b.offset, payload)
	}
	return payload, nil
}

// SliceCursor streams the cells of one partition slice of one table in
// clustering order, chaining block cursors across the data blocks the
// slice spans — or, pointed by Scan, every cell of the table. What it
// yields are views: the key lives in the cursor's scratch buffer and is
// overwritten by the next step, the value aliases a block payload the
// cache shares between readers — read it, never write it, and copy what
// must outlive the next call to Next. The zero value is ready for
// Reader.Slice or Reader.Scan; a reused cursor keeps its buffers, so a
// warm read allocates nothing.
type SliceCursor struct {
	r      *Reader
	m      *tableMeta
	part   int  // the partition's index in m's directory
	bi     int  // next block to load
	scan   bool // a whole-table pass: see Scan
	seeked bool
	done   bool
	err    error
	cells  uint64 // the partition's cells; for a scan, the cells still to come
	blk    blockCursor
	bounds enc.Bounds
}

// Slice points c before the first cell of pk with from <= CK < to; nil
// bounds mean unbounded. A whole-partition slice starts at the
// partition's first block, which the directory knows; a slice with a
// lower bound binary-searches only the partition's own blocks, from its
// first to the next partition's first. Either way the cursor then seeks
// inside the block by restart point, so a point read performs one block
// ReadAt (plus the one-time lazy meta load) and a slice of a multi-block
// partition skips its leading blocks instead of scanning from the
// partition start: the read-path advantage whose cost asymmetry Formula
// 6 models. A partition the table does not hold is ErrNotFound.
func (r *Reader) Slice(c *SliceCursor, pk string, from, to []byte) error {
	c.Release()
	m, err := r.loadMeta()
	if err != nil {
		return err
	}
	pi, ok := m.part(pk)
	if !ok {
		return ErrNotFound
	}
	r.Stats.PartitionsRead.Add(1)
	c.cells, _ = m.entry(pi)
	c.r, c.m, c.part = r, m, pi
	c.scan, c.seeked, c.done, c.err = false, false, c.cells == 0, nil
	c.bounds.Set(pk, from, to)
	first := int(m.parts[pi].first)
	c.bi = first
	if from == nil {
		return nil
	}
	end := len(m.blocks)
	if pi+1 < len(m.parts) {
		end = min(end, int(m.parts[pi+1].first)+1)
	}
	c.bi += blockFor(m.blocks[first:end], c.bounds.Start())
	if c.bi > first {
		// The block index let the slice skip the partition's leading
		// blocks entirely — the column-index seek of Formula 6. Only
		// blocks that certainly hold this partition's cells (their first
		// key carries its prefix) count as savings: a partition starting
		// exactly at a block boundary must not claim its predecessor's
		// block.
		prefix := c.bounds.Prefix()
		var skipped int64
		for i := first; i < c.bi; i++ {
			if bytes.HasPrefix(m.blocks[i].firstKey, prefix) {
				skipped += int64(m.blocks[i].length)
			}
		}
		if skipped > 0 {
			r.Stats.SeeksSaved.Add(skipped)
			r.Stats.IndexedReads.Add(1)
		}
	}
	return nil
}

// Scan points c before the table's first cell, for one pass over every
// data block in file order: the compactor's input. Its Cell returns the
// whole internal key where a slice returns the clustering key. Internal
// keys sort by (partition key, clustering key), so one merge rule spans
// the table's partitions and the caller splits them where the key's
// partition prefix changes. A scan probes the block cache but never
// fills it, so a compaction pass cannot flush the working set out of
// it. Blocks that hold more or fewer cells than the footer's entry
// count end the scan in ErrCorrupt.
func (r *Reader) Scan(c *SliceCursor) error {
	c.Release()
	m, err := r.loadMeta()
	if err != nil {
		return err
	}
	c.r, c.m, c.bi, c.cells = r, m, 0, r.entryCount
	c.scan, c.seeked, c.done, c.err = true, true, false, nil
	return nil
}

// Cells returns how many cells the table holds for the whole partition:
// an upper bound on what the slice yields, for sizing a result.
func (c *SliceCursor) Cells() int { return int(c.cells) }

// TypeCounts adds the live cells the table holds for the whole
// partition, whatever the slice's bounds, to tc by type, from the
// partition directory: no data block is read. Call it after Slice
// succeeded and before Release.
func (c *SliceCursor) TypeCounts(tc *row.TypeCounts) {
	_, hist := c.m.entry(c.part)
	addTypeCounts(tc, hist)
}

// Next steps to the following cell of the slice and reports whether
// there is one; after false, Err tells the end of the slice from a
// failed read.
func (c *SliceCursor) Next() bool {
	if c.done {
		return false
	}
	ok := c.blk.next()
	for !ok {
		// The block is exhausted, or none is loaded yet: chain to the next
		// one the slice reaches into.
		if c.err = c.blk.err; c.err != nil || !c.loadBlock() {
			if c.scan && c.err == nil && c.cells != 0 {
				c.err = ErrCorrupt // the footer counts cells no block holds
			}
			c.done = true
			return false
		}
		if c.seeked {
			ok = c.blk.next()
		} else {
			// Only the slice's first block can hold keys before its start.
			c.seeked = true
			ok = c.blk.seek(c.bounds.Start())
		}
	}
	if c.scan {
		if c.cells == 0 {
			c.err, c.done = ErrCorrupt, true // a cell past the footer's count
			return false
		}
		c.cells--
		return true
	}
	if bytes.Compare(c.blk.key, c.bounds.End()) >= 0 {
		c.done = true
		return false
	}
	// Every key in [start, end) starts with the partition prefix by
	// construction; a violation means the block's contents disagree with
	// the block index.
	if !bytes.HasPrefix(c.blk.key, c.bounds.Prefix()) {
		c.err, c.done = ErrCorrupt, true
		return false
	}
	return true
}

// loadBlock points the block cursor at the next data block, unless the
// block index says the slice ends before it.
func (c *SliceCursor) loadBlock() bool {
	if c.bi >= len(c.m.blocks) || !c.scan && bytes.Compare(c.m.blocks[c.bi].firstKey, c.bounds.End()) >= 0 {
		return false
	}
	payload, err := c.r.blockPayload(c.m, c.bi, !c.scan)
	if err == nil {
		err = c.blk.reset(payload)
	}
	c.err = err
	c.bi++
	return err == nil
}

// Cell returns the current cell — for a scan, keyed by its whole
// internal key; call it only after Next reported true.
func (c *SliceCursor) Cell() (ck, value []byte, ver row.Version, tombstone bool) {
	key := c.blk.key
	if !c.scan {
		key = key[len(c.bounds.Prefix()):]
	}
	return key, c.blk.value, c.blk.ver, c.blk.tomb
}

// Err returns the error that ended the walk, nil at the slice's end.
func (c *SliceCursor) Err() error { return c.err }

// Release drops the cursor's references to the table and its blocks,
// keeping only the scratch buffers: a parked cursor pins no payload.
func (c *SliceCursor) Release() {
	c.r, c.m, c.done = nil, nil, true
	c.blk.data, c.blk.restarts, c.blk.value, c.blk.err = nil, nil, nil, nil
}

// cursors parks SliceCursors between the reads that borrow one, so
// their scratch buffers are allocated once and not per read.
var cursors = sync.Pool{New: func() any { return new(SliceCursor) }}

// ReadPartition returns every cell of a partition.
func (r *Reader) ReadPartition(pk string) ([]row.Cell, error) {
	return r.ReadSlice(pk, nil, nil)
}

// ReadSlice returns owned copies of the cells of a partition with
// from <= CK < to; nil bounds mean unbounded. It collects a SliceCursor:
// the key and value bytes are carved from one arena and, for a whole
// partition, the cell slice is sized from the partition directory, so
// the call allocates the same few times whatever the cell count.
func (r *Reader) ReadSlice(pk string, from, to []byte) ([]row.Cell, error) {
	c := cursors.Get().(*SliceCursor)
	defer c.park()
	if err := r.Slice(c, pk, from, to); err != nil {
		return nil, err
	}
	var out row.Collector
	if from == nil && to == nil {
		out.Grow(c.Cells())
	}
	for c.Next() {
		out.Append(c.Cell())
	}
	if c.err != nil {
		return nil, c.err
	}
	return out.Cells, nil
}

func (c *SliceCursor) park() {
	c.Release()
	cursors.Put(c)
}

// Get returns the cell stored under (pk, ck) — tombstones included, the
// caller's merge decides what they mask. It reads the one block that
// can hold the key and seeks inside it. The returned cell carries the
// caller's ck and an owned copy of the value. A partition the table
// does not hold is ErrNotFound; a clustering key it does not hold is
// found=false.
func (r *Reader) Get(pk string, ck []byte) (cell row.Cell, found bool, err error) {
	c := cursors.Get().(*SliceCursor)
	defer c.park()
	// The slice [ck, ck+"\x00") holds ck and nothing else, so the walk
	// ends inside the one block that can hold it.
	var buf [64]byte
	if err := r.Slice(c, pk, ck, append(append(buf[:0], ck...), 0)); err != nil {
		return row.Cell{}, false, err
	}
	if !c.Next() {
		return row.Cell{}, false, c.err
	}
	_, value, ver, tomb := c.Cell()
	cell = row.Cell{CK: ck, Ver: ver, Tombstone: tomb}
	if len(value) > 0 {
		cell.Value = append([]byte(nil), value...)
	}
	return cell, true, nil
}

// HasColumnIndex reports whether the partition spans at least two data
// blocks — i.e. a slice can seek past its start via the block index.
// Measured as the number of blocks whose first key carries the
// partition's prefix, so a small partition occupying exactly one block
// (boundary-aligned or not) reports false.
func (r *Reader) HasColumnIndex(pk string) (bool, error) {
	m, err := r.loadMeta()
	if err != nil {
		return false, err
	}
	if _, ok := m.part(pk); !ok {
		return false, ErrNotFound
	}
	prefix := enc.PartitionPrefix(pk)
	end := enc.PartitionEnd(pk)
	j0 := sort.Search(len(m.blocks), func(k int) bool {
		return bytes.Compare(m.blocks[k].firstKey, prefix) >= 0
	})
	j1 := sort.Search(len(m.blocks), func(k int) bool {
		return bytes.Compare(m.blocks[k].firstKey, end) >= 0
	})
	return j1-j0 >= 2, nil
}
