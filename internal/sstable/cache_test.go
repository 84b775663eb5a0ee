package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"scalekv/internal/row"
)

// repetitiveCells builds cells whose values compress well — the 256B
// ingest shape of the acceptance criteria.
func repetitiveCells(n, valSize int) []row.Cell {
	cells := make([]row.Cell, n)
	for i := range cells {
		v := bytes.Repeat([]byte(fmt.Sprintf("value-%04d|", i%7)), valSize/11+1)[:valSize]
		cells[i] = row.Cell{CK: ck(i), Value: v}
	}
	return cells
}

func TestWarmPointReadIsZeroReadAt(t *testing.T) {
	// The cold-read sibling (TestV3ColdPointReadIsIndexPlusOneBlock)
	// pins 2 ReadAts for a cold point read; with the block cache
	// attached, a repeated point read must hit RAM only — zero ReadAts,
	// block and meta both served from the cache.
	parts := map[string][]row.Cell{"big": makeCells(20000, 64)}
	r, err := Open(writeTable(t, WriterOptions{}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c := NewBlockCache(64 << 20)
	r.AttachCache(c)

	if _, err := r.ReadSlice("big", ck(15000), ck(15001)); err != nil {
		t.Fatal(err)
	}
	if calls := r.Stats.ReadAtCalls.Load(); calls != 2 {
		t.Fatalf("cold point read cost %d ReadAts, want 2 (meta + one block)", calls)
	}
	for i := 0; i < 5; i++ {
		before := r.Stats.ReadAtCalls.Load()
		got, err := r.ReadSlice("big", ck(15000), ck(15001))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !bytes.Equal(got[0].CK, ck(15000)) {
			t.Fatalf("warm read returned %d cells", len(got))
		}
		if d := r.Stats.ReadAtCalls.Load() - before; d != 0 {
			t.Fatalf("warm point read cost %d ReadAts, want 0", d)
		}
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Bytes == 0 {
		t.Fatalf("cache stats not plumbed: %+v", st)
	}
}

func TestBlockCacheBoundsBytesAndEvicts(t *testing.T) {
	c := NewBlockCache(64 << 10)
	payload := bytes.Repeat([]byte("x"), 1024)
	slots := make([]cacheSlot, 1000)
	for i := range slots {
		c.putBlock(&slots[i], 1, uint64(i)*4096, payload)
	}
	st := c.Stats()
	if st.Bytes > 64<<10 {
		t.Fatalf("cache holds %d bytes, budget 64KB", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("1000 inserts into a 64KB cache evicted nothing")
	}
	// A value bigger than a whole shard's budget must be refused, not
	// evict everything.
	before := c.Stats().Bytes
	var big cacheSlot
	c.putBlock(&big, 2, 0, bytes.Repeat([]byte("y"), 1<<20))
	if c.get(&big) != nil {
		t.Fatal("oversized entry was cached")
	}
	if c.Stats().Bytes > before {
		t.Fatal("oversized insert grew the cache")
	}
}

func TestCompressionShrinksTableAndRoundTrips(t *testing.T) {
	// 256B compressible values: the stored table must shrink under the
	// default codec and read back identically.
	parts := map[string][]row.Cell{"p": repetitiveCells(4000, 256)}
	plain := writeTable(t, WriterOptions{Compression: NoCompression}, parts)
	packed := writeTable(t, WriterOptions{}, parts)
	sp, _ := os.Stat(plain)
	sc, _ := os.Stat(packed)
	if sc.Size() >= sp.Size() {
		t.Fatalf("compressed table %d bytes, uncompressed %d", sc.Size(), sp.Size())
	}
	r, err := Open(packed)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadPartition("p")
	if err != nil {
		t.Fatal(err)
	}
	want := parts["p"]
	if len(got) != len(want) {
		t.Fatalf("%d cells back, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].CK, want[i].CK) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("cell %d mismatch", i)
		}
	}
}

func TestWriterReportsCompressionRatio(t *testing.T) {
	path := tempPath(t)
	w, err := NewWriter(path, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddPartition("p", repetitiveCells(4000, 256)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	logical, stored := w.BlockBytes()
	if logical == 0 || stored == 0 || stored >= logical {
		t.Fatalf("BlockBytes logical=%d stored=%d; want 0 < stored < logical", logical, stored)
	}
}

func tempPath(t *testing.T) string {
	t.Helper()
	return t.TempDir() + "/t.sst"
}

func TestCompressedBlockCorruptionYieldsErrCorrupt(t *testing.T) {
	// Flip a byte inside the first (compressed) data block: the
	// per-block CRC covers the stored bytes, so damage is caught before
	// decompression is even attempted.
	parts := map[string][]row.Cell{"p": repetitiveCells(2000, 256)}
	good := writeTable(t, WriterOptions{Compression: LZCompression}, parts)
	// Verify the table actually holds a compressed block (the probe
	// could in principle store raw; these values compress 2x+).
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(magic)] != blockFlagLZ {
		t.Fatalf("first block flag %#x, want LZ (%#x)", data[len(magic)], blockFlagLZ)
	}
	for _, off := range []int64{
		int64(len(magic)),     // the flag byte itself
		int64(len(magic)) + 1, // first byte of the compressed stream
		int64(len(magic)) + 40,
	} {
		r, err := Open(corruptCopy(t, good, off))
		if err != nil {
			t.Fatalf("open must succeed (damage is in a data block): %v", err)
		}
		if _, err := r.ReadPartition("p"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: read returned %v, want ErrCorrupt", off, err)
		}
		r.Close()
	}
}

// fixCRC recomputes a stored block's trailing CRC so corruption tests
// can exercise the paths behind the checksum.
func fixCRC(stored []byte) []byte {
	crcOff := len(stored) - 4
	binary.LittleEndian.PutUint32(stored[crcOff:], crc32.ChecksumIEEE(stored[:crcOff]))
	return stored
}

func TestStoredBlockStructuralCorruption(t *testing.T) {
	var b blockBuilder
	for i := 0; i < 64; i++ {
		b.add(ck(i), bytes.Repeat([]byte("ab"), 32), row.Version{Seq: uint64(i)}, false)
	}
	payload := append([]byte(nil), b.finishEntries()...)
	stored, compressed := sealBlock(payload, LZCompression, new([1 << lzTableBits]int32))
	if !compressed {
		t.Fatal("repetitive block did not compress")
	}

	// Unknown flag byte with a valid CRC: the dispatch must reject it.
	badFlag := fixCRC(append([]byte{0x7F}, stored[1:]...))
	if _, err := decodeStoredBlock(badFlag); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown flag: %v, want ErrCorrupt", err)
	}

	// Truncation mid-block without CRC repair: caught by the checksum.
	if _, err := decodeStoredBlock(stored[:len(stored)/2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated block: %v, want ErrCorrupt", err)
	}

	// Truncation of the compressed stream with the CRC recomputed: the
	// LZ decoder must report corruption, never panic or return short.
	chopped := append([]byte(nil), stored[:len(stored)-8]...)
	if _, err := decodeStoredBlock(fixCRC(append(chopped, 0, 0, 0, 0))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("chopped LZ stream: %v, want ErrCorrupt", err)
	}

	// A flagless block — payload + CRC, as tables before block
	// compression stored them; its first byte is always 0x00 — is no
	// longer a layout: rejected like any unknown flag.
	flagless := binary.LittleEndian.AppendUint32(append([]byte(nil), payload...), crc32.ChecksumIEEE(payload))
	if _, err := decodeStoredBlock(flagless); flagless[0] != 0x00 || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flagless block (first byte %#x): %v, want ErrCorrupt", flagless[0], err)
	}
}

// cachedTable opens a table of one 35-block partition with a cache of
// the given capacity attached.
func cachedTable(t *testing.T, capacity int64) (*Reader, *BlockCache) {
	t.Helper()
	r, err := Open(writeTable(t, WriterOptions{}, map[string][]row.Cell{"p": makeCells(2000, 64)}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	c := NewBlockCache(capacity)
	r.AttachCache(c)
	return r, c
}

// cachedBlocks counts the reader's blocks whose slot holds an entry. It
// reads the slots without loading the meta, which would cache it again.
func cachedBlocks(t *testing.T, r *Reader) int {
	t.Helper()
	n := 0
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			if e.slot != &r.slots[i] {
				t.Fatalf("block %d: cached entry points at another slot", i)
			}
			n++
		}
	}
	return n
}

// TestBlockCacheHitAllocs: a cache hit, block or meta, is a slot load and
// allocates nothing.
func TestBlockCacheHitAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	r, _ := cachedTable(t, 64<<20)
	if _, err := r.ReadPartition("p"); err != nil {
		t.Fatal(err)
	}
	m, err := r.loadMeta()
	if err != nil {
		t.Fatal(err)
	}
	bi := len(m.blocks) / 2
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := r.loadMeta(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.blockPayload(m, bi, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f times, want 0", allocs)
	}
}

// TestBlockCacheEvictionClearsSlot: evicting an entry empties the slot
// that pointed at it, and the next read of the block fills it again.
func TestBlockCacheEvictionClearsSlot(t *testing.T) {
	r, c := cachedTable(t, 1<<20)
	if _, err := r.ReadPartition("p"); err != nil {
		t.Fatal(err)
	}
	blocks := cachedBlocks(t, r)
	if blocks < 10 {
		t.Fatalf("%d blocks cached after a full read", blocks)
	}
	// Flood the cache under other table identities until CLOCK has
	// claimed every one of the reader's entries, meta included. Each
	// filler is hit once, so the hand passes it and moves on.
	filler := bytes.Repeat([]byte("f"), 8<<10)
	for i := 0; r.metaSlot.Load() != nil || cachedBlocks(t, r) > 0; i++ {
		if i == 10000 {
			t.Fatal("flood did not evict the reader's entries")
		}
		slot := new(cacheSlot)
		c.putBlock(slot, c.NewTableID(), 0, filler)
		c.get(slot)
	}
	// A point read now goes to disk for the meta and its block, and
	// fills both slots again: the next one is served from RAM.
	for _, want := range []int64{2, 0} {
		before := r.Stats.ReadAtCalls.Load()
		if _, ok, err := r.Get("p", ck(1000)); !ok || err != nil {
			t.Fatalf("get: %v %v", ok, err)
		}
		if reads := r.Stats.ReadAtCalls.Load() - before; reads != want {
			t.Fatalf("point read cost %d ReadAts, want %d", reads, want)
		}
	}
	if r.metaSlot.Load() == nil || cachedBlocks(t, r) != 1 {
		t.Fatalf("after one point read: meta cached %v, %d blocks cached, want the meta and 1", r.metaSlot.Load() != nil, cachedBlocks(t, r))
	}
}

// TestBlockCacheOversizedLeavesSlotEmpty: an entry larger than a shard's
// budget is served uncached and its slot stays empty.
func TestBlockCacheOversizedLeavesSlotEmpty(t *testing.T) {
	r, c := cachedTable(t, cacheShardCount*512) // 512 bytes a shard: no block fits
	for range 2 {
		got, err := r.ReadPartition("p")
		if err != nil || len(got) != 2000 {
			t.Fatalf("read %d cells, %v", len(got), err)
		}
	}
	if n := cachedBlocks(t, r); n != 0 || r.metaSlot.Load() != nil {
		t.Fatalf("%d blocks (meta %v) cached past the shard budget", n, r.metaSlot.Load() != nil)
	}
	if st := c.Stats(); st.Bytes != 0 || st.Hits != 0 {
		t.Fatalf("oversized entries reached the cache: %+v", st)
	}
}

// TestTableScanProbesWithoutFilling: the compactor's whole-table scan
// reads cached blocks but never caches what it reads, so a compaction
// pass cannot flush the working set.
func TestTableScanProbesWithoutFilling(t *testing.T) {
	r, c := cachedTable(t, 64<<20)
	scan := func() {
		if _, err := scanPartitions(r); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if n := cachedBlocks(t, r); n != 0 {
		t.Fatalf("scan filled %d block slots", n)
	}
	if _, err := r.ReadPartition("p"); err != nil {
		t.Fatal(err)
	}
	blocks := cachedBlocks(t, r)
	hits := c.Stats().Hits
	scan()
	if got := c.Stats().Hits - hits; got < int64(blocks) {
		t.Fatalf("scan over %d cached blocks hit %d times", blocks, got)
	}
}
