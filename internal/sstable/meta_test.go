package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"scalekv/internal/enc"
	"scalekv/internal/raceflag"
	"scalekv/internal/row"
)

// tableSections is a table file cut at its section boundaries, for tests
// that replace a section and re-seal every checksum, so that the bytes
// reach the decoders behind the CRCs instead of stopping at them.
type tableSections struct {
	data   []byte // file header and data blocks
	meta   []byte // block index and partition directory
	bloom  []byte
	footer []byte
}

func cutTable(file []byte) tableSections {
	footer := file[len(file)-footerSize:]
	idx := binary.LittleEndian.Uint64(footer[0:])
	bloomOff := binary.LittleEndian.Uint64(footer[16:])
	return tableSections{
		data:   file[:idx],
		meta:   file[idx:bloomOff],
		bloom:  file[bloomOff : len(file)-footerSize],
		footer: footer,
	}
}

// seal lays the sections out again under a footer claiming partCount
// partitions, with every offset and checksum recomputed. The directory
// offset is put at the end of the meta: the reader reads the meta as one
// section and only checks that offset's order.
func (s tableSections) seal(partCount uint64) []byte {
	out := append([]byte(nil), s.data...)
	idxOff := uint64(len(out))
	out = append(out, s.meta...)
	bloomOff := uint64(len(out))
	out = append(out, s.bloom...)
	footer := append([]byte(nil), s.footer...)
	binary.LittleEndian.PutUint64(footer[0:], idxOff)
	binary.LittleEndian.PutUint64(footer[8:], bloomOff)
	binary.LittleEndian.PutUint64(footer[16:], bloomOff)
	binary.LittleEndian.PutUint64(footer[32:], partCount)
	binary.LittleEndian.PutUint32(footer[48:], crc32.ChecksumIEEE(s.meta))
	binary.LittleEndian.PutUint32(footer[52:], crc32.ChecksumIEEE(s.bloom))
	binary.LittleEndian.PutUint32(footer[56:], crc32.ChecksumIEEE(footer[:56]))
	return append(out, footer...)
}

// metaTable writes the small multi-block table the meta tests and
// FuzzTableMeta start from and returns its bytes.
func metaTable(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "meta.sst")
	// A small filter keeps the fuzzer's inputs, and so its minimization
	// runs, short.
	w, err := NewWriter(path, WriterOptions{BlockSize: 128, ExpectedPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	emptyFirst := append([]row.Cell{{CK: []byte{}, Value: []byte("root")}}, makeCells(6, 8)[1:]...)
	withTombstones := makeCells(10, 8)
	for _, i := range []int{3, 7} {
		withTombstones[i].Value, withTombstones[i].Tombstone = nil, true
	}
	for _, p := range []struct {
		pk    string
		cells []row.Cell
	}{
		{"a", makeCells(3, 8)},
		{"b", makeCells(30, 16)}, // several blocks
		{"c", nil},
		{"d", emptyFirst},
		{"e", withTombstones},
	} {
		if err := w.AddPartition(p.pk, p.cells); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func openBytes(t testing.TB, data []byte) (*Reader, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.sst")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(path)
}

// metaWithCount replaces the count varint at the head of a meta section
// (the block count, at off 0) or of its directory (the partition count,
// at off dirOff) with n.
func metaWithCount(meta []byte, off int, n uint64) []byte {
	_, u := enc.Uvarint(meta[off:])
	out := append([]byte(nil), meta[:off]...)
	out = enc.AppendUvarint(out, n)
	return append(out, meta[off+u:]...)
}

// metaWithCellCounts replaces the cell counts of the named partitions in
// the directory of a meta section (which starts at dirOff), keeping
// their type histograms.
func metaWithCellCounts(meta []byte, dirOff int, counts map[string]uint64) []byte {
	return editDirectory(meta, dirOff, func(pk []byte, cells uint64, hist []byte) (uint64, []byte) {
		if c, ok := counts[string(pk)]; ok {
			cells = c
		}
		return cells, hist
	})
}

// metaWithHistogram replaces the type histogram of partition pk in the
// directory of a meta section (which starts at dirOff) with the given
// (type, count) pairs, in the order given.
func metaWithHistogram(meta []byte, dirOff int, pk string, pairs ...[2]uint64) []byte {
	return editDirectory(meta, dirOff, func(key []byte, cells uint64, hist []byte) (uint64, []byte) {
		if string(key) != pk {
			return cells, hist
		}
		hist = enc.AppendUvarint(nil, uint64(len(pairs)))
		for _, p := range pairs {
			hist = enc.AppendUvarint(append(hist, byte(p[0])), p[1])
		}
		return cells, hist
	})
}

// editDirectory re-encodes the partition directory of a meta section
// (which starts at dirOff), passing each entry's key, cell count and
// encoded type histogram through edit.
func editDirectory(meta []byte, dirOff int, edit func(pk []byte, cells uint64, hist []byte) (uint64, []byte)) []byte {
	out := append([]byte(nil), meta[:dirOff]...)
	n, u := enc.Uvarint(meta[dirOff:])
	out = enc.AppendUvarint(out, n)
	p := meta[dirOff+u:]
	for range n {
		pk, u1 := enc.Bytes(p)
		cells, u2 := enc.Uvarint(p[u1:])
		u3, err := checkTypeCounts(p[u1+u2:], cells)
		if err != nil {
			panic(err)
		}
		cells, hist := edit(pk, cells, p[u1+u2:u1+u2+u3])
		out = append(enc.AppendUvarint(enc.AppendBytes(out, pk), cells), hist...)
		p = p[u1+u2+u3:]
	}
	return append(out, p...)
}

// dirOffset returns where the partition directory starts inside a meta
// section the writer produced.
func dirOffset(file []byte) int {
	footer := file[len(file)-footerSize:]
	return int(binary.LittleEndian.Uint64(footer[8:]) - binary.LittleEndian.Uint64(footer[0:]))
}

// TestLoadMetaBoundsCountsByBytesLeft: a checksummed meta claiming 2^40
// blocks or partitions is damage, reported as ErrCorrupt. Before the
// bound, each count sized an allocation and the process died with a
// fatal out-of-memory error, which no recover catches.
func TestLoadMetaBoundsCountsByBytesLeft(t *testing.T) {
	file := metaTable(t)
	s := cutTable(file)
	const huge = 1 << 40
	for _, c := range []struct {
		name      string
		meta      []byte
		partCount uint64
	}{
		{"blocks", metaWithCount(s.meta, 0, huge), 5},
		{"partitions", metaWithCount(s.meta, dirOffset(file), huge), huge},
	} {
		s := s
		s.meta = c.meta
		r, err := openBytes(t, s.seal(c.partCount))
		if err != nil {
			t.Fatalf("%s: open: %v", c.name, err)
		}
		if _, err := r.Partitions(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Partitions = %v, want ErrCorrupt", c.name, err)
		}
		r.Close()
	}
}

// TestLoadMetaBoundsCellCounts: a partition's cell count sizes the cell
// slice of a whole-partition collect (ReadPartition), so a checksummed directory claiming more cells than the data section
// can hold — in one partition or summed over all — is ErrCorrupt. Before
// the bound, 2^50 cells panicked makeslice on the compaction worker.
func TestLoadMetaBoundsCellCounts(t *testing.T) {
	file := metaTable(t)
	s := cutTable(file)
	half := (uint64(len(s.data))-uint64(len(magic)))*lzMaxCopy/(2*minBlockEntry)/2 + 1
	for name, counts := range map[string]map[string]uint64{
		"one partition": {"b": 1 << 50},
		"summed":        {"a": half, "b": half},
	} {
		s := s
		s.meta = metaWithCellCounts(s.meta, dirOffset(file), counts)
		r, err := openBytes(t, s.seal(5))
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if _, err := r.Partitions(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Partitions = %v, want ErrCorrupt", name, err)
		}
		if _, err := r.ReadPartition("b"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadPartition = %v, want ErrCorrupt", name, err)
		}
		if _, err := scanPartitions(r); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Scan = %v, want ErrCorrupt", name, err)
		}
		r.Close()
	}
}

// TestScanChecksTheFooterEntryCount: a scan counts the cells the data
// blocks yield against the footer's entry count, so a re-sealed footer
// that claims a cell more or a cell fewer than the blocks hold, or
// none, ends the scan in ErrCorrupt; the true count scans clean.
func TestScanChecksTheFooterEntryCount(t *testing.T) {
	orig := cutTable(metaTable(t))
	n := binary.LittleEndian.Uint64(orig.footer[24:])
	for _, claim := range []uint64{n, n - 1, n + 1, 0} {
		s := orig
		s.footer = bytes.Clone(orig.footer)
		binary.LittleEndian.PutUint64(s.footer[24:], claim)
		r, err := openBytes(t, s.seal(5))
		if err != nil {
			t.Fatalf("claim %d: open: %v", claim, err)
		}
		var c SliceCursor
		if err := r.Scan(&c); err != nil {
			t.Fatalf("claim %d: Scan: %v", claim, err)
		}
		cells := uint64(0)
		for c.Next() {
			cells++
		}
		if claim == n {
			if c.Err() != nil || cells != n {
				t.Errorf("true count %d: scanned %d cells, %v", n, cells, c.Err())
			}
		} else if !errors.Is(c.Err(), ErrCorrupt) {
			t.Errorf("footer claims %d of %d cells: scan ended in %v, want ErrCorrupt", claim, n, c.Err())
		}
		r.Close()
	}
}

// degenerateBlooms are bloom sections bloom.Unmarshal refuses: no
// words, a partial word, and a word count that is not a power of two.
var degenerateBlooms = []struct {
	name  string
	bloom []byte
}{
	{"empty", nil},
	{"12 bytes", make([]byte, 12)},
	{"3 words", make([]byte, 24)},
}

// TestOpenRejectsDegenerateBloom: a checksummed bloom section no writer
// produces is ErrCorrupt at Open. An empty one would otherwise panic the
// first lookup (on a node's reader goroutine, which has no recover).
func TestOpenRejectsDegenerateBloom(t *testing.T) {
	file := metaTable(t)
	for _, c := range degenerateBlooms {
		s := cutTable(file)
		s.bloom = c.bloom
		r, err := openBytes(t, s.seal(5))
		if !errors.Is(err, ErrCorrupt) {
			if err == nil {
				r.MayContain("a")
				r.Close()
			}
			t.Fatalf("%s: Open = %v, want ErrCorrupt", c.name, err)
		}
	}
}

// FuzzTableMeta fuzzes the decoders behind a table's checksums: the
// block index and partition directory (loadMeta), the bloom section and
// the footer's partition count. It writes a small multi-block table
// once, lets the fuzzer replace those sections, re-seals every CRC so
// the decoders are reached, then opens the table, lists its partitions,
// for every partition (up to 64) runs a point read, a whole-partition
// slice and a whole-partition collect, and scans the table as the
// compactor does. Properties:
//
//  1. nothing panics;
//  2. the run allocates no more than a small multiple of the file size,
//     whatever counts the sections claim;
//  3. every error is ErrCorrupt or ErrNotFound;
//  4. on any meta that loads, every partition's directory block is the
//     block a search of the whole index for its prefix finds.
//
// Every directory entry carries a type histogram, and each partition's
// is added up through the slice cursor, which must never yield more
// live cells than the partition's cell count. The seeds are the
// unmodified sections, the two crash inputs the bounds were written
// for — a meta claiming 2^40 blocks and a partition claiming 2^50 cells
// — the three bloom sections Open refuses (degenerateBlooms), and two
// histograms readMeta refuses: one whose counts sum past the
// partition's cells, one whose types are out of order.
func FuzzTableMeta(f *testing.F) {
	file := metaTable(f)
	orig := cutTable(file)
	f.Add(orig.meta, orig.bloom, uint64(5))
	f.Add(metaWithCount(orig.meta, 0, 1<<40), orig.bloom, uint64(5))
	for _, c := range degenerateBlooms {
		f.Add(orig.meta, c.bloom, uint64(5))
	}
	f.Add(metaWithCellCounts(orig.meta, dirOffset(file), map[string]uint64{"b": 1 << 50}), orig.bloom, uint64(5))
	f.Add(metaWithHistogram(orig.meta, dirOffset(file), "a", [2]uint64{0, 2}, [2]uint64{1, 2}), orig.bloom, uint64(5))
	f.Add(metaWithHistogram(orig.meta, dirOffset(file), "a", [2]uint64{1, 1}, [2]uint64{0, 1}), orig.bloom, uint64(5))
	path := filepath.Join(f.TempDir(), "t.sst")

	f.Fuzz(func(t *testing.T, meta, bloomSec []byte, partCount uint64) {
		s := orig
		s.meta, s.bloom = meta, bloomSec
		data := s.seal(partCount)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(what string, err error) {
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: %v, want ErrCorrupt or ErrNotFound", what, err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Open(path)
		check("Open", err)
		if err != nil {
			return
		}
		defer r.Close()
		r.AttachCache(NewBlockCache(1 << 20))
		pks, err := r.Partitions()
		check("Partitions", err)
		if len(pks) > 64 {
			pks = pks[:64]
		}
		var c SliceCursor
		for _, pk := range pks {
			_, _, err := r.Get(pk, ck(1))
			check("Get", err)
			if err := r.Slice(&c, pk, nil, nil); err != nil {
				check("Slice", err)
				continue
			}
			var tc row.TypeCounts
			c.TypeCounts(&tc)
			if tc.Live() > uint64(c.Cells()) {
				t.Fatalf("partition %q: %d live cells by type, %d cells", pk, tc.Live(), c.Cells())
			}
			for n := 0; c.Next() && n < 1<<12; n++ {
			}
			check("slice walk", c.Err())
			_, err = r.ReadPartition(pk)
			check("ReadPartition", err)
		}
		serr := r.Scan(&c)
		for n := 0; serr == nil && n < 1<<12 && c.Next(); n++ {
		}
		if serr == nil {
			serr = c.Err()
		}
		check("Scan", serr)
		runtime.ReadMemStats(&after)
		ops := uint64(3 + 3*len(pks))
		if got, limit := after.TotalAlloc-before.TotalAlloc, ops*64*uint64(len(data))+1<<20; got > limit {
			t.Fatalf("%d ops on a %d-byte table allocated %d bytes, limit %d", ops, len(data), got, limit)
		}
		if err != nil {
			return
		}
		m, err := r.loadMeta()
		if err != nil {
			t.Fatalf("meta loaded for Partitions, then failed: %v", err)
		}
		for i, p := range m.parts {
			pk := string(m.key(i))
			if want := blockFor(m.blocks, enc.AppendInternalKey(nil, pk, nil)); int(p.first) != want {
				t.Fatalf("partition %q: directory block %d, index search %d", pk, p.first, want)
			}
		}
	})
}

// TestSliceSearchesOnlyThePartitionsBlocks: the directory's first block
// is what a whole-index search for the partition prefix finds, and a
// bounded slice that searches only the partition's own blocks lands where
// a whole-index search for its start would — for every key and every gap,
// on a multi-block table with partitions starting exactly on a block
// boundary (with and without an empty first clustering key) and on a
// one-block table.
func TestSliceSearchesOnlyThePartitionsBlocks(t *testing.T) {
	emptyFirst := append([]row.Cell{{CK: []byte{}, Value: []byte("root")}}, makeCells(20, 32)[1:]...)
	for _, tc := range []struct {
		name   string
		parts  map[string][]row.Cell
		blocks func(n int) bool
	}{
		{"multi-block", map[string][]row.Cell{
			"p1": makeCells(20, 32), "p2": makeCells(20, 32), "p3": emptyFirst,
			"p4": makeCells(2, 8), "p5": makeCells(3, 8), "p6": nil, "p7": makeCells(40, 32),
		}, func(n int) bool { return n > 8 }},
		{"one-block", map[string][]row.Cell{"a": makeCells(2, 8), "b": makeCells(3, 8)}, func(n int) bool { return n == 1 }},
	} {
		r, err := Open(writeTable(t, WriterOptions{BlockSize: 256}, tc.parts))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		m, err := r.loadMeta()
		if err != nil {
			t.Fatal(err)
		}
		if !tc.blocks(len(m.blocks)) {
			t.Fatalf("%s: table has %d blocks", tc.name, len(m.blocks))
		}
		onBoundary := map[bool]int{} // by whether the first CK is empty
		for i, p := range m.parts {
			pk := string(m.key(i))
			prefix := enc.AppendInternalKey(nil, pk, nil)
			if want := blockFor(m.blocks, prefix); int(p.first) != want {
				t.Fatalf("%s/%s: directory block %d, index search %d", tc.name, pk, p.first, want)
			}
			cells := tc.parts[pk]
			for _, b := range m.blocks[1:] {
				if len(cells) > 0 && bytes.Equal(b.firstKey, enc.AppendInternalKey(nil, pk, cells[0].CK)) {
					onBoundary[len(cells[0].CK) == 0]++
				}
			}
			var targets [][]byte
			targets = append(targets, []byte{})
			for _, c := range cells {
				targets = append(targets, c.CK, append(append([]byte(nil), c.CK...), '!'))
			}
			var c SliceCursor
			for _, from := range targets {
				if err := r.Slice(&c, pk, from, nil); err != nil {
					t.Fatal(err)
				}
				if want := blockFor(m.blocks, c.bounds.Start()); c.bi != want {
					t.Fatalf("%s/%s from %q: slice starts at block %d, index search %d (partition %d)", tc.name, pk, from, c.bi, want, i)
				}
				got, err := r.ReadSlice(pk, from, nil)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for _, cell := range cells {
					if bytes.Compare(cell.CK, from) >= 0 {
						n++
					}
				}
				if len(got) != n {
					t.Fatalf("%s/%s from %q: %d cells, want %d", tc.name, pk, from, len(got), n)
				}
			}
		}
		if tc.name == "multi-block" && (onBoundary[true] == 0 || onBoundary[false] == 0) {
			t.Fatalf("no partition starts on a block boundary (empty first CK: %d, other: %d)", onBoundary[true], onBoundary[false])
		}
	}
}

// TestDirectoryCountsLiveCellsByType: each partition's directory entry
// counts its live cells by row.TypeOf — tombstones left out, an empty
// value counted as type 0 — and agrees with a tally over the cells the
// table returns, for partitions of one type, many types, only
// tombstones and no cells, in one block and across several.
func TestDirectoryCountsLiveCellsByType(t *testing.T) {
	mixed := makeCells(200, 8) // first value byte = cell index: 200 types
	for i := range mixed {
		switch i % 5 {
		case 1:
			mixed[i].Value, mixed[i].Tombstone = nil, true
		case 2:
			mixed[i].Value = nil
		}
	}
	oneType := makeCells(40, 8)
	for i := range oneType {
		oneType[i].Value[0] = 7
	}
	allDead := makeCells(4, 8)
	for i := range allDead {
		allDead[i].Value, allDead[i].Tombstone = nil, true
	}
	parts := map[string][]row.Cell{"mixed": mixed, "one-type": oneType, "all-dead": allDead, "empty": nil}
	r, err := Open(writeTable(t, WriterOptions{BlockSize: 256}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var c SliceCursor
	for pk, cells := range parts {
		var want row.TypeCounts
		for _, cell := range cells {
			if !cell.Tombstone {
				want.Add(row.TypeOf(cell.Value), 1)
			}
		}
		if err := r.Slice(&c, pk, nil, nil); err != nil {
			t.Fatal(err)
		}
		before := r.Stats.ReadAtCalls.Load()
		var got row.TypeCounts
		c.TypeCounts(&got)
		if r.Stats.ReadAtCalls.Load() != before {
			t.Fatalf("%s: counting by type read the file", pk)
		}
		if got != want {
			t.Errorf("%s: directory counts %d live cells in %d types, the cells %d in %d",
				pk, got.Live(), got.Types(), want.Live(), want.Types())
		}
	}
}

// TestLoadMetaChecksTypeHistograms: a checksummed directory whose type
// histogram is out of order, repeats a type, counts a type zero times,
// lists more types than cells or sums past the cell count is
// ErrCorrupt, never a count the partition cannot hold.
func TestLoadMetaChecksTypeHistograms(t *testing.T) {
	file := metaTable(t)
	s := cutTable(file)
	// Partition "a" holds three cells.
	for name, pairs := range map[string][][2]uint64{
		"unsorted":         {{1, 1}, {0, 1}},
		"repeated type":    {{1, 1}, {1, 1}},
		"zero count":       {{0, 1}, {1, 0}},
		"more types":       {{0, 1}, {1, 1}, {2, 1}, {3, 1}},
		"sum past cells":   {{0, 2}, {1, 2}},
		"one count past":   {{4, 4}},
		"huge count":       {{0, 1 << 62}, {1, 1 << 62}},
		"type count > 256": nil, // filled below
	} {
		s := s
		if pairs == nil {
			s.meta = metaWithCellCounts(s.meta, dirOffset(file), map[string]uint64{"a": 300})
			pairs = make([][2]uint64, 257)
			for i := range pairs {
				pairs[i] = [2]uint64{uint64(i), 1}
			}
		}
		s.meta = metaWithHistogram(s.meta, dirOffset(file), "a", pairs...)
		r, err := openBytes(t, s.seal(5))
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if _, err := r.Partitions(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Partitions = %v, want ErrCorrupt", name, err)
		}
		r.Close()
	}
}

// TestMetaChargeIsEveryByte pins a decoded meta's block-cache charge on
// the shape of storage's TestColdGetAllocs (keys pk%06d, four 256-byte
// cells a partition). The charge is every byte the meta holds — the
// section buffer, the block and directory records, the slots — with no
// key or histogram allocated beside the buffer, and per partition it
// stays under what the previous decoding charged while holding a string
// and a 32-byte record per partition and charging neither the buffer
// nor the slots. Decoding allocates the same few times whatever the
// partition count, so a meta the cache evicted is cheap to decode
// again.
func TestMetaChargeIsEveryByte(t *testing.T) {
	const parts = 8000
	path := filepath.Join(t.TempDir(), "cold.sst")
	w, err := NewWriter(path, WriterOptions{ExpectedPartitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 256)
	cells := make([]row.Cell, 4)
	for p := 0; p < parts; p++ {
		for c := range cells {
			cells[c] = row.Cell{CK: []byte(fmt.Sprintf("ck%06d", c)), Value: value, Ver: row.Version{Seq: uint64(p*4 + c + 1)}}
		}
		if err := w.AddPartition(fmt.Sprintf("pk%06d", p), cells); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.AttachCache(NewBlockCache(64 << 20))
	m, err := r.loadMeta()
	if err != nil {
		t.Fatal(err)
	}

	held := int64(unsafe.Sizeof(*m)) + int64(cap(m.buf)) +
		int64(cap(m.blocks))*int64(unsafe.Sizeof(m.blocks[0])) +
		int64(cap(m.parts))*int64(unsafe.Sizeof(m.parts[0])) +
		int64(cap(m.slots))*int64(unsafe.Sizeof(m.slots[0]))
	if got := m.memSize(); got != held {
		t.Fatalf("memSize %d, the meta holds %d", got, held)
	}
	inBuf := func(b []byte) bool {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(m.buf)))
		p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		return len(b) == 0 || (p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(m.buf)))
	}
	for i := range m.blocks {
		if !inBuf(m.blocks[i].firstKey) {
			t.Fatalf("block %d's first key is allocated beside the meta buffer", i)
		}
	}

	var previous int64 // the charge of the string-per-partition decoding
	for i := range m.parts {
		previous += int64(len(m.key(i))) + 32
	}
	for i := range m.blocks {
		previous += int64(len(m.blocks[i].firstKey)) + 32
	}
	if got := m.memSize(); got > previous {
		t.Fatalf("meta charge %d B (%.1f B a partition), previously %d B (%.1f)",
			got, float64(got)/parts, previous, float64(previous)/parts)
	}
	t.Logf("meta charge %d B (%.1f B a partition), previously %d B (%.1f)",
		m.memSize(), float64(m.memSize())/parts, previous, float64(previous)/parts)

	if raceflag.Enabled {
		return
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.readMeta(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 8 {
		t.Fatalf("decoding a %d-partition meta allocates %.0f times, want a constant <= 8", parts, allocs)
	}
}
