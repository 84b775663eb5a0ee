package sstable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scalekv/internal/row"
)

func ck(i int) []byte { return []byte(fmt.Sprintf("ck%06d", i)) }

func makeCells(n, valSize int) []row.Cell {
	cells := make([]row.Cell, n)
	for i := range cells {
		v := make([]byte, valSize)
		for j := range v {
			v[j] = byte(i + j)
		}
		cells[i] = row.Cell{CK: ck(i), Value: v}
	}
	return cells
}

func writeTable(t *testing.T, opts WriterOptions, parts map[string][]row.Cell) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.sst")
	w, err := NewWriter(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	var pks []string
	for pk := range parts {
		pks = append(pks, pk)
	}
	// Writer requires ascending pk order.
	for i := 0; i < len(pks); i++ {
		for j := i + 1; j < len(pks); j++ {
			if pks[j] < pks[i] {
				pks[i], pks[j] = pks[j], pks[i]
			}
		}
	}
	for _, pk := range pks {
		if err := w.AddPartition(pk, parts[pk]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWriteReadRoundTrip(t *testing.T) {
	parts := map[string][]row.Cell{
		"alpha": makeCells(10, 16),
		"beta":  makeCells(100, 32),
		"gamma": makeCells(1, 8),
	}
	r, err := Open(writeTable(t, WriterOptions{}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if r.NumPartitions() != 3 {
		t.Fatalf("partitions %d want 3", r.NumPartitions())
	}
	for pk, want := range parts {
		got, err := r.ReadPartition(pk)
		if err != nil {
			t.Fatalf("read %q: %v", pk, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d cells want %d", pk, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].CK, want[i].CK) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("%q cell %d mismatch", pk, i)
			}
		}
	}
}

func TestReadAbsentPartition(t *testing.T) {
	r, err := Open(writeTable(t, WriterOptions{}, map[string][]row.Cell{"a": makeCells(5, 8)}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadPartition("zz"); err != ErrNotFound {
		t.Fatalf("err = %v want ErrNotFound", err)
	}
	if _, err := r.ReadSlice("zz", nil, nil); err != ErrNotFound {
		t.Fatalf("slice err = %v want ErrNotFound", err)
	}
}

func TestBloomFilter(t *testing.T) {
	parts := map[string][]row.Cell{}
	for i := 0; i < 200; i++ {
		parts[fmt.Sprintf("pk%04d", i)] = makeCells(3, 8)
	}
	r, err := Open(writeTable(t, WriterOptions{ExpectedPartitions: 200}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for pk := range parts {
		if !r.MayContain(pk) {
			t.Fatalf("bloom false negative for %q", pk)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if r.MayContain(fmt.Sprintf("absent%06d", i)) {
			fp++
		}
	}
	if fp > 50 {
		t.Fatalf("bloom false positives %d/1000, too many", fp)
	}
}

func TestColumnIndexPresenceByThreshold(t *testing.T) {
	// A partition of 100 cells x 16B (~2KB) fits one 4KB block and
	// stays unindexed while 1000 cells x 16B (~20KB) spans several and
	// gets indexed — the Cassandra behaviour behind the paper's
	// 1425-item break.
	parts := map[string][]row.Cell{
		"small": makeCells(100, 16),
		"large": makeCells(1000, 16),
	}
	r, err := Open(writeTable(t, WriterOptions{ColumnIndexSize: 4 << 10}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if has, _ := r.HasColumnIndex("small"); has {
		t.Fatal("small partition unexpectedly indexed")
	}
	if has, _ := r.HasColumnIndex("large"); !has {
		t.Fatal("large partition missing column index")
	}
}

func TestSliceWithColumnIndexSeeks(t *testing.T) {
	const n = 5000
	parts := map[string][]row.Cell{"big": makeCells(n, 64)}
	r, err := Open(writeTable(t, WriterOptions{ColumnIndexSize: 8 << 10}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	got, err := r.ReadSlice("big", ck(4000), ck(4100))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("slice returned %d cells want 100", len(got))
	}
	for i, c := range got {
		if !bytes.Equal(c.CK, ck(4000+i)) {
			t.Fatalf("cell %d is %q", i, c.CK)
		}
	}
	if r.Stats.SeeksSaved.Load() == 0 {
		t.Fatal("column index did not skip any bytes for a deep slice")
	}
	// A slice near the end must read far less than the whole partition.
	read := r.Stats.BytesRead.Load()
	full := int64(n * (64 + 8 + 4))
	if read > full/2 {
		t.Fatalf("slice read %d bytes, more than half the partition (%d)", read, full)
	}
}

func TestSliceWithoutIndexScansFromStart(t *testing.T) {
	parts := map[string][]row.Cell{"small": makeCells(100, 16)}
	r, err := Open(writeTable(t, WriterOptions{}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadSlice("small", ck(50), ck(60))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d cells want 10", len(got))
	}
	if r.Stats.SeeksSaved.Load() != 0 {
		t.Fatal("unindexed partition cannot save seeks")
	}
}

func TestSliceUnboundedEqualsFullRead(t *testing.T) {
	parts := map[string][]row.Cell{"p": makeCells(2000, 32)}
	r, err := Open(writeTable(t, WriterOptions{ColumnIndexSize: 4 << 10}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	full, err := r.ReadPartition("p")
	if err != nil {
		t.Fatal(err)
	}
	sl, err := r.ReadSlice("p", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(sl) {
		t.Fatalf("full %d vs slice %d", len(full), len(sl))
	}
	for i := range full {
		if !bytes.Equal(full[i].CK, sl[i].CK) {
			t.Fatalf("cell %d mismatch", i)
		}
	}
}

func TestDisabledColumnIndex(t *testing.T) {
	parts := map[string][]row.Cell{"big": makeCells(3000, 64)}
	r, err := Open(writeTable(t, WriterOptions{ColumnIndexSize: -1}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if has, _ := r.HasColumnIndex("big"); has {
		t.Fatal("column index present despite being disabled")
	}
	got, err := r.ReadSlice("big", ck(2900), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d cells want 100", len(got))
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.sst")
	w, err := NewWriter(path, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddPartition("m", makeCells(1, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.AddPartition("a", makeCells(1, 8)); err == nil {
		t.Fatal("out-of-order partition accepted")
	}
	w.Close()
}

func TestWriterRejectsUnsortedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad2.sst")
	w, err := NewWriter(path, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cells := []row.Cell{{CK: ck(5)}, {CK: ck(1)}}
	if err := w.AddPartition("p", cells); err == nil {
		t.Fatal("unsorted cells accepted")
	}
	w.Close()
}

func TestOpenRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	// Too short.
	short := filepath.Join(dir, "short.sst")
	os.WriteFile(short, []byte("tiny"), 0o644)
	if _, err := Open(short); err == nil {
		t.Fatal("opened a too-short file")
	}
	// Valid file with a flipped bloom byte must fail the CRC.
	good := writeTable(t, WriterOptions{}, map[string][]row.Cell{"a": makeCells(10, 8)})
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-footerSize-2] ^= 0xFF
	bad := filepath.Join(dir, "bad.sst")
	os.WriteFile(bad, data, 0o644)
	if _, err := Open(bad); err == nil {
		t.Fatal("opened a corrupt file")
	}
	// Bad magic.
	data2, _ := os.ReadFile(good)
	copy(data2[len(data2)-4:], "XXXX")
	bad2 := filepath.Join(dir, "bad2.sst")
	os.WriteFile(bad2, data2, 0o644)
	if _, err := Open(bad2); err == nil {
		t.Fatal("opened file with bad magic")
	}
}

func TestEmptyTable(t *testing.T) {
	r, err := Open(writeTable(t, WriterOptions{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumPartitions() != 0 {
		t.Fatal("empty table has partitions")
	}
}

func TestEmptyPartition(t *testing.T) {
	r, err := Open(writeTable(t, WriterOptions{}, map[string][]row.Cell{"empty": nil}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cells, err := r.ReadPartition("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("empty partition returned %d cells", len(cells))
	}
}

func TestPartitionsListing(t *testing.T) {
	parts := map[string][]row.Cell{"c": nil, "a": nil, "b": nil}
	r, err := Open(writeTable(t, WriterOptions{}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func BenchmarkReadPartition1000Cells(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.sst")
	w, _ := NewWriter(path, WriterOptions{})
	w.AddPartition("p", makeCells(1000, 64))
	w.Close()
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadPartition("p"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSliceIndexed(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.sst")
	w, _ := NewWriter(path, WriterOptions{ColumnIndexSize: 16 << 10})
	w.AddPartition("p", makeCells(20000, 64))
	w.Close()
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadSlice("p", ck(19000), ck(19100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSliceUnindexed(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.sst")
	w, _ := NewWriter(path, WriterOptions{ColumnIndexSize: -1})
	w.AddPartition("p", makeCells(20000, 64))
	w.Close()
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadSlice("p", ck(19000), ck(19100)); err != nil {
			b.Fatal(err)
		}
	}
}
