package memtable

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"scalekv/internal/enc"
	"scalekv/internal/raceflag"
	"scalekv/internal/row"
)

// put stores a live cell with an auto-incremented version, standing in
// for the engine's stamp.
var testSeq uint64

func put(m *Memtable, pk string, ck, value []byte) {
	testSeq++
	m.Put(pk, ck, value, row.Version{Seq: testSeq}, false)
}

func TestPutGet(t *testing.T) {
	m := New(1, 0)
	put(m, "p1", []byte("c1"), []byte("v1"))
	put(m, "p1", []byte("c2"), []byte("v2"))
	put(m, "p2", []byte("c1"), []byte("v3"))
	v, _, _, ok := m.Get("p1", []byte("c1"))
	if !ok || string(v) != "v1" {
		t.Fatalf("got %q,%v", v, ok)
	}
	if _, _, _, ok := m.Get("p3", []byte("c1")); ok {
		t.Fatal("found absent partition")
	}
	if m.Len() != 3 {
		t.Fatalf("len %d want 3", m.Len())
	}
}

func TestLastWriteWinsByVersion(t *testing.T) {
	m := New(1, 0)
	m.Put("p", []byte("c"), []byte("new"), row.Version{Seq: 10, Node: 2}, false)
	// A stale copy arriving later must not clobber the newer cell.
	m.Put("p", []byte("c"), []byte("old"), row.Version{Seq: 5, Node: 7}, false)
	v, ver, _, ok := m.Get("p", []byte("c"))
	if !ok || string(v) != "new" || ver.Seq != 10 {
		t.Fatalf("stale write won: %q ver=%+v", v, ver)
	}
	// A higher version replaces.
	m.Put("p", []byte("c"), []byte("newest"), row.Version{Seq: 11, Node: 1}, false)
	if v, _, _, _ := m.Get("p", []byte("c")); string(v) != "newest" {
		t.Fatalf("newer write lost: %q", v)
	}
	// Equal sequence: the higher node wins; same version: idempotent.
	m.Put("p", []byte("c"), []byte("tie"), row.Version{Seq: 11, Node: 3}, false)
	if v, ver, _, _ := m.Get("p", []byte("c")); string(v) != "tie" || ver.Node != 3 {
		t.Fatalf("node tie-break failed: %q ver=%+v", v, ver)
	}
	if m.Len() != 1 {
		t.Fatalf("len %d want 1", m.Len())
	}
}

func TestTombstoneStoredAndVersioned(t *testing.T) {
	m := New(1, 0)
	m.Put("p", []byte("c"), []byte("v"), row.Version{Seq: 1}, false)
	m.Put("p", []byte("c"), nil, row.Version{Seq: 2}, true)
	_, ver, tomb, ok := m.Get("p", []byte("c"))
	if !ok || !tomb || ver.Seq != 2 {
		t.Fatalf("tombstone not stored: ok=%v tomb=%v ver=%+v", ok, tomb, ver)
	}
	// A stale put cannot resurrect the cell.
	m.Put("p", []byte("c"), []byte("zombie"), row.Version{Seq: 1}, false)
	if _, _, tomb, _ := m.Get("p", []byte("c")); !tomb {
		t.Fatal("stale put resurrected a deleted cell")
	}
	// Tombstones appear in scans (the engine merges and masks them).
	cells := m.ScanPartition("p", nil, nil)
	if len(cells) != 1 || !cells[0].Tombstone {
		t.Fatalf("scan hid the tombstone: %+v", cells)
	}
}

func TestMinMaxVersionTracked(t *testing.T) {
	m := New(1, 0)
	if _, ok := m.MinVersion(); ok {
		t.Fatal("empty memtable reports a min version")
	}
	m.Put("p", []byte("a"), nil, row.Version{Seq: 7}, false)
	m.Put("p", []byte("b"), nil, row.Version{Seq: 3}, false)
	m.Put("p", []byte("c"), nil, row.Version{Seq: 9}, true)
	if min, ok := m.MinVersion(); !ok || min.Seq != 3 {
		t.Fatalf("min = %+v, %v", min, ok)
	}
	if max := m.MaxVersion(); max.Seq != 9 {
		t.Fatalf("max = %+v", max)
	}
}

func TestValueIsCopied(t *testing.T) {
	m := New(1, 0)
	buf := []byte("original")
	put(m, "p", []byte("c"), buf)
	copy(buf, "CLOBBER!")
	v, _, _, _ := m.Get("p", []byte("c"))
	if string(v) != "original" {
		t.Fatalf("stored value aliased caller buffer: %q", v)
	}
}

func TestScanPartitionIsolation(t *testing.T) {
	m := New(1, 0)
	// Partition keys chosen so one is a prefix of another.
	for i := 0; i < 5; i++ {
		put(m, "a", []byte{byte(i)}, []byte("va"))
		put(m, "ab", []byte{byte(i)}, []byte("vab"))
	}
	cells := m.ScanPartition("a", nil, nil)
	if len(cells) != 5 {
		t.Fatalf("partition a has %d cells want 5", len(cells))
	}
	for _, c := range cells {
		if string(c.Value) != "va" {
			t.Fatalf("cell from wrong partition: %q", c.Value)
		}
	}
}

func TestScanPartitionRange(t *testing.T) {
	m := New(1, 0)
	for i := 0; i < 10; i++ {
		put(m, "p", []byte{byte(i)}, []byte{byte(i)})
	}
	cells := m.ScanPartition("p", []byte{3}, []byte{7})
	if len(cells) != 4 {
		t.Fatalf("got %d cells want 4", len(cells))
	}
	if cells[0].CK[0] != 3 || cells[3].CK[0] != 6 {
		t.Fatalf("range [%d,%d] want [3,6]", cells[0].CK[0], cells[3].CK[0])
	}
}

func TestScanOrdering(t *testing.T) {
	m := New(1, 0)
	for i := 9; i >= 0; i-- { // insert in reverse
		put(m, "p", []byte{byte(i)}, nil)
	}
	cells := m.ScanPartition("p", nil, nil)
	for i, c := range cells {
		if c.CK[0] != byte(i) {
			t.Fatalf("position %d has ck %d", i, c.CK[0])
		}
	}
}

func TestFreezeMakesImmutable(t *testing.T) {
	m := New(1, 0)
	put(m, "p", []byte("c"), []byte("v"))
	if m.Frozen() {
		t.Fatal("fresh memtable reports frozen")
	}
	m.Freeze()
	if !m.Frozen() {
		t.Fatal("Freeze did not mark the memtable")
	}
	// Reads keep working on a frozen memtable.
	if v, _, _, ok := m.Get("p", []byte("c")); !ok || string(v) != "v" {
		t.Fatalf("frozen read got %q,%v", v, ok)
	}
	if got := len(m.ScanPartition("p", nil, nil)); got != 1 {
		t.Fatalf("frozen scan got %d cells", got)
	}
	// Writes must panic: a write after the freeze would be silently
	// dropped when the frozen table is retired.
	mustPanic(t, func() { put(m, "p", []byte("c2"), []byte("v2")) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("write to frozen memtable did not panic")
		}
	}()
	fn()
}

// TestScanVisitsAllSorted walks a whole memtable with Scan: every cell
// once, in internal-key order (by partition, then clustering key), with
// its version.
func TestScanVisitsAllSorted(t *testing.T) {
	m := New(1, 0)
	const n = 100
	for i := 0; i < n; i++ {
		put(m, fmt.Sprintf("p%02d", i%10), []byte{byte(i / 10)}, []byte{1})
	}
	var count int
	lastPK := ""
	var lastCK []byte
	var c Cursor
	for m.Scan(&c); c.Next(); {
		ik, _, ver, _ := c.Cell()
		pk, ck, err := enc.DecodeInternalKey(ik)
		if err != nil {
			t.Fatal(err)
		}
		if pk < lastPK {
			t.Fatalf("partition order violated: %q after %q", pk, lastPK)
		}
		if pk == lastPK && bytes.Compare(ck, lastCK) <= 0 {
			t.Fatalf("ck order violated in %q", pk)
		}
		if ver.IsZero() {
			t.Fatal("Scan dropped the cell version")
		}
		lastPK, lastCK = pk, ck
		count++
	}
	if count != n {
		t.Fatalf("visited %d want %d", count, n)
	}
}

func TestPartitions(t *testing.T) {
	m := New(1, 0)
	for _, pk := range []string{"z", "a", "m", "a", "z"} {
		put(m, pk, []byte("c"), nil)
	}
	got := m.Partitions()
	want := []string{"a", "m", "z"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// TestPartitionsAllocs pins Partitions at one allocation per partition
// (its key) plus the result slice's growth, however many cells each
// partition holds: a key is decoded only where the partition changes.
func TestPartitionsAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const parts, cells = 50, 40
	m := New(1, 4<<20)
	for p := 0; p < parts; p++ {
		for c := 0; c < cells; c++ {
			put(m, fmt.Sprintf("pk%03d", p), []byte(fmt.Sprintf("ck%03d", c)), []byte("v"))
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := len(m.Partitions()); got != parts {
			t.Fatalf("%d partitions, want %d", got, parts)
		}
	})
	if allocs > parts+10 {
		t.Fatalf("Partitions allocates %.0f times over %d partitions of %d cells, want at most %d", allocs, parts, cells, parts+10)
	}
}

func TestBytesTracksPayload(t *testing.T) {
	m := New(1, 0)
	put(m, "p", []byte("ck"), []byte("value"))
	if m.Bytes() <= 0 {
		t.Fatal("bytes not tracked")
	}
}

func TestConcurrentReadersOneWriter(t *testing.T) {
	m := New(1, 0)
	for i := 0; i < 1000; i++ {
		put(m, "warm", []byte(fmt.Sprintf("%04d", i)), []byte("v"))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.ScanPartition("warm", nil, nil)
					m.Get("warm", []byte("0500"))
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		put(m, "writes", []byte(fmt.Sprintf("%04d", i)), []byte("v"))
	}
	close(stop)
	wg.Wait()
	if got := len(m.ScanPartition("writes", nil, nil)); got != 2000 {
		t.Fatalf("writer landed %d cells want 2000", got)
	}
}

func BenchmarkPut(b *testing.B) {
	m := New(1, 0)
	cks := make([][]byte, b.N)
	for i := range cks {
		cks[i] = []byte(fmt.Sprintf("%09d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put("bench", cks[i], cks[i], row.Version{Seq: uint64(i + 1)}, false)
	}
}

func BenchmarkScanPartition1000(b *testing.B) {
	m := New(1, 0)
	for i := 0; i < 1000; i++ {
		put(m, "bench", []byte(fmt.Sprintf("%09d", i)), make([]byte, 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := m.ScanPartition("bench", nil, nil); len(got) != 1000 {
			b.Fatal("bad scan")
		}
	}
}
