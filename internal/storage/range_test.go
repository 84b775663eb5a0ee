package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"scalekv/internal/row"
	"scalekv/internal/sstable"
)

// rangeTestLoad ingests nParts partitions of cellsPer cells each and
// returns the partition keys sorted by (token, pk) — the order ScanRange
// must produce.
func rangeTestLoad(t *testing.T, e *Engine, nParts, cellsPer int) []string {
	t.Helper()
	pks := make([]string, nParts)
	for p := 0; p < nParts; p++ {
		pk := fmt.Sprintf("part-%04d", p)
		pks[p] = pk
		for c := 0; c < cellsPer; c++ {
			if err := e.Put(pk, ck(c), []byte(fmt.Sprintf("%s/%d", pk, c))); err != nil {
				t.Fatal(err)
			}
		}
	}
	sort.Slice(pks, func(a, b int) bool {
		ta, tb := PartitionToken(pks[a]), PartitionToken(pks[b])
		if ta != tb {
			return ta < tb
		}
		return pks[a] < pks[b]
	})
	return pks
}

func TestScanRangeFullSpaceTokenOrdered(t *testing.T) {
	e := openTest(t, Options{})
	pks := rangeTestLoad(t, e, 40, 5)
	page, err := e.ScanRange(math.MinInt64, math.MaxInt64, math.MinInt64, "", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if page.More {
		t.Fatal("single huge page reported More")
	}
	if len(page.Entries) != 40*5 {
		t.Fatalf("scanned %d cells want %d", len(page.Entries), 200)
	}
	// Partitions must appear in (token, pk) order, contiguously.
	var seen []string
	for _, ent := range page.Entries {
		if len(seen) == 0 || seen[len(seen)-1] != ent.PK {
			seen = append(seen, ent.PK)
		}
	}
	if len(seen) != len(pks) {
		t.Fatalf("saw %d partitions want %d", len(seen), len(pks))
	}
	for i := range pks {
		if seen[i] != pks[i] {
			t.Fatalf("position %d: %s want %s (token order violated)", i, seen[i], pks[i])
		}
	}
}

func TestScanRangePagination(t *testing.T) {
	e := openTest(t, Options{})
	rangeTestLoad(t, e, 30, 7)
	// Flush half so pages merge memtable + SSTable sources.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	rangeTestLoad(t, e, 30, 7) // overwrite same cells; dedup must hold

	var got []string
	afterTok, afterPK := int64(math.MinInt64), ""
	pages := 0
	for {
		page, err := e.ScanRange(math.MinInt64, math.MaxInt64, afterTok, afterPK, 20)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, ent := range page.Entries {
			got = append(got, ent.PK+"/"+string(ent.CK))
		}
		if !page.More {
			break
		}
		afterTok, afterPK = page.NextToken, page.NextPK
		if pages > 100 {
			t.Fatal("pagination did not terminate")
		}
	}
	if pages < 2 {
		t.Fatalf("expected multiple pages, got %d", pages)
	}
	if len(got) != 30*7 {
		t.Fatalf("paged scan yielded %d cells want %d (duplicates or losses)", len(got), 210)
	}
	dedup := map[string]bool{}
	for _, k := range got {
		if dedup[k] {
			t.Fatalf("cell %s appeared twice across pages", k)
		}
		dedup[k] = true
	}
}

func TestScanRangeRespectsBounds(t *testing.T) {
	e := openTest(t, Options{})
	pks := rangeTestLoad(t, e, 32, 3)
	// Use the median partition token as a split point.
	mid := PartitionToken(pks[len(pks)/2])
	low, err := e.ScanRange(math.MinInt64, mid, math.MinInt64, "", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	high, err := e.ScanRange(mid+1, math.MaxInt64, math.MinInt64, "", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Entries)+len(high.Entries) != 32*3 {
		t.Fatalf("split scan covers %d+%d cells want %d", len(low.Entries), len(high.Entries), 96)
	}
	for _, ent := range low.Entries {
		if PartitionToken(ent.PK) > mid {
			t.Fatalf("low scan leaked token above mid: %s", ent.PK)
		}
	}
	for _, ent := range high.Entries {
		if PartitionToken(ent.PK) <= mid {
			t.Fatalf("high scan leaked token at/below mid: %s", ent.PK)
		}
	}
}

func TestDeleteRangeRetiresPartitions(t *testing.T) {
	e := openTest(t, Options{})
	pks := rangeTestLoad(t, e, 24, 4)
	mid := PartitionToken(pks[len(pks)/2])

	inRange := func(pk string) bool { return PartitionToken(pk) <= mid }
	var wantRemoved int64
	for _, pk := range pks {
		if inRange(pk) {
			wantRemoved += 4
		}
	}

	removed, err := e.DeleteRange(math.MinInt64, mid)
	if err != nil {
		t.Fatal(err)
	}
	if removed != wantRemoved {
		t.Fatalf("DeleteRange removed %d cells want %d", removed, wantRemoved)
	}
	// Retired partitions are gone through every read path.
	for _, pk := range pks {
		cells, err := e.ScanPartition(pk, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inRange(pk) && len(cells) != 0 {
			t.Fatalf("retired partition %s still readable (%d cells)", pk, len(cells))
		}
		if !inRange(pk) && len(cells) != 4 {
			t.Fatalf("surviving partition %s lost cells: %d", pk, len(cells))
		}
	}
	page, err := e.ScanRange(math.MinInt64, mid, math.MinInt64, "", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 0 {
		t.Fatalf("ScanRange still sees %d cells in the retired range", len(page.Entries))
	}
	if e.Stats().RangePurges == 0 {
		t.Fatal("no purge recorded in stats")
	}
	// Second delete of the same range is a no-op.
	removed, err = e.DeleteRange(math.MinInt64, mid)
	if err != nil || removed != 0 {
		t.Fatalf("re-delete removed %d, err %v", removed, err)
	}
}

func TestDeleteRangeEverythingLeavesEmptyShards(t *testing.T) {
	e := openTest(t, Options{})
	rangeTestLoad(t, e, 16, 2)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	removed, err := e.DeleteRange(math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 32 {
		t.Fatalf("removed %d want 32", removed)
	}
	if got := partitionsOf(t, e); len(got) != 0 {
		t.Fatalf("%d partitions survive a full-space delete", len(got))
	}
	if n := e.Stats().SSTables; n != 0 {
		t.Fatalf("%d sstables survive a full-space delete", n)
	}
	// The engine stays writable afterwards.
	if err := e.Put("fresh", ck(0), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e.Get("fresh", ck(0)); !ok {
		t.Fatal("write after full purge lost")
	}
}

func TestConcurrentDeleteRangesBothApply(t *testing.T) {
	// Two DeleteRanges racing on the same shards: neither request may be
	// dropped (the worker must not clear a purge request it does not
	// own), and both report their own removed counts.
	e := openTest(t, Options{Shards: 2})
	pks := rangeTestLoad(t, e, 40, 3)
	mid := PartitionToken(pks[len(pks)/2])

	var wg sync.WaitGroup
	removed := make([]int64, 2)
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); removed[0], errs[0] = e.DeleteRange(math.MinInt64, mid) }()
	go func() { defer wg.Done(); removed[1], errs[1] = e.DeleteRange(mid+1, math.MaxInt64) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if total := removed[0] + removed[1]; total != int64(40*3) {
		t.Fatalf("concurrent deletes removed %d cells want %d (%v)", total, 120, removed)
	}
	if got := partitionsOf(t, e); len(got) != 0 {
		t.Fatalf("%d partitions survived two covering deletes", len(got))
	}
}

func TestCountRange(t *testing.T) {
	e := openTest(t, Options{})
	pks := rangeTestLoad(t, e, 10, 6)
	mid := PartitionToken(pks[4])
	var want int64
	for _, pk := range pks {
		if PartitionToken(pk) <= mid {
			want += 6
		}
	}
	got, err := e.CountRange(math.MinInt64, mid)
	if err != nil || got != want {
		t.Fatalf("CountRange = %d, %v want %d", got, err, want)
	}
}

// TestRangeOpsSurfaceUnreadablePartitionDirectory: a table whose block
// index / partition directory fails its CRC opens fine (the section
// loads lazily, bounds come from the manifest), so the damage first
// shows when the partition index enumerates it. Every range operation
// must then fail with the cause — and keep failing, not cache an index
// that silently lacks the table's partitions.
func TestRangeOpsSurfaceUnreadablePartitionDirectory(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	rangeTestLoad(t, e, 8, 3)
	if err := e.Close(); err != nil { // Close flushes
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "sst-*.db"))
	if len(names) != 1 {
		t.Fatalf("%d tables, want 1", len(names))
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	blockIdxOff := binary.LittleEndian.Uint64(data[len(data)-64:]) // first footer field
	data[blockIdxOff+1] ^= 0xFF
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := openTest(t, Options{Dir: dir})
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	for pass := 0; pass < 2; pass++ {
		if page, err := e2.ScanRange(lo, hi, math.MinInt64, "", 0); !errors.Is(err, sstable.ErrCorrupt) {
			t.Fatalf("pass %d: ScanRange returned %v, %v; want ErrCorrupt", pass, page, err)
		}
		if n, err := e2.CountRange(lo, hi); !errors.Is(err, sstable.ErrCorrupt) {
			t.Fatalf("pass %d: CountRange returned %d, %v; want ErrCorrupt", pass, n, err)
		}
		if _, err := e2.RangeDigest(lo, hi, 2); !errors.Is(err, sstable.ErrCorrupt) {
			t.Fatalf("pass %d: RangeDigest returned %v; want ErrCorrupt", pass, err)
		}
		if pks, err := e2.Partitions(); !errors.Is(err, sstable.ErrCorrupt) {
			t.Fatalf("pass %d: Partitions returned %v, %v; want ErrCorrupt", pass, pks, err)
		}
	}
}

func TestStatsTracksShardsAndFlushes(t *testing.T) {
	e := openTest(t, Options{Shards: 4})
	rangeTestLoad(t, e, 20, 10)
	st := e.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("stats over %d shards want 4", len(st.Shards))
	}
	if st.MemtableBytes == 0 {
		t.Fatal("ingested data but MemtableBytes is zero")
	}
	if st.MemtableBytes != e.MemtableBytes() {
		t.Fatalf("stats memtable bytes %d != engine %d", st.MemtableBytes, e.MemtableBytes())
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Flushes == 0 || st.FlushedBytes == 0 {
		t.Fatalf("flush not reflected: flushes=%d bytes=%d", st.Flushes, st.FlushedBytes)
	}
	if st.SSTables != e.NumSSTables() {
		t.Fatalf("stats sstables %d != engine %d", st.SSTables, e.NumSSTables())
	}
	if st.MemtableBytes != 0 {
		t.Fatalf("flushed engine still reports %d memtable bytes", st.MemtableBytes)
	}
}

func TestSyncModesDurable(t *testing.T) {
	for _, mode := range []SyncMode{SyncNever, SyncOnSeal, SyncAlways} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			dir := t.TempDir()
			e, err := Open(Options{Dir: dir, Sync: mode})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if err := e.Put(fmt.Sprintf("p%d", i%5), ck(i), []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			var entries []row.Entry
			for p := 0; p < 3; p++ {
				for c := 0; c < 10; c++ {
					entries = append(entries, row.Entry{
						PK: fmt.Sprintf("batch-%d", p), CK: ck(c), Value: []byte{byte(p), byte(c)},
					})
				}
			}
			if err := e.PutBatch(entries); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			// Reopen: all data must replay, whatever the sync policy.
			re, err := Open(Options{Dir: dir, Sync: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			for i := 0; i < 50; i++ {
				v, ok, err := re.Get(fmt.Sprintf("p%d", i%5), ck(i))
				if err != nil || !ok || v[0] != byte(i) {
					t.Fatalf("cell %d lost after reopen: %v %v %v", i, v, ok, err)
				}
			}
			for _, ent := range entries {
				if _, ok, _ := re.Get(ent.PK, ent.CK); !ok {
					t.Fatalf("batch cell %s/%s lost after reopen", ent.PK, ent.CK)
				}
			}
		})
	}
}
