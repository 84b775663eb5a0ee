package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"scalekv/internal/row"
)

func ck(i int) []byte { return []byte(fmt.Sprintf("ck%06d", i)) }

func openTest(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// partitionsOf is Engine.Partitions for tests that expect it to succeed.
func partitionsOf(t *testing.T, e *Engine) []string {
	t.Helper()
	pks, err := e.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	return pks
}

func TestPutGet(t *testing.T) {
	e := openTest(t, Options{})
	if err := e.Put("p1", ck(1), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := e.Get("p1", ck(1))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("got %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := e.Get("p1", ck(2)); ok {
		t.Fatal("found absent cell")
	}
	if _, ok, _ := e.Get("p9", ck(1)); ok {
		t.Fatal("found absent partition")
	}
}

func TestGetAcrossFlush(t *testing.T) {
	e := openTest(t, Options{})
	e.Put("p", ck(1), []byte("before-flush"))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.NumSSTables() != 1 {
		t.Fatalf("sstables %d want 1", e.NumSSTables())
	}
	v, ok, err := e.Get("p", ck(1))
	if err != nil || !ok || string(v) != "before-flush" {
		t.Fatalf("got %q,%v,%v after flush", v, ok, err)
	}
}

func TestNewestVersionWinsAcrossTables(t *testing.T) {
	e := openTest(t, Options{})
	e.Put("p", ck(1), []byte("v1"))
	e.Flush()
	e.Put("p", ck(1), []byte("v2"))
	e.Flush()
	e.Put("p", ck(1), []byte("v3")) // still in memtable

	v, ok, _ := e.Get("p", ck(1))
	if !ok || string(v) != "v3" {
		t.Fatalf("got %q want v3 (memtable newest)", v)
	}
	cells, err := e.ScanPartition("p", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || string(cells[0].Value) != "v3" {
		t.Fatalf("scan returned %d cells, first %q", len(cells), cells[0].Value)
	}
}

func TestScanMergesMemtableAndSSTables(t *testing.T) {
	e := openTest(t, Options{})
	for i := 0; i < 50; i++ {
		e.Put("p", ck(i), []byte("old"))
	}
	e.Flush()
	for i := 50; i < 100; i++ {
		e.Put("p", ck(i), []byte("new"))
	}
	cells, err := e.ScanPartition("p", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 100 {
		t.Fatalf("scan returned %d cells want 100", len(cells))
	}
	for i, c := range cells {
		if !bytes.Equal(c.CK, ck(i)) {
			t.Fatalf("cell %d has ck %q", i, c.CK)
		}
	}
}

func TestScanRange(t *testing.T) {
	e := openTest(t, Options{})
	for i := 0; i < 100; i++ {
		e.Put("p", ck(i), []byte{byte(i)})
	}
	e.Flush()
	cells, err := e.ScanPartition("p", ck(10), ck(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 10 {
		t.Fatalf("range scan returned %d want 10", len(cells))
	}
}

func TestPutBatchMatchesSinglePuts(t *testing.T) {
	// N single Puts and one PutBatch must leave identical engine state.
	single := openTest(t, Options{})
	batch := openTest(t, Options{})
	var entries []row.Entry
	for p := 0; p < 5; p++ {
		pk := fmt.Sprintf("part-%d", p)
		for i := 0; i < 40; i++ {
			e := row.Entry{PK: pk, CK: ck(i), Value: []byte(fmt.Sprintf("v%d-%d", p, i))}
			entries = append(entries, e)
			if err := single.Put(e.PK, e.CK, e.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := batch.PutBatch(entries); err != nil {
		t.Fatal(err)
	}
	if got, want := batch.Metrics.Puts.Load(), single.Metrics.Puts.Load(); got != want {
		t.Fatalf("batch counted %d puts want %d", got, want)
	}
	for _, e := range []*Engine{single, batch} {
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !samePartitions(t, single, batch) {
		t.Fatal("batch and single-put engines diverged")
	}
}

func samePartitions(t *testing.T, a, b *Engine) bool {
	t.Helper()
	apks, bpks := partitionsOf(t, a), partitionsOf(t, b)
	if len(apks) != len(bpks) {
		t.Logf("partition counts differ: %d vs %d", len(apks), len(bpks))
		return false
	}
	for i, pk := range apks {
		if bpks[i] != pk {
			return false
		}
		ac, err := a.ScanPartition(pk, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := b.ScanPartition(pk, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ac) != len(bc) {
			t.Logf("%s: %d vs %d cells", pk, len(ac), len(bc))
			return false
		}
		for j := range ac {
			if !bytes.Equal(ac[j].CK, bc[j].CK) || !bytes.Equal(ac[j].Value, bc[j].Value) {
				return false
			}
		}
	}
	return true
}

func TestPutBatchWALRecovery(t *testing.T) {
	// A group-committed batch must replay exactly like per-put records.
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var entries []row.Entry
	for i := 0; i < 64; i++ {
		entries = append(entries, row.Entry{
			PK: fmt.Sprintf("part-%d", i%4), CK: ck(i), Value: []byte(fmt.Sprintf("v%d", i)),
		})
	}
	if err := e.PutBatch(entries); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: close the WAL files only, no flush.
	crashForTest(e)

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for _, ent := range entries {
		v, ok, _ := e2.Get(ent.PK, ent.CK)
		if !ok || !bytes.Equal(v, ent.Value) {
			t.Fatalf("lost entry %s/%s after recovery: %q,%v", ent.PK, ent.CK, v, ok)
		}
	}
}

func TestPutBatchTriggersFlush(t *testing.T) {
	e := openTest(t, Options{FlushThreshold: 1 << 10, DisableWAL: true})
	var entries []row.Entry
	for i := 0; i < 64; i++ {
		entries = append(entries, row.Entry{PK: "big", CK: ck(i), Value: make([]byte, 64)})
	}
	if err := e.PutBatch(entries); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if e.NumSSTables() == 0 {
		t.Fatal("batch crossing the flush threshold did not flush")
	}
}

func TestPutBatchEmptyAndClosed(t *testing.T) {
	e := openTest(t, Options{DisableWAL: true})
	if err := e.PutBatch(nil); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := e.PutBatch([]row.Entry{{PK: "p", CK: ck(0), Value: []byte("v")}}); err == nil {
		t.Fatal("closed engine accepted a batch")
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		e.Put("recover", ck(i), []byte(fmt.Sprintf("v%d", i)))
	}
	// Simulate a crash: close the WAL files only, no flush.
	crashForTest(e)

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// Recovered data is readable immediately (from the frozen replay
	// memtable) and the background flusher turns it into an SSTable.
	for i := 0; i < 100; i++ {
		v, ok, _ := e2.Get("recover", ck(i))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("lost cell %d after recovery: %q,%v", i, v, ok)
		}
	}
	if err := e2.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if e2.NumSSTables() == 0 {
		t.Fatal("recovered memtable never reached an SSTable")
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) != 0 {
		t.Fatalf("replayed segments not retired after flush: %v", segs)
	}
}

func TestWALTornTailTolerated(t *testing.T) {
	// What a crashed append can leave after the last intact record. None
	// of it may fail Open, cost the intact record, or surface as a cell.
	for name, tail := range map[string][]byte{
		"garbage":         {9, 9, 9},
		"zero-filled":     make([]byte, 8), // length 0, CRC 0: the empty payload checksums clean
		"1 GiB length":    {0, 0, 0, 0x40, 1, 2, 3, 4, 5},
		"retired op":      retiredOpRecord(),
		"truncated field": appendRecordV2(nil, "p", ck(2), []byte("cut"), row.Version{Seq: 9}, false)[:20],
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e, _ := Open(Options{Dir: dir})
			e.Put("p", ck(1), []byte("good"))
			crashForTest(e)

			segs, _ := filepath.Glob(filepath.Join(dir, "wal-s*.log"))
			if len(segs) != 1 {
				t.Fatalf("want exactly 1 WAL segment, got %v", segs)
			}
			f, _ := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0o644)
			f.Write(tail)
			f.Close()

			e2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			cells, err := e2.ScanPartition("p", nil, nil)
			if err != nil || len(cells) != 1 || string(cells[0].Value) != "good" {
				t.Fatalf("recovered %v (err %v), want exactly the intact record", cells, err)
			}
		})
	}
}

func TestReopenLoadsSSTables(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(Options{Dir: dir})
	for i := 0; i < 10; i++ {
		e.Put("persist", ck(i), []byte("v"))
	}
	if err := e.Close(); err != nil { // Close flushes
		t.Fatal(err)
	}
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.NumSSTables() != 1 {
		t.Fatalf("sstables %d want 1 after reopen", e2.NumSSTables())
	}
	n, err := e2.CountPartition("persist")
	if err != nil || n != 10 {
		t.Fatalf("count %d,%v want 10", n, err)
	}
}

func TestAutoFlushOnThreshold(t *testing.T) {
	e := openTest(t, Options{FlushThreshold: 1024})
	for i := 0; i < 100; i++ {
		e.Put("p", ck(i), make([]byte, 64))
	}
	// Flushing is asynchronous: settle the background workers without
	// forcing a flush, then check that the threshold alone produced one.
	if err := e.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if e.NumSSTables() == 0 {
		t.Fatal("no automatic flush despite crossing threshold")
	}
	n, _ := e.CountPartition("p")
	if n != 100 {
		t.Fatalf("count %d want 100", n)
	}
}

func TestCompaction(t *testing.T) {
	e := openTest(t, Options{})
	for gen := 0; gen < 5; gen++ {
		for i := 0; i < 20; i++ {
			e.Put("p", ck(i), []byte(fmt.Sprintf("gen%d", gen)))
		}
		e.Flush()
	}
	if e.NumSSTables() != 5 {
		t.Fatalf("sstables %d want 5", e.NumSSTables())
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.NumSSTables() != 1 {
		t.Fatalf("sstables %d want 1 after compact", e.NumSSTables())
	}
	cells, _ := e.ScanPartition("p", nil, nil)
	if len(cells) != 20 {
		t.Fatalf("cells %d want 20", len(cells))
	}
	for _, c := range cells {
		if string(c.Value) != "gen4" {
			t.Fatalf("stale version survived compaction: %q", c.Value)
		}
	}
	// Old files must be gone from disk.
	names, _ := filepath.Glob(filepath.Join(e.opts.Dir, "sst-*.db"))
	if len(names) != 1 {
		t.Fatalf("%d sstable files on disk want 1", len(names))
	}
}

func TestAutoCompaction(t *testing.T) {
	e := openTest(t, Options{CompactAfter: 3})
	for gen := 0; gen < 6; gen++ {
		e.Put("p", ck(gen), []byte("v"))
		e.Flush()
	}
	// Flush returns once its tables are in L0; the compaction they
	// trigger runs after.
	if err := e.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if got := e.NumSSTables(); got > 3 {
		t.Fatalf("sstables %d, auto-compaction did not run", got)
	}
	if e.Metrics.Compactions.Load() == 0 {
		t.Fatal("compaction metric not incremented")
	}
}

func TestDeleteBeforeFlush(t *testing.T) {
	e := openTest(t, Options{})
	e.Put("p", ck(1), []byte("v"))
	e.Delete("p", ck(1))
	if _, ok, _ := e.Get("p", ck(1)); ok {
		t.Fatal("deleted cell still visible")
	}
	e.Flush()
	if _, ok, _ := e.Get("p", ck(1)); ok {
		t.Fatal("deleted cell resurrected by flush")
	}
}

func TestAggregateCountByType(t *testing.T) {
	e := openTest(t, Options{})
	for i := 0; i < 90; i++ {
		e.Put("cube", ck(i), []byte{byte(i % 3)}) // type in first byte
	}
	e.Flush()
	counts := map[byte]int{}
	err := e.AggregatePartition("cube", func(_, value []byte) {
		counts[value[0]]++
	})
	if err != nil {
		t.Fatal(err)
	}
	for ty := byte(0); ty < 3; ty++ {
		if counts[ty] != 30 {
			t.Fatalf("type %d count %d want 30", ty, counts[ty])
		}
	}
}

func TestPartitionsUnion(t *testing.T) {
	e := openTest(t, Options{})
	e.Put("flushed", ck(1), nil)
	e.Flush()
	e.Put("memonly", ck(1), nil)
	got := partitionsOf(t, e)
	if len(got) != 2 || got[0] != "flushed" || got[1] != "memonly" {
		t.Fatalf("partitions %v", got)
	}
}

func TestBloomSkipsAbsentPartitions(t *testing.T) {
	// One shard so every partition's table lands in the same stripe and
	// a scan must consult (and bloom-skip) the others' tables.
	e := openTest(t, Options{Shards: 1})
	for i := 0; i < 5; i++ {
		e.Put(fmt.Sprintf("part%d", i), ck(0), []byte("v"))
		e.Flush()
	}
	e.ScanPartition("part0", nil, nil)
	if e.Metrics.BloomSkips.Load() == 0 {
		t.Fatal("bloom filter never skipped a table")
	}
}

func TestDisableWAL(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Put("p", ck(1), []byte("v"))
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) != 0 {
		t.Fatalf("wal segments %v exist despite DisableWAL", segs)
	}
	e.Close()
}

func TestOpenRejectsLegacyLayout(t *testing.T) {
	// A directory written by the pre-sharding engine (wal.log or
	// sst-NNNNNN.db) must fail loudly instead of presenting an empty
	// store.
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "wal.log"), nil, 0o644)
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("legacy wal.log accepted")
	}
	dir = t.TempDir()
	os.WriteFile(filepath.Join(dir, "sst-000000.db"), nil, 0o644)
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("legacy sstable accepted")
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("want error for missing Dir")
	}
}

func TestClosedEngineRejectsWrites(t *testing.T) {
	e, _ := Open(Options{Dir: t.TempDir()})
	e.Close()
	if err := e.Put("p", ck(1), nil); err == nil {
		t.Fatal("put on closed engine succeeded")
	}
	if err := e.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	e := openTest(t, Options{FlushThreshold: 32 << 10})
	for i := 0; i < 500; i++ {
		e.Put("warm", ck(i), make([]byte, 32))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := e.ScanPartition("warm", nil, nil); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 3000; i++ {
		if err := e.Put("stream", ck(i), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	n, _ := e.CountPartition("stream")
	if n != 3000 {
		t.Fatalf("count %d want 3000", n)
	}
}

func BenchmarkPutNoWAL(b *testing.B) {
	e, _ := Open(Options{Dir: b.TempDir(), DisableWAL: true, FlushThreshold: 1 << 30})
	defer e.Close()
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Put("bench", ck(i), val)
	}
}

// benchFlushedPartition opens an engine holding one flushed,
// cache-resident 1000-cell partition.
func benchFlushedPartition(b *testing.B) *Engine {
	e, err := Open(Options{Dir: b.TempDir(), DisableWAL: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	for i := 0; i < 1000; i++ {
		e.Put("bench", ck(i), make([]byte, 64))
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkScanPartition(b *testing.B) {
	e := benchFlushedPartition(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ScanPartition("bench", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregatePartition(b *testing.B) {
	e := benchFlushedPartition(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := e.AggregatePartition("bench", func(_, _ []byte) { n++ }); err != nil || n != 1000 {
			b.Fatalf("aggregate saw %d cells, err %v", n, err)
		}
	}
}

// TestEnginePutAllocs pins the single-cell write at three allocations,
// WAL included, for Put and Delete alike: both apply a one-entry batch
// through the shard's one write path, and the entry must not cost a
// heap slice. The keys are on the heap, as every real caller's are.
func TestEnginePutAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	e := openTest(t, Options{Shards: 4})
	pk, ckey, value := "alloc-pk", ck(1), []byte("value")
	for name, write := range map[string]func() error{
		"Put":    func() error { return e.Put(pk, ckey, value) },
		"Delete": func() error { return e.Delete(pk, ckey) },
	} {
		var err error
		allocs := testing.AllocsPerRun(500, func() {
			if werr := write(); werr != nil {
				err = werr
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs > 3 {
			t.Errorf("%s allocates %.0f times per call, want <= 3", name, allocs)
		}
	}
}
