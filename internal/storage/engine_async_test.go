package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"scalekv/internal/row"
)

// TestFlushFailureKeepsStateConsistent is the regression test for the
// old flushLocked hazard: an SSTable failure mid-flush must not let the
// memtable, WAL and table list diverge. In the shard design the frozen
// memtable and its WAL segments stay exactly as they were until the
// SSTable is durable, so a failure loses nothing and a retry succeeds.
func TestFlushFailureKeepsStateConsistent(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	failFlushes(e, "injected: disk full")

	for i := 0; i < 50; i++ {
		if err := e.Put("p", ck(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err == nil {
		t.Fatal("flush with failing SSTable write reported success")
	}

	// Nothing may have been lost or half-swapped: the data still reads
	// back, no table was installed, and the WAL segment survives.
	if e.NumSSTables() != 0 {
		t.Fatalf("failed flush installed %d tables", e.NumSSTables())
	}
	for i := 0; i < 50; i++ {
		v, ok, err := e.Get("p", ck(i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("cell %d unreadable after failed flush: %q,%v,%v", i, v, ok, err)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) == 0 {
		t.Fatal("failed flush deleted the WAL segment")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed flush left temp files: %v", tmps)
	}

	// Clearing the fault and retrying must drain cleanly.
	clearFlushFault(e)
	if err := e.Flush(); err != nil {
		t.Fatalf("retry after clearing fault: %v", err)
	}
	if e.NumSSTables() != 1 {
		t.Fatalf("tables %d want 1 after retry", e.NumSSTables())
	}
	for i := 0; i < 50; i++ {
		v, ok, _ := e.Get("p", ck(i))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("cell %d lost across failed-then-retried flush", i)
		}
	}
}

// TestFailingFlusherPushesBackOnWriters: with the flusher persistently
// failing, the frozen queue must not grow without bound — past the
// backlog cap, writes report the background error instead of eating
// memory until OOM (with DisableWAL there is no other signal at all).
func TestFailingFlusherPushesBackOnWriters(t *testing.T) {
	e := openTest(t, Options{
		Dir: t.TempDir(), Shards: 1, DisableWAL: true, FlushThreshold: 1 << 10,
	})
	failFlushes(e, "injected: disk full")
	var firstErr error
	for i := 0; i < 20000 && firstErr == nil; i++ {
		firstErr = e.Put("p", ck(i), make([]byte, 64))
		runtime.Gosched() // let the worker observe the fault between puts
	}
	if firstErr == nil {
		t.Fatalf("no backpressure after %d frozen memtables piled up", frozenCount(e))
	}
	// Once the error is surfaced the queue must stop growing: rejected
	// writes never freeze anything.
	atErr := frozenCount(e)
	for i := 0; i < 200; i++ {
		if err := e.Put("p", ck(30000+i), make([]byte, 64)); err == nil {
			t.Fatal("write accepted while the flusher is failing and the queue is full")
		}
	}
	if got := frozenCount(e); got > atErr {
		t.Fatalf("frozen queue kept growing under backpressure: %d -> %d", atErr, got)
	}
	// Recovery: clear the fault, and writes resume once the queue drains.
	clearFlushFault(e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(9999), []byte("v")); err != nil {
		t.Fatalf("write still failing after flusher recovered: %v", err)
	}
}

// TestCloseSurfacesFlushFailure: a background failure that nobody
// observed through Flush must still be reported by Close.
func TestCloseSurfacesFlushFailure(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	failFlushes(e, "injected: device gone")
	e.Put("p", ck(0), []byte("v"))
	if err := e.Close(); err == nil {
		t.Fatal("Close swallowed the background flush failure")
	}
}

// TestPutDoesNotWaitForFlush pins the headline property of the shard
// design: a Put issued while an SSTable write is in progress completes
// without waiting for the disk. The flusher is parked on a gate, so if
// the write path ever waited on it the test would time out.
func TestPutDoesNotWaitForFlush(t *testing.T) {
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer release()
	e, err := Open(Options{Dir: t.TempDir(), Shards: 1, FlushThreshold: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.testFlushGate = gate

	// Cross the threshold: the memtable freezes and the flusher blocks
	// on the gate before touching disk.
	for i := 0; i < 32; i++ {
		if err := e.Put("p", ck(i), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if frozenCount(e) == 0 {
		t.Fatal("threshold crossing did not freeze the memtable")
	}
	if e.NumSSTables() != 0 {
		t.Fatal("gated flusher wrote a table")
	}

	done := make(chan error, 1)
	go func() { done <- e.Put("p", []byte("during-flush"), []byte("landed")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Put blocked on the in-progress SSTable write")
	}

	// Reads merge active + frozen while the flush is still in flight.
	v, ok, err := e.Get("p", []byte("during-flush"))
	if err != nil || !ok || string(v) != "landed" {
		t.Fatalf("new cell unreadable during flush: %q,%v,%v", v, ok, err)
	}
	if v, ok, _ := e.Get("p", ck(3)); !ok || len(v) != 64 {
		t.Fatal("frozen cell unreadable during flush")
	}

	// Release the gate; everything must land in SSTables.
	release()
	if err := e.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if e.NumSSTables() == 0 {
		t.Fatal("flush never completed after gate release")
	}
}

// TestCrashMidFlushRecoversPerShardWAL kills the engine after the
// memtables were handed to the flushers but before any SSTable became
// durable. Reopening must replay every shard's WAL segments with zero
// lost cells — both the frozen generation and the writes that landed
// after the freeze.
func TestCrashMidFlushRecoversPerShardWAL(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate) // lets the abandoned workers exit
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 4, FlushThreshold: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	e.testFlushGate = gate

	type kv struct {
		pk string
		ck []byte
		v  []byte
	}
	var want []kv
	put := func(pk string, i int, tag string) {
		c := ck(i)
		v := append(bytes.Repeat([]byte{'x'}, 60), []byte(tag)...)
		if err := e.Put(pk, c, v); err != nil {
			t.Fatal(err)
		}
		want = append(want, kv{pk, c, v})
	}
	// Enough volume per partition that every involved shard freezes.
	for p := 0; p < 8; p++ {
		for i := 0; i < 32; i++ {
			put(fmt.Sprintf("part-%d", p), i, "pre")
		}
	}
	if frozenCount(e) == 0 {
		t.Fatal("no shard froze; the crash window never opened")
	}
	// Writes after the handoff go to fresh memtables + fresh segments.
	for p := 0; p < 8; p++ {
		put(fmt.Sprintf("part-%d", p), 1000+p, "post")
	}
	if e.NumSSTables() != 0 {
		t.Fatal("gated flusher wrote a table before the crash")
	}

	crashForTest(e)

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for _, w := range want {
		v, ok, err := e2.Get(w.pk, w.ck)
		if err != nil || !ok || !bytes.Equal(v, w.v) {
			t.Fatalf("lost %s/%s after mid-flush crash: %q,%v,%v", w.pk, w.ck, v, ok, err)
		}
	}
}

// TestDeleteMasksFrozenCellAndSurvivesCrash: a Delete aimed at a cell
// that is already frozen writes a tombstone that masks it — live, and
// again after crash recovery replays the WAL (the tombstone's version
// orders after the frozen cell's, so the merge picks it regardless of
// which generation each record replays into).
func TestDeleteMasksFrozenCellAndSurvivesCrash(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1, FlushThreshold: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	e.testFlushGate = gate

	for i := 0; i < 32; i++ {
		if err := e.Put("p", ck(i), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if frozenCount(e) == 0 {
		t.Fatal("threshold crossing did not freeze the memtable")
	}
	// The cell is frozen; the tombstone lands in the fresh active
	// memtable and must mask it anyway.
	if err := e.Delete("p", ck(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e.Get("p", ck(3)); ok {
		t.Fatal("delete did not mask a frozen cell")
	}
	if _, ok, _ := e.Get("p", ck(4)); !ok {
		t.Fatal("neighbouring cell went missing")
	}

	crashForTest(e)
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, ok, _ := e2.Get("p", ck(3)); ok {
		t.Fatal("recovery resurrected a deleted cell")
	}
	if _, ok, _ := e2.Get("p", ck(4)); !ok {
		t.Fatal("recovery lost an undeleted cell")
	}
}

// TestDeleteMasksAllOlderVersionsAcrossCrash: v1 of a cell is frozen,
// v2 is put and then deleted in the active memtable. The tombstone
// masks both versions — deleted means deleted, not "the previous
// version resurfaces" — and recovery reproduces that, because versions
// replay with the records and the merge is order-independent.
func TestDeleteMasksAllOlderVersionsAcrossCrash(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1, FlushThreshold: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	e.testFlushGate = gate

	if err := e.Put("p", []byte("cell"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; frozenCount(e) == 0 && i < 64; i++ { // fill until the freeze
		if err := e.Put("p", ck(i), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if frozenCount(e) == 0 {
		t.Fatal("never froze")
	}
	e.Put("p", []byte("cell"), []byte("v2"))
	if err := e.Delete("p", []byte("cell")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := e.Get("p", []byte("cell")); ok {
		t.Fatalf("live engine resurrected %q after delete", v)
	}

	crashForTest(e)
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if v, ok, _ := e2.Get("p", []byte("cell")); ok {
		t.Fatalf("recovery resurrected %q after delete", v)
	}
}

// TestDeadWALSegmentsRetiredOnReopen: segments whose replay nets to
// nothing (puts cancelled by deletes) must be removed at Open — an
// idle shard never freezes, so nothing else would ever retire them.
func TestDeadWALSegmentsRetiredOnReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Put("p", ck(1), []byte("v"))
	e.Delete("p", ck(1))
	crashForTest(e)

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) != 0 {
		t.Fatalf("dead segments survived reopen: %v", segs)
	}
}

// TestConcurrentStressWithBackgroundMaintenance hammers one engine with
// concurrent Put/PutBatch/Get/Scan/Delete while tiny thresholds keep
// flushes and compactions firing, then verifies no written cell was
// lost. Run under -race this is the engine's data-race certificate.
func TestConcurrentStressWithBackgroundMaintenance(t *testing.T) {
	e := openTest(t, Options{
		Dir:            t.TempDir(),
		FlushThreshold: 4 << 10,
		CompactAfter:   2,
	})

	const (
		writers       = 4
		putsPerWriter = 1200
	)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Writers: single puts, each writer owning a partition.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pk := fmt.Sprintf("writer-%d", w)
			for i := 0; i < putsPerWriter; i++ {
				if err := e.Put(pk, ck(i), []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					report(err)
					return
				}
			}
		}(w)
	}
	// One batch writer spraying group commits across partitions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < 60; b++ {
			entries := makeBatch(b)
			if err := e.PutBatch(entries); err != nil {
				report(err)
				return
			}
		}
	}()
	// A deleter churning its own scratch partition.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 800; i++ {
			if err := e.Put("scratch", ck(i), []byte("tmp")); err != nil {
				report(err)
				return
			}
			if err := e.Delete("scratch", ck(i)); err != nil {
				report(err)
				return
			}
		}
	}()
	// Readers and scanners racing the writers and the maintenance.
	stop := make(chan struct{})
	var readWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pk := fmt.Sprintf("writer-%d", rng.Intn(writers))
				if _, _, err := e.Get(pk, ck(rng.Intn(putsPerWriter))); err != nil {
					report(err)
					return
				}
				if _, err := e.ScanPartition(pk, nil, nil); err != nil {
					report(err)
					return
				}
			}
		}(r)
	}

	// Wait for the mutators, then release the readers.
	mutatorsDone := make(chan struct{})
	go func() { wg.Wait(); close(mutatorsDone) }()
	select {
	case <-mutatorsDone:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(120 * time.Second):
		t.Fatal("stress test wedged")
	}
	close(stop)
	readWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitIdle(); err != nil { // the compactions the last flushes queued
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		pk := fmt.Sprintf("writer-%d", w)
		n, err := e.CountPartition(pk)
		if err != nil {
			t.Fatal(err)
		}
		if n != putsPerWriter {
			t.Fatalf("%s holds %d cells want %d", pk, n, putsPerWriter)
		}
	}
	for b := 0; b < 60; b++ {
		for _, ent := range makeBatch(b) {
			v, ok, err := e.Get(ent.PK, ent.CK)
			if err != nil || !ok || !bytes.Equal(v, ent.Value) {
				t.Fatalf("batch cell %s/%s lost: %q,%v,%v", ent.PK, ent.CK, v, ok, err)
			}
		}
	}
	if e.Metrics.Flushes.Load() == 0 {
		t.Fatal("stress ran without a single background flush")
	}
	if e.Metrics.Compactions.Load() == 0 {
		t.Fatal("stress ran without a single background compaction")
	}
}

// TestConcurrentStressRaces is the mutator-vs-mutator slice of the
// stress: every operation type against the same hot partition, so shard
// freezes interleave with batch commits and deletes on one stripe.
func TestConcurrentStressRaces(t *testing.T) {
	e := openTest(t, Options{
		Dir:            t.TempDir(),
		DisableWAL:     true,
		FlushThreshold: 2 << 10,
		CompactAfter:   2,
		Shards:         2,
	})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var err error
				switch g % 3 {
				case 0:
					err = e.Put("hot", ck(g*1000+i), make([]byte, 48))
				case 1:
					err = e.PutBatch(makeBatch(g*1000 + i))
				case 2:
					_, _, err = e.Get("hot", ck(i))
					if err == nil {
						_, err = e.ScanPartition("hot", ck(0), ck(100))
					}
				}
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// makeBatch derives a deterministic group-commit batch from its index,
// so stress tests can re-derive what they wrote and verify nothing was
// lost.
func makeBatch(b int) []row.Entry {
	entries := make([]row.Entry, 0, 24)
	for i := 0; i < 24; i++ {
		entries = append(entries, row.Entry{
			PK:    fmt.Sprintf("batch-%d", (b*7+i)%5),
			CK:    []byte(fmt.Sprintf("b%04d-%02d", b, i)),
			Value: []byte(fmt.Sprintf("bv%d-%d", b, i)),
		})
	}
	return entries
}
