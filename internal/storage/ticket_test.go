package storage

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRetriedDeleteRangeCountsItsCells: a DeleteRange whose purge fails
// reports the error, and its retry reports the cells it removed. A
// failed purge once stayed at the head of the shard's queue; the retry
// queued behind it, the worker served the stale head first and wrote the
// count there, and the retry's own purge found nothing and reported 0.
func TestRetriedDeleteRangeCountsItsCells(t *testing.T) {
	e := openTest(t, Options{Shards: 1, DisableWAL: true})
	ref := refStore{}
	pk := func(i int) string { return fmt.Sprintf("p%02d", i) }
	const parts = 16
	for p := 0; p < parts; p++ {
		for c := 0; c <= p%5; c++ {
			v := []byte(fmt.Sprintf("v%d", c))
			ref.put(pk(p), ck(c), v)
			if err := e.Put(pk(p), ck(c), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	lo, hi := PartitionToken(pk(2)), PartitionToken(pk(11))
	lo, hi = min(lo, hi), max(lo, hi)
	var want int64
	for p := 0; p < parts; p++ {
		if tok := PartitionToken(pk(p)); lo <= tok && tok <= hi {
			want += int64(len(ref[pk(p)]))
		}
	}

	failFlushes(e, "injected: disk full")
	if _, err := e.DeleteRange(lo, hi); err == nil {
		t.Fatal("a DeleteRange whose purge failed reported success")
	}
	clearFlushFault(e)
	got, err := e.DeleteRange(lo, hi)
	if err != nil {
		t.Fatalf("retry after clearing the fault: %v", err)
	}
	if got != want {
		t.Fatalf("the retried DeleteRange removed %d cells, the model %d", got, want)
	}
	if got, err := e.DeleteRange(lo, hi); err != nil || got != 0 {
		t.Fatalf("a third DeleteRange of the range removed %d cells (err %v), want 0", got, err)
	}
}

// TestFlushReportsOnlyItsFlushes: Flush waits for its memtables' tables,
// not for the leveled compactions they trigger, so a compaction that
// fails is not its error. WaitIdle, which waits for the compactions too,
// reports it.
func TestFlushReportsOnlyItsFlushes(t *testing.T) {
	e := openTest(t, Options{Shards: 1, DisableWAL: true, CompactAfter: 1})
	defer clearFlushFault(e) // before Close, which would report the failure
	failJobs(e, func(k jobKind) bool { return k == jobLeveled }, "injected: compaction failed")
	const flushes = 4
	for gen := 0; gen < flushes; gen++ {
		if err := e.Put("p", ck(gen), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatalf("flush %d: %v", gen, err)
		}
	}
	if n := e.Stats().Flushes; n != flushes {
		t.Fatalf("%d flushes installed, want %d", n, flushes)
	}
	if err := e.WaitIdle(); err == nil {
		t.Fatal("WaitIdle did not report the failing compaction")
	}
	if n := e.Stats().Compactions; n != 0 {
		t.Fatalf("%d compactions installed under the fault", n)
	}
}

// TestCloseEndsWaitingDeleteRanges: Close while one DeleteRange's purge
// is failing and a second DeleteRange waits behind it. The worker exits
// on the failure, leaving the second purge queued; both callers must get
// an error, neither may hang.
func TestCloseEndsWaitingDeleteRanges(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), Shards: 1, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(0), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	e.testFlushGate = gate // published to the worker by the next DeleteRange's lock
	failFlushes(e, "injected: disk full")
	s := e.shards[0]
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			s.mu.RLock()
			ok := cond()
			s.mu.RUnlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { _, err := e.DeleteRange(0, 0); first <- err }()
	waitFor("the first purge to start", func() bool { return s.busy && len(s.requests) == 1 })
	go func() { _, err := e.DeleteRange(1, 1); second <- err }()
	waitFor("the second purge to queue", func() bool { return len(s.requests) == 2 })
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	waitFor("Close to begin", func() bool { return s.closing })
	close(gate)

	for _, c := range []struct {
		name string
		ch   chan error
		want func(error) bool
	}{
		{"the failing DeleteRange", first, func(err error) bool { return err != nil && !errors.Is(err, errClosed) }},
		{"the DeleteRange behind it", second, func(err error) bool { return errors.Is(err, errClosed) }},
		{"Close", closed, func(error) bool { return true }},
	} {
		select {
		case err := <-c.ch:
			if !c.want(err) {
				t.Fatalf("%s returned %v", c.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s hung", c.name)
		}
	}
}

// TestCompactGoesShardByShard: Compact queues its major compaction on a
// shard only once the previous shard's has been installed and its inputs
// retired, so at most one shard holds a merge's extra tables on disk at
// a time. DeleteRange takes the same path (Engine.await).
func TestCompactGoesShardByShard(t *testing.T) {
	e := openTest(t, Options{Shards: 2, DisableWAL: true})
	for gen := 0; gen < 2; gen++ {
		for p := 0; p < 20; p++ {
			if err := e.Put(fmt.Sprintf("p%02d", p), ck(gen), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range e.shards {
		s.mu.RLock()
		n := len(s.allTablesLocked())
		s.mu.RUnlock()
		if n < 2 {
			t.Fatalf("shard %d holds %d tables; the test needs a merge on each", s.id, n)
		}
	}
	gate := make(chan struct{})
	e.testFlushGate = gate            // published to the workers by Compact's locks
	t.Cleanup(func() { close(gate) }) // on failure, free the workers before Close
	done := make(chan error, 1)
	go func() { done <- e.Compact() }()
	state := func(s *shard) (busy bool, queued int) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.busy, len(s.requests)
	}
	for i, s := range e.shards {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if busy, queued := state(s); busy && queued == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d's major compaction never started", i)
			}
		}
		for j, other := range e.shards {
			if _, queued := state(other); j != i && queued != 0 {
				t.Fatalf("shard %d has a request queued while shard %d compacts", j, i)
			}
		}
		gate <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := e.NumSSTables(); n != 2 {
		t.Fatalf("%d tables after Compact, want one a shard", n)
	}
}
