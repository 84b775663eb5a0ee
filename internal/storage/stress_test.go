package storage

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReadersRaceStructuralChurn is the race-detector stress for the
// lock-free read path: point reads, partition scans, streamed
// aggregations and range digests run against every structural mutation the shards can
// undergo — memtable freeze/flush, compaction table-list swaps, and
// DeleteRange purges — all at once. It exists to be run under -race:
// any snapshot-protocol mistake (a view resurrected after its tables
// were released, an index read racing its rebuild) surfaces here as a
// race report or a crash rather than as a once-a-week production
// corruption.
func TestReadersRaceStructuralChurn(t *testing.T) {
	e := openTest(t, Options{
		Shards:         4,
		DisableWAL:     true,
		FlushThreshold: 8 << 10, // freeze constantly
		CompactAfter:   2,       // compact constantly
	})

	const pks = 64
	pk := func(i int) string { return fmt.Sprintf("stress%03d", i%pks) }
	for i := 0; i < pks; i++ {
		if err := e.Put(pk(i), ck(0), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	run := func(f func(n int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				f(n)
			}
		}()
	}

	// Writers: puts and deletes churning cell versions and creating
	// new partitions (new cells bump the partition index generation).
	run(func(n int) {
		if err := e.Put(pk(n), ck(n%8), []byte("value")); err != nil {
			fail <- fmt.Sprintf("put: %v", err)
			stop.Store(true)
		}
	})
	run(func(n int) {
		if err := e.Delete(pk(n+3), ck(n%8)); err != nil {
			fail <- fmt.Sprintf("delete: %v", err)
			stop.Store(true)
		}
	})
	// Point readers and partition scanners on the snapshot path.
	for r := 0; r < 2; r++ {
		run(func(n int) {
			if _, _, err := e.Get(pk(n), ck(n%8)); err != nil {
				fail <- fmt.Sprintf("get: %v", err)
				stop.Store(true)
			}
		})
	}
	run(func(n int) {
		if _, err := e.ScanPartition(pk(n), nil, nil); err != nil {
			fail <- fmt.Sprintf("scan: %v", err)
			stop.Store(true)
		}
	})
	// Aggregators reading every byte of the views the visitor hands out
	// — slices of skip-list nodes and of cached block payloads — while
	// the structures behind them are swapped and retired.
	run(func(n int) {
		var last []byte
		bad := ""
		err := e.AggregatePartition(pk(n), func(ck, value []byte) {
			if last != nil && bytes.Compare(ck, last) <= 0 {
				bad = fmt.Sprintf("ck %q after %q", ck, last)
			}
			last = append(last[:0], ck...)
			if !bytes.Equal(value, []byte("value")) && !bytes.Equal(value, []byte("seed")) {
				bad = fmt.Sprintf("torn value %q", value)
			}
		})
		if err != nil || bad != "" {
			fail <- fmt.Sprintf("aggregate: %s (err=%v)", bad, err)
			stop.Store(true)
		}
	})
	// Range readers exercising the cached partition index while writers
	// invalidate it.
	run(func(n int) {
		if _, err := e.CountRange(math.MinInt64, math.MaxInt64); err != nil {
			fail <- fmt.Sprintf("count: %v", err)
			stop.Store(true)
		}
	})
	run(func(n int) {
		if _, err := e.RangeDigest(math.MinInt64, math.MaxInt64, 4); err != nil {
			fail <- fmt.Sprintf("digest: %v", err)
			stop.Store(true)
		}
	})
	// Structural churn: explicit flushes and compactions swapping the
	// frozen queue and table lists under the readers.
	run(func(n int) {
		if err := e.Flush(); err != nil {
			fail <- fmt.Sprintf("flush: %v", err)
			stop.Store(true)
		}
		if err := e.Compact(); err != nil {
			fail <- fmt.Sprintf("compact: %v", err)
			stop.Store(true)
		}
	})
	// DeleteRange on a victim partition nobody else writes: after the
	// purge returns, a read through any snapshot taken afterwards must
	// miss, with no read lock to order the two.
	victim := "purge-victim"
	vtok := PartitionToken(victim)
	run(func(n int) {
		if err := e.Put(victim, ck(n%4), []byte("doomed")); err != nil {
			fail <- fmt.Sprintf("victim put: %v", err)
			stop.Store(true)
			return
		}
		if _, err := e.DeleteRange(vtok, vtok); err != nil {
			fail <- fmt.Sprintf("delete range: %v", err)
			stop.Store(true)
			return
		}
		if _, ok, err := e.Get(victim, ck(n%4)); ok || err != nil {
			fail <- fmt.Sprintf("stale read of purged partition (ok=%v err=%v)", ok, err)
			stop.Store(true)
		}
	})

	timeout := time.After(800 * time.Millisecond)
	select {
	case msg := <-fail:
		stop.Store(true)
		wg.Wait()
		t.Fatal(msg)
	case <-timeout:
		stop.Store(true)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestBlockCacheStressTinyCache runs the read paths against a block
// cache far too small for the working set, so every operation races
// insert-vs-evict and hit-vs-orphaned-table: point reads and scans
// fill it, compaction retires the tables behind its entries, and
// DeleteRange purges whole partitions out from under cached blocks.
// Run under -race; correctness is checked by verifying stable keys
// keep their exact values throughout the churn.
func TestBlockCacheStressTinyCache(t *testing.T) {
	e := openTest(t, Options{
		Shards:          4,
		DisableWAL:      true,
		FlushThreshold:  8 << 10,  // freeze constantly
		CompactAfter:    2,        // compact constantly
		BlockCacheBytes: 32 << 10, // a handful of blocks: evict constantly
	})

	// Stable keys nobody mutates: their values must survive every cache
	// eviction, table swap and purge of other partitions.
	const stable = 32
	spk := func(i int) string { return fmt.Sprintf("stable%03d", i%stable) }
	sval := func(i int) []byte { return []byte(fmt.Sprintf("stable-value-%06d", i%stable)) }
	for i := 0; i < stable; i++ {
		if err := e.Put(spk(i), ck(0), sval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	run := func(f func(n int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				f(n)
			}
		}()
	}

	// Churn writers: enough volume to keep flush and compaction busy.
	cpk := func(i int) string { return fmt.Sprintf("churn%03d", i%64) }
	run(func(n int) {
		if err := e.Put(cpk(n), ck(n%16), bytes.Repeat([]byte("v"), 128)); err != nil {
			fail <- fmt.Sprintf("put: %v", err)
			stop.Store(true)
		}
	})
	// Point readers verifying stable values byte-for-byte.
	for r := 0; r < 2; r++ {
		run(func(n int) {
			v, ok, err := e.Get(spk(n), ck(0))
			if err != nil || !ok || !bytes.Equal(v, sval(n)) {
				fail <- fmt.Sprintf("stable get %d: ok=%v err=%v v=%q", n%stable, ok, err, v)
				stop.Store(true)
			}
		})
	}
	// Scanners pulling whole partitions through the cache fill path.
	run(func(n int) {
		if _, err := e.ScanPartition(cpk(n), nil, nil); err != nil {
			fail <- fmt.Sprintf("scan: %v", err)
			stop.Store(true)
		}
	})
	// Aggregators holding views into cached payloads while the cache
	// evicts the entries behind them: the bytes must stay what was
	// written.
	run(func(n int) {
		cells, intact := 0, true
		err := e.AggregatePartition(spk(n), func(_, value []byte) {
			cells++
			intact = intact && bytes.Equal(value, sval(n))
		})
		if err != nil || cells != 1 || !intact {
			fail <- fmt.Sprintf("stable aggregate %d: %d cells, intact=%v err=%v", n%stable, cells, intact, err)
			stop.Store(true)
		}
	})
	// Compactions retiring the tables behind cached blocks.
	run(func(n int) {
		if err := e.Compact(); err != nil {
			fail <- fmt.Sprintf("compact: %v", err)
			stop.Store(true)
		}
	})
	// DeleteRange purging churn partitions out from under the cache.
	run(func(n int) {
		tok := PartitionToken(cpk(n))
		if _, err := e.DeleteRange(tok, tok); err != nil {
			fail <- fmt.Sprintf("delete range: %v", err)
			stop.Store(true)
		}
	})

	timeout := time.After(800 * time.Millisecond)
	select {
	case msg := <-fail:
		stop.Store(true)
		wg.Wait()
		t.Fatal(msg)
	case <-timeout:
		stop.Store(true)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	st := e.BlockCacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache never exercised: %+v", st)
	}
	if st.Bytes > 32<<10 {
		t.Fatalf("cache holds %d bytes, budget 32KB", st.Bytes)
	}
}

// TestGetZeroAllocFastPath pins the point-read fast path at zero heap
// allocations: when the newest version of a cell is in the active
// memtable, Get must finish without locking or allocating — the
// snapshot is a pointer load + refcount, the memtable search compares
// against the encoded key in place, and the returned value is the
// stored slice. A new allocation here is a hot-path regression even if
// every benchmark still passes on a quiet machine.
func TestGetZeroAllocFastPath(t *testing.T) {
	e := openTest(t, Options{Shards: 4, DisableWAL: true})
	if err := e.Put("alloc-pk", ck(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	ckey := ck(1)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok, err := e.Get("alloc-pk", ckey); !ok || err != nil {
			t.Fatalf("get failed: %v %v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Get fast path allocates %.1f times per op, want 0", allocs)
	}
}
