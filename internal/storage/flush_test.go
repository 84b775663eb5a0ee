package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"scalekv/internal/row"
)

// TestShardsFreezeOutOfStep: after a Flush empties every shard, writes
// spread evenly over the shards must not freeze them all at the same
// moment, or their flushes and compactions arrive in waves. Each round
// writes one equal-sized cell to every shard; the rounds at which the
// shards first freeze must span at least a tenth of the run.
func TestShardsFreezeOutOfStep(t *testing.T) {
	const shards, threshold = 8, 64 << 10
	e := openTest(t, Options{Shards: shards, FlushThreshold: threshold, DisableWAL: true})
	// pks[i] are keys that hash to shard i, all of one length: enough
	// rounds for a cell of ≥ 16 bytes to fill every shard.
	const rounds = threshold / 16
	var pks [shards][]string
	for i, full := 0, 0; full < shards; i++ {
		pk := fmt.Sprintf("k%07d", i)
		s := e.shardFor(pk).id
		if len(pks[s]) < rounds {
			if pks[s] = append(pks[s], pk); len(pks[s]) == rounds {
				full++
			}
		}
	}
	for i := range pks {
		if err := e.Put(pks[i][0], []byte("ck"), []byte("preload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	gen := func(i int) int64 {
		s := e.shards[i]
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.memGen
	}
	var start [shards]int64
	for i := range start {
		start[i] = gen(i)
	}
	value := make([]byte, 32)
	first := map[int]int{} // shard -> round of its first freeze
	for round := 0; len(first) < shards; round++ {
		if round == rounds {
			t.Fatalf("only %d of %d shards froze after %d rounds", len(first), shards, round)
		}
		for i := range pks {
			if err := e.Put(pks[i][round], []byte("ck"), value); err != nil {
				t.Fatal(err)
			}
			if _, seen := first[i]; !seen && gen(i) != start[i] {
				first[i] = round
			}
		}
	}
	lo, hi := first[0], first[0]
	for _, r := range first {
		lo, hi = min(lo, r), max(hi, r)
	}
	if hi-lo < hi/10 {
		t.Fatalf("shards first froze between rounds %d and %d: in lockstep (%v)", lo, hi, first)
	}
}

// TestFlushedMemtableIsReleased: once a frozen memtable's table is
// live, nothing may keep the memtable reachable — not the frozen
// queue's backing array, which the published read views share.
func TestFlushedMemtableIsReleased(t *testing.T) {
	e := openTest(t, Options{Shards: 1, DisableWAL: true})
	for i := 0; i < 100; i++ {
		if err := e.Put("p", ck(i), make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	s := e.shards[0]
	s.mu.RLock()
	mem := weak.Make(s.mem)
	s.mu.RUnlock()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if mem.Value() != nil {
		t.Fatal("the flushed memtable is still reachable")
	}
}

// TestColdGetAllocs pins a steady point-read load on data larger than
// the block cache — the shape of the point-cold-inproc workload's node:
// 62,500 partitions of four 256-byte cells behind a 16 MB cache, read at
// random with 5 % overwrites. Table metas evicted from the cache are
// decoded again on their next read, so a meta that crowds its cache
// shard shows here as hundreds of allocations per op.
func TestColdGetAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	if testing.Short() {
		t.Skip("preloads 64 MB")
	}
	const parts, cells = 62_500, 4
	e := openTest(t, Options{BlockCacheBytes: 16 << 20, DisableWAL: true})
	value := make([]byte, 256)
	batch := make([]row.Entry, 0, 1024)
	for p := 0; p < parts; p++ {
		for c := 0; c < cells; c++ {
			batch = append(batch, row.Entry{PK: fmt.Sprintf("pk%06d", p), CK: ck(c), Value: value})
		}
		if len(batch) == cap(batch) || p == parts-1 {
			if err := e.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	op := func() {
		pk, c := fmt.Sprintf("pk%06d", rng.Intn(parts)), ck(rng.Intn(cells))
		if rng.Intn(100) < 5 {
			if err := e.Put(pk, c, value); err != nil {
				t.Fatal(err)
			}
			return
		}
		if _, ok, err := e.Get(pk, c); err != nil || !ok {
			t.Fatalf("get %s: %v, %v", pk, ok, err)
		}
	}
	for i := 0; i < 20_000; i++ { // reach the cache's steady state
		op()
	}
	if allocs := testing.AllocsPerRun(20_000, op); allocs >= 10 {
		t.Fatalf("a steady cold read allocates %.1f times per op, want < 10", allocs)
	}
}
