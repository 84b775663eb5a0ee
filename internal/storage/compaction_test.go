package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"scalekv/internal/row"
)

// TestCompactionAgainstModelOnTwoSchedules runs one seeded op stream —
// puts, overwrites, deletes and DeleteRange purges — into two one-shard
// engines whose flush threshold, L0 trigger, output table size and
// level budget differ, so the same cells meet in different flushes and
// compactions: one engine writes many small tables and rotates outputs
// often, the other few large ones. Tombstones become collectable as the
// memtables they were written in flush. Each purge must report the live
// cells the model drops. After a final flush and major compaction, each
// engine must answer ScanPartition and CountTypes as the model does for
// every partition the stream touched, and the two must report the same
// RangeDigest over the whole token range: same cells, same versions,
// no tombstone left behind.
func TestCompactionAgainstModelOnTwoSchedules(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			checkCompactionSchedules(t, seed)
		})
	}
}

func checkCompactionSchedules(t *testing.T, seed int64) {
	small := openTest(t, Options{Shards: 1, DisableWAL: true, FlushThreshold: 2 << 10,
		CompactAfter: 2, TargetTableBytes: 4 << 10, LevelBaseBytes: 16 << 10})
	large := openTest(t, Options{Shards: 1, DisableWAL: true, FlushThreshold: 24 << 10,
		CompactAfter: 5})
	engines := []*Engine{small, large}
	ref := refStore{}
	rng := rand.New(rand.NewSource(seed))
	const parts, cks = 40, 30
	pk := func(i int) string { return fmt.Sprintf("p%02d", i) }
	value := func() []byte {
		if rng.Intn(12) == 0 {
			return nil
		}
		v := bytes.Repeat([]byte{'v'}, 1+rng.Intn(64))
		v[0] = byte(rng.Intn(4))
		return v
	}
	each := func(what string, fn func(e *Engine) error) {
		t.Helper()
		for i, e := range engines {
			if err := fn(e); err != nil {
				t.Fatalf("engine %d: %s: %v", i, what, err)
			}
		}
	}

	for op := 0; op < 4000; op++ {
		p, c := pk(rng.Intn(parts)), ck(rng.Intn(cks))
		switch r := rng.Intn(100); {
		case r < 70: // a put, often an overwrite
			v := value()
			ref.put(p, c, v)
			each("put", func(e *Engine) error { return e.Put(p, c, v) })
		case r < 90:
			ref.delete(p, c)
			each("delete", func(e *Engine) error { return e.Delete(p, c) })
		case r < 91: // purge the partitions between two tokens
			lo, hi := PartitionToken(pk(rng.Intn(parts))), PartitionToken(pk(rng.Intn(parts)))
			lo, hi = min(lo, hi), max(lo, hi)
			var want int64
			for i := 0; i < parts; i++ {
				if tok := PartitionToken(pk(i)); lo <= tok && tok <= hi {
					want += int64(len(ref[pk(i)]))
					delete(ref, pk(i))
				}
			}
			each("DeleteRange", func(e *Engine) error {
				got, err := e.DeleteRange(lo, hi)
				if err == nil && got != want {
					err = fmt.Errorf("removed %d cells, the model %d", got, want)
				}
				return err
			})
		case r < 93: // the schedules diverge: one flushes, the other compacts
			if err := small.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := large.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A last write after a flush leaves every engine at least two tables
	// to merge, so the major compaction runs and collects every tombstone
	// (the memtables are empty: nothing can still be shadowed).
	each("flush", func(e *Engine) error { return e.Flush() })
	last := pk(parts)
	ref.put(last, ck(0), []byte("last"))
	each("put", func(e *Engine) error { return e.Put(last, ck(0), []byte("last")) })
	each("flush", func(e *Engine) error { return e.Flush() })
	each("compact", func(e *Engine) error { return e.Compact() })

	for i, e := range engines {
		for n := 0; n <= parts; n++ {
			p := pk(n)
			cells, err := e.ScanPartition(p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.scan(p)
			if len(cells) != len(want) {
				t.Fatalf("engine %d: %s holds %d cells, the model %d", i, p, len(cells), len(want))
			}
			for j, w := range want {
				if !bytes.Equal(cells[j].CK, w[0]) || !bytes.Equal(cells[j].Value, w[1]) {
					t.Fatalf("engine %d: %s cell %d is %q=%q, the model's %q=%q", i, p, j, cells[j].CK, cells[j].Value, w[0], w[1])
				}
			}
			var tc row.TypeCounts
			if err := e.CountTypes(p, &tc); err != nil {
				t.Fatal(err)
			}
			if wantTC := ref.counts(p); tc != wantTC {
				t.Fatalf("engine %d: %s counts %v by type, the model %v", i, p, tc, wantTC)
			}
		}
	}
	digests := make([][]DigestLeaf, len(engines))
	for i, e := range engines {
		var err error
		if digests[i], err = e.RangeDigest(math.MinInt64, math.MaxInt64, 4); err != nil {
			t.Fatal(err)
		}
	}
	for j := range digests[0] {
		if digests[0][j] != digests[1][j] {
			t.Fatalf("digest leaf %d: %+v on one schedule, %+v on the other", j, digests[0][j], digests[1][j])
		}
	}
}

// TestCompactionAllocs pins what a compaction allocates per input cell:
// a one-shard major compaction of six flushed tables, each overwriting
// half the cells of the one before. The merge streams views from the
// tables' block cursors into one reused partition buffer, so what it
// allocates is per block (read buffer, decompressed payload, sealed
// output) and per partition (its key), not per cell: 0.37 per input
// cell on this shape, against 2.97 when every cell was copied out of
// its block before the merge.
func TestCompactionAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	e := openTest(t, Options{Shards: 1, DisableWAL: true, FlushThreshold: 1 << 30, CompactAfter: 100})
	const tables, parts, perPart = 6, 250, 8
	value := bytes.Repeat([]byte("0123456789abcdef"), 16)
	for tb := 0; tb < tables; tb++ {
		for p := 0; p < parts; p++ {
			for c := 0; c < perPart; c++ {
				value[0] = byte(tb + c)
				if err := e.Put(fmt.Sprintf("pk%04d", p), ck(tb*perPart/2+c), value); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.NumSSTables(); n != tables {
		t.Fatalf("%d tables before the compaction, want %d", n, tables)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := e.NumSSTables(); n != 1 {
		t.Fatalf("%d tables after the compaction, want 1", n)
	}
	perCell := float64(after.Mallocs-before.Mallocs) / (tables * parts * perPart)
	t.Logf("%.2f allocations per input cell", perCell)
	if perCell >= 1 {
		t.Fatalf("compaction allocates %.2f times per input cell, want < 1", perCell)
	}
}

// TestFlushAllocs pins what a flush allocates per flushed cell: a
// one-shard flush of 500 partitions of 20 cells. A flush is the
// compaction merge over one whole-memtable scan, so like a compaction it
// allocates per block and per partition, not per cell; writing the
// memtable through a per-cell callback that decoded every key cost 2.07
// allocations per cell on this shape.
func TestFlushAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	e := openTest(t, Options{Shards: 1, DisableWAL: true, FlushThreshold: 1 << 30})
	const parts, perPart = 500, 20
	value := bytes.Repeat([]byte("0123456789abcdef"), 4)
	for p := 0; p < parts; p++ {
		for c := 0; c < perPart; c++ {
			if err := e.Put(fmt.Sprintf("pk%04d", p), ck(c), value); err != nil {
				t.Fatal(err)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := e.NumSSTables(); n != 1 {
		t.Fatalf("%d tables after the flush, want 1", n)
	}
	perCell := float64(after.Mallocs-before.Mallocs) / (parts * perPart)
	t.Logf("%.2f allocations per flushed cell", perCell)
	if perCell >= 1 {
		t.Fatalf("flush allocates %.2f times per flushed cell, want < 1", perCell)
	}
}

// TestCompactionFailureKeepsStateConsistent stages a failing table write
// under a major compaction and under a DeleteRange purge. Each must
// report the error and leave the shard as it was: the input tables
// serve every read, the manifest and the level layout are unchanged,
// and no temp file or orphan table is left behind. Once the fault is
// cleared, a retry succeeds and the engine answers as the model does.
func TestCompactionFailureKeepsStateConsistent(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir, Shards: 1, DisableWAL: true, CompactAfter: 100})
	ref := refStore{}
	const parts = 12
	pk := func(i int) string { return fmt.Sprintf("p%02d", i) }
	for tb := 0; tb < 4; tb++ {
		for p := 0; p < parts; p++ {
			for c := tb; c < tb+6; c++ {
				v := []byte(fmt.Sprintf("v%d-%d", tb, c))
				if c == tb+5 {
					ref.delete(pk(p), ck(c-3))
					if err := e.Delete(pk(p), ck(c-3)); err != nil {
						t.Fatal(err)
					}
					continue
				}
				ref.put(pk(p), ck(c), v)
				if err := e.Put(pk(p), ck(c), v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	s := e.shards[0]
	// state captures what a failed job must not change: the level
	// layout, the manifest bytes and the table files on disk.
	state := func() string {
		s.mu.RLock()
		var b strings.Builder
		for n, lvl := range s.levels {
			for _, h := range lvl {
				fmt.Fprintf(&b, "L%d %s\n", n, filepath.Base(h.Path()))
			}
		}
		manifest, err := os.ReadFile(s.manifestPath())
		s.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "sst-*"))
		for _, f := range files {
			fmt.Fprintf(&b, "file %s\n", filepath.Base(f))
		}
		return b.String() + string(manifest)
	}
	check := func(when string) {
		t.Helper()
		for p := 0; p < parts; p++ {
			cells, err := e.ScanPartition(pk(p), nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			want := ref.scan(pk(p))
			if len(cells) != len(want) {
				t.Fatalf("%s: %s holds %d cells, the model %d", when, pk(p), len(cells), len(want))
			}
			for j, w := range want {
				if !bytes.Equal(cells[j].CK, w[0]) || !bytes.Equal(cells[j].Value, w[1]) {
					t.Fatalf("%s: %s cell %d is %q=%q, the model's %q=%q", when, pk(p), j, cells[j].CK, cells[j].Value, w[0], w[1])
				}
			}
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("%s: temp files left behind: %v", when, tmps)
		}
	}
	failed := func(what string, run func() error) {
		t.Helper()
		before := state()
		failFlushes(e, "injected: disk full")
		if err := run(); err == nil {
			t.Fatalf("%s with a failing table write reported success", what)
		}
		clearFlushFault(e)
		if after := state(); after != before {
			t.Fatalf("failed %s changed the shard:\n%s\nwas:\n%s", what, after, before)
		}
		check("after a failed " + what)
	}

	failed("compaction", e.Compact)
	if err := e.Compact(); err != nil {
		t.Fatalf("retry after clearing the fault: %v", err)
	}
	if n := e.NumSSTables(); n != 1 {
		t.Fatalf("%d tables after the retried compaction, want 1", n)
	}
	check("after the retried compaction")

	// A second table gives the purge two inputs to merge.
	for p := 0; p < parts; p++ {
		ref.put(pk(p), ck(100), []byte("late"))
		if err := e.Put(pk(p), ck(100), []byte("late")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	lo, hi := PartitionToken(pk(3)), PartitionToken(pk(7))
	lo, hi = min(lo, hi), max(lo, hi)
	failed("purge", func() error { _, err := e.DeleteRange(lo, hi); return err })
	var want int64
	for p := 0; p < parts; p++ {
		if tok := PartitionToken(pk(p)); lo <= tok && tok <= hi {
			want += int64(len(ref[pk(p)]))
			delete(ref, pk(p))
		}
	}
	if got, err := e.DeleteRange(lo, hi); err != nil {
		t.Fatalf("retry after clearing the fault: %v", err)
	} else if got != want {
		t.Fatalf("the retried purge removed %d cells, the model %d", got, want)
	}
	check("after the retried purge")
}
