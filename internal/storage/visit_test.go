package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"scalekv/internal/raceflag"
	"scalekv/internal/row"
	"scalekv/internal/sstable"
)

// materialise reads a partition slice the way the engine did before it
// streamed: every source of the view as its own []row.Cell, oldest
// first — the inputs row.Merge is the reference for.
func materialise(t *testing.T, view *shardView, pk string, from, to []byte) [][]row.Cell {
	t.Helper()
	var sources [][]row.Cell
	for _, tbl := range view.tables {
		cells, err := tbl.ReadSlice(pk, from, to)
		if err == sstable.ErrNotFound {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, cells)
	}
	for _, fm := range view.frozen {
		sources = append(sources, fm.mem.ScanPartition(pk, from, to))
	}
	return append(sources, view.mem.ScanPartition(pk, from, to))
}

func sameCells(got, want []row.Cell) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d cells, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !bytes.Equal(g.CK, w.CK) || !bytes.Equal(g.Value, w.Value) || g.Ver != w.Ver || g.Tombstone != w.Tombstone {
			return fmt.Errorf("cell %d is %q=%q %v tomb=%v, want %q=%q %v tomb=%v",
				i, g.CK, g.Value, g.Ver, g.Tombstone, w.CK, w.Value, w.Ver, w.Tombstone)
		}
	}
	return nil
}

// TestVisitPartitionMatchesRowMerge is the seeded property test of the
// streaming read path: partitions spread over one to four SSTables, a
// frozen memtable and the active one — with overwrites, stale copies in
// newer sources, the same version held by several sources (under
// different values, so the tie-break shows) and tombstones — read back
// through visitPartition, raw and live, bounded and unbounded, equal
// row.Merge / row.DropTombstones over the materialised sources, cell
// for cell.
func TestVisitPartitionMatchesRowMerge(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := openTest(t, Options{Shards: 1, DisableWAL: true, CompactAfter: 64, Seed: seed})
		// Registered after openTest's Close, so it runs before it: a failed
		// seed must not leave Close waiting on a gated flusher.
		gate := make(chan struct{})
		var release sync.Once
		openGate := func() { release.Do(func() { close(gate) }) }
		t.Cleanup(openGate)
		pks := []string{"p-a", "p-b", "p\x00c", "p-d"}
		ckOf := func(i int) []byte { return []byte(fmt.Sprintf("c%02d", i)) }
		const cks = 24

		// Every write so far, so a later source can repeat one exactly or
		// carry a version older than it.
		type write struct {
			pk  string
			ck  int
			ver row.Version
		}
		var written []write
		seq := uint64(0)
		fill := func(source int) {
			var batch []row.Entry
			for _, pk := range pks {
				if rng.Intn(5) == 0 {
					continue // this source does not hold the partition
				}
				for ck := 0; ck < cks; ck++ {
					if rng.Intn(3) == 0 {
						continue
					}
					seq++
					w := write{pk: pk, ck: ck, ver: row.Version{Seq: seq, Node: uint16(rng.Intn(3))}}
					if len(written) > 0 {
						switch prev := written[rng.Intn(len(written))]; rng.Intn(4) {
						case 0: // the same write again, held by a second source
							w = prev
						case 1: // a stale copy arriving late
							w.ver = row.Version{Seq: prev.ver.Seq / 2, Node: prev.ver.Node}
							if w.ver.IsZero() {
								w.ver.Seq = 1
							}
						}
					}
					ent := row.Entry{PK: w.pk, CK: ckOf(w.ck), Ver: w.ver, Tombstone: rng.Intn(5) == 0}
					if !ent.Tombstone {
						ent.Value = []byte(fmt.Sprintf("s%d-%s-%d", source, w.pk, rng.Intn(1000)))
					}
					batch = append(batch, ent)
					written = append(written, w)
				}
			}
			if err := e.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
		}

		tables := 1 + rng.Intn(4)
		for s := 0; s < tables; s++ {
			fill(s)
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		// Hold the flusher so the next memtable stays frozen.
		e.testFlushGate = gate
		fill(tables)
		sh := e.shards[0]
		sh.mu.Lock()
		sh.freezeLocked()
		sh.mu.Unlock()
		fill(tables + 1)

		view := sh.snapshot()
		if len(view.tables) != tables || len(view.frozen) != 1 {
			t.Fatalf("seed %d: view has %d tables and %d frozen memtables, want %d and 1",
				seed, len(view.tables), len(view.frozen), tables)
		}
		bounds := [][2][]byte{{nil, nil}}
		for i := 0; i < 6; i++ {
			from, to := ckOf(rng.Intn(cks)), ckOf(rng.Intn(cks+1))
			switch rng.Intn(4) {
			case 0:
				from = nil
			case 1:
				to = nil
			}
			bounds = append(bounds, [2][]byte{from, to}) // from > to included: an empty slice
		}
		for _, pk := range append(pks, "absent") {
			for _, b := range bounds {
				from, to := b[0], b[1]
				want := row.Merge(materialise(t, view, pk, from, to)...)
				var raw row.Collector
				err := e.visitPartition(view, pk, from, to, func(ck, value []byte, ver row.Version, tomb bool) bool {
					raw.Append(ck, value, ver, tomb)
					return true
				})
				if err == nil {
					err = sameCells(raw.Cells, want)
				}
				if err != nil {
					t.Fatalf("seed %d: raw visit of %q [%q, %q): %v", seed, pk, from, to, err)
				}
				live, err := e.ScanPartition(pk, from, to)
				if err == nil {
					err = sameCells(live, row.DropTombstones(want))
				}
				if err != nil {
					t.Fatalf("seed %d: live scan of %q [%q, %q): %v", seed, pk, from, to, err)
				}
			}
			// The streamed count and the point read agree with the merge.
			want := row.Merge(materialise(t, view, pk, nil, nil)...)
			n, err := e.CountPartition(pk)
			if liveWant := len(row.DropTombstones(want)); err != nil || n != liveWant {
				t.Fatalf("seed %d: count of %q = %d, %v; want %d", seed, pk, n, err, liveWant)
			}
			for _, w := range want {
				got, ok, err := e.GetVersioned(pk, w.CK)
				if err == nil {
					if !ok {
						err = fmt.Errorf("not found")
					} else {
						err = sameCells([]row.Cell{got}, []row.Cell{w})
					}
				}
				if err != nil {
					t.Fatalf("seed %d: get %q/%q: %v", seed, pk, w.CK, err)
				}
			}
		}
		// An early stop ends the walk without an error.
		calls := 0
		err := e.visitPartition(view, pks[0], nil, nil, func(_, _ []byte, _ row.Version, _ bool) bool {
			calls++
			return false
		})
		if err != nil || calls > 1 {
			t.Fatalf("seed %d: stopped visit made %d calls, err %v", seed, calls, err)
		}
		view.close()
		openGate()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// allocPartition builds an engine holding one flushed, cache-resident
// partition of n cells shaped like the bench workloads' (128-byte
// values) beside two neighbours.
func allocPartition(t *testing.T, n int) *Engine {
	t.Helper()
	e := openTest(t, Options{Shards: 4, DisableWAL: true})
	for _, pk := range []string{"alloc-before", "alloc-pk", "alloc-z-after"} {
		for i := 0; i < n; i++ {
			if err := e.Put(pk, ck(i), bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := e.CountPartition("alloc-pk"); err != nil || got != n {
		t.Fatalf("warm-up count: %d, %v", got, err)
	}
	return e
}

// TestAggregatePartitionZeroAlloc pins the paper's query at the engine:
// counting a flushed, cache-resident partition allocates nothing,
// whether it holds 32 cells or 1000 — and still nothing once a memtable
// cell turns the read into a two-source merge, the shape the bench
// ledger's storage.count_ns times. Sibling of TestGetZeroAllocFastPath.
func TestAggregatePartitionZeroAlloc(t *testing.T) {
	skipAllocPinUnderRace(t)
	for _, n := range []int{32, 1000} {
		e := allocPartition(t, n)
		count := func(want int) func() {
			return func() {
				cells := 0
				if err := e.AggregatePartition("alloc-pk", func(_, _ []byte) { cells++ }); err != nil || cells != want {
					t.Fatalf("aggregate saw %d cells, want %d (err %v)", cells, want, err)
				}
			}
		}
		if allocs := testing.AllocsPerRun(200, count(n)); allocs != 0 {
			t.Fatalf("AggregatePartition of %d flushed cells allocates %.0f times per call, want 0", n, allocs)
		}
		if err := e.Put("alloc-pk", []byte("zz-memtable"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, count(n+1)); allocs != 0 {
			t.Fatalf("AggregatePartition of %d cells over memtable + table allocates %.0f times per call, want 0", n+1, allocs)
		}
	}
}

// TestCountTypesZeroAlloc pins the paper's count at zero allocations,
// answered from the table directory and merged over memtable + table.
func TestCountTypesZeroAlloc(t *testing.T) {
	skipAllocPinUnderRace(t)
	e := allocPartition(t, 1000)
	count := func(want uint64) func() {
		return func() {
			var tc row.TypeCounts
			if err := e.CountTypes("alloc-pk", &tc); err != nil || tc.Live() != want {
				t.Fatalf("count saw %d cells, want %d (err %v)", tc.Live(), want, err)
			}
		}
	}
	before := e.Metrics.DirectoryCounts.Load()
	if allocs := testing.AllocsPerRun(200, count(1000)); allocs != 0 {
		t.Fatalf("CountTypes from the directory allocates %.0f times per call, want 0", allocs)
	}
	if e.Metrics.DirectoryCounts.Load() == before {
		t.Fatal("a flushed partition was not counted from its table's directory")
	}
	if err := e.Put("alloc-pk", []byte("zz-memtable"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, count(1001)); allocs != 0 {
		t.Fatalf("CountTypes over memtable + table allocates %.0f times per call, want 0", allocs)
	}
}

// TestScanPartitionAllocs pins the collecting read at the cell slice
// plus the arena, whatever the cell count.
func TestScanPartitionAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	for _, n := range []int{32, 1000} {
		e := allocPartition(t, n)
		allocs := testing.AllocsPerRun(200, func() {
			if cells, err := e.ScanPartition("alloc-pk", nil, nil); err != nil || len(cells) != n {
				t.Fatalf("scan returned %d cells, %v", len(cells), err)
			}
		})
		if allocs > 3 {
			t.Fatalf("ScanPartition of %d cells allocates %.0f times per call, want <= 3", n, allocs)
		}
	}
}

// TestTableGetAllocs pins a point read served from an SSTable — the
// only kind the bench workloads make after set-up's flush — at one
// allocation: the returned value.
func TestTableGetAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	e := allocPartition(t, 32)
	key := ck(17)
	allocs := testing.AllocsPerRun(200, func() {
		if v, ok, err := e.Get("alloc-pk", key); err != nil || !ok || len(v) != 128 {
			t.Fatalf("get: %d bytes, %v, %v", len(v), ok, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Get from an SSTable allocates %.0f times per call, want <= 1", allocs)
	}
}

// skipAllocPinUnderRace skips an allocation pin in a -race build, where
// sync.Pool drops entries at random and instrumentation changes what
// escapes; the pins run in the non-race test step.
func skipAllocPinUnderRace(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}
