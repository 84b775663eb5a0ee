package storage

import (
	"fmt"
	"testing"

	"scalekv/internal/memtable"
	"scalekv/internal/row"
)

// countModel is what a partition's count by type must be: the live
// cells written, tallied by row.TypeOf.
type countModel map[string]map[string][]byte // pk → ck → value; nil value = deleted

func (m countModel) put(t *testing.T, e *Engine, pk string, c int, value []byte) {
	t.Helper()
	if err := e.Put(pk, ck(c), value); err != nil {
		t.Fatal(err)
	}
	if m[pk] == nil {
		m[pk] = map[string][]byte{}
	}
	m[pk][string(ck(c))] = append([]byte{}, value...)
}

func (m countModel) del(t *testing.T, e *Engine, pk string, c int) {
	t.Helper()
	if err := e.Delete(pk, ck(c)); err != nil {
		t.Fatal(err)
	}
	if m[pk] == nil {
		m[pk] = map[string][]byte{}
	}
	m[pk][string(ck(c))] = nil
}

func (m countModel) counts(pk string) row.TypeCounts {
	var tc row.TypeCounts
	for _, v := range m[pk] {
		if v != nil {
			tc.Add(row.TypeOf(v), 1)
		}
	}
	return tc
}

// checkCounts asserts that CountTypes, the merge-cursor tally and the
// model agree on pk, and that the directory answered exactly when
// directory says it must.
func checkCounts(t *testing.T, e *Engine, m countModel, pk string, directory bool) {
	t.Helper()
	before := e.Metrics.DirectoryCounts.Load()
	var got row.TypeCounts
	if err := e.CountTypes(pk, &got); err != nil {
		t.Fatal(err)
	}
	fast := e.Metrics.DirectoryCounts.Load() - before
	var cursor row.TypeCounts
	if err := e.AggregatePartition(pk, func(_, value []byte) { cursor.Add(row.TypeOf(value), 1) }); err != nil {
		t.Fatal(err)
	}
	if want := m.counts(pk); got != want || cursor != want {
		t.Fatalf("%s: CountTypes %d live in %d types, cursor %d in %d, model %d in %d",
			pk, got.Live(), got.Types(), cursor.Live(), cursor.Types(), want.Live(), want.Types())
	}
	if n, err := e.CountPartition(pk); err != nil || n != int(got.Live()) {
		t.Fatalf("%s: CountPartition = %d, %v; CountTypes counted %d", pk, n, err, got.Live())
	}
	if want := map[bool]int64{true: 1}[directory]; fast != want {
		t.Fatalf("%s: %d directory answers, want %d", pk, fast, want)
	}
}

// typedValue is a value of type ty (its first byte), or the empty value.
func typedValue(ty byte, n int) []byte {
	if n == 0 {
		return nil
	}
	v := make([]byte, n)
	v[0] = ty
	return v
}

// TestCountTypesAgreesWithTheCursor: on every shape a partition can sit
// in, the count by type equals the merge cursor's tally and the model,
// and a lone table's directory answers exactly the single-source cases:
// one table; one table holding tombstones and empty values; a table
// that another table's bloom filter falsely admits. Two overlapping
// tables, a memtable over a table, a memtable alone, and a memtable
// whose key filter falsely admits the partition over a table all fall
// back to the cursor.
func TestCountTypesAgreesWithTheCursor(t *testing.T) {
	e := openTest(t, Options{Shards: 1, DisableWAL: true, FlushThreshold: 1 << 30, CompactAfter: 100})
	m := countModel{}
	flush := func() {
		t.Helper()
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	for c := 0; c < 50; c++ {
		m.put(t, e, "one-table", c, typedValue(byte(c%3), 8))
		m.put(t, e, "dead-and-empty", c, typedValue(byte(c%5+1), c%4*5))
		m.put(t, e, "two-tables", c, typedValue(byte(c%2), 8))
		m.put(t, e, "mem-over-table", c, typedValue(9, 8))
	}
	for c := 0; c < 50; c += 3 {
		m.del(t, e, "dead-and-empty", c)
	}
	checkCounts(t, e, m, "one-table", false) // memtable only
	flush()
	checkCounts(t, e, m, "one-table", true)
	checkCounts(t, e, m, "dead-and-empty", true)
	checkCounts(t, e, m, "absent", false)

	// A second table overwrites, deletes and adds cells of one partition.
	for c := 40; c < 70; c++ {
		if c%4 == 0 {
			m.del(t, e, "two-tables", c)
		} else {
			m.put(t, e, "two-tables", c, typedValue(7, 3))
		}
	}
	flush()
	checkCounts(t, e, m, "two-tables", false)
	checkCounts(t, e, m, "one-table", true) // the second table's bloom or directory rules it out

	m.put(t, e, "mem-over-table", 3, typedValue(4, 2))
	m.del(t, e, "mem-over-table", 4)
	checkCounts(t, e, m, "mem-over-table", false)

	// A partition the first table's bloom filter admits although the
	// table does not hold it: the table is dropped at its directory, and
	// the table that does hold the partition answers alone.
	view := e.shards[0].snapshot()
	first := view.tables[0]
	view.close()
	bloomFP := ""
	for i := 0; i < 1_000_000 && bloomFP == ""; i++ {
		if pk := fmt.Sprintf("fp%07d", i); first.MayContain(pk) {
			bloomFP = pk
		}
	}
	if bloomFP == "" {
		t.Fatal("no bloom false positive among a million keys")
	}
	for c := 0; c < 10; c++ {
		m.put(t, e, bloomFP, c, typedValue(byte(c), 1))
	}
	flush()
	checkCounts(t, e, m, bloomFP, true)

	// A memtable whose key filter admits a partition it does not hold is a
	// source with no cells: the count falls back and still agrees. The
	// smallest filter (a 32 KB flush threshold), crowded by a few hundred
	// keys, admits about a quarter of the keys it never saw.
	e = openTest(t, Options{Shards: 1, DisableWAL: true, FlushThreshold: 32 << 10, CompactAfter: 100})
	m = countModel{}
	for p := 0; p < 40; p++ {
		m.put(t, e, fmt.Sprintf("t%02d", p), 0, typedValue(byte(p), 4))
	}
	flush()
	for c := 0; c < 600; c++ {
		m.put(t, e, fmt.Sprintf("fill%04d", c), 0, nil)
	}
	view = e.shards[0].snapshot()
	var mc memtable.Cursor
	filterFP := ""
	for p := 0; p < 40 && filterFP == ""; p++ {
		if pk := fmt.Sprintf("t%02d", p); view.mem.Slice(&mc, pk, nil, nil) {
			filterFP = pk
		}
	}
	mc.Release()
	view.close()
	if filterFP == "" {
		t.Fatal("the memtable's key filter rules out all 40 table partitions")
	}
	checkCounts(t, e, m, filterFP, false)
}
