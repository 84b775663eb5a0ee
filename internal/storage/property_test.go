package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"scalekv/internal/row"
)

// refStore is the specification the engine is checked against: a plain
// nested map with last-write-wins semantics.
type refStore map[string]map[string][]byte

func (r refStore) put(pk string, ck, v []byte) {
	if r[pk] == nil {
		r[pk] = map[string][]byte{}
	}
	r[pk][string(ck)] = append([]byte(nil), v...)
}

func (r refStore) delete(pk string, ck []byte) {
	delete(r[pk], string(ck))
}

func (r refStore) scan(pk string) [][2][]byte {
	var cks []string
	for ck := range r[pk] {
		cks = append(cks, ck)
	}
	sort.Strings(cks)
	out := make([][2][]byte, 0, len(cks))
	for _, ck := range cks {
		out = append(out, [2][]byte{[]byte(ck), r[pk][ck]})
	}
	return out
}

// counts tallies the model's cells of pk by type.
func (r refStore) counts(pk string) row.TypeCounts {
	var tc row.TypeCounts
	for _, v := range r[pk] {
		tc.Add(row.TypeOf(v), 1)
	}
	return tc
}

// TestEngineAgainstModel drives the engine with a random operation
// sequence — puts, deletes (pre-flush), gets, scans, flushes,
// compactions, even a close/reopen — and checks every read against the
// reference model. The final sweep also checks every partition's count
// and count by type, before and after a flush and compaction leave each
// partition in one table, where its directory answers the count.
func TestEngineAgainstModel(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, FlushThreshold: 8 << 10, CompactAfter: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()

	ref := refStore{}
	rng := rand.New(rand.NewSource(2024))
	pk := func() string { return fmt.Sprintf("p%02d", rng.Intn(8)) }
	ck := func() []byte { return []byte(fmt.Sprintf("c%03d", rng.Intn(50))) }

	// Deletes are first-class tombstone writes: they mask the cell
	// wherever its older versions live (active, frozen, SSTable), so
	// the model applies them unconditionally.
	const ops = 6000
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(100); {
		case op < 45: // put
			// Five types, and now and then an empty value (type 0).
			p, c, v := pk(), ck(), []byte(fmt.Sprintf("%c%d", 'a'+i%5, i))
			if i%11 == 0 {
				v = nil
			}
			if err := e.Put(p, c, v); err != nil {
				t.Fatalf("op %d: put: %v", i, err)
			}
			ref.put(p, c, v)
		case op < 50: // delete
			p, c := pk(), ck()
			if err := e.Delete(p, c); err != nil {
				t.Fatalf("op %d: delete: %v", i, err)
			}
			ref.delete(p, c)
		case op < 75: // get
			p, c := pk(), ck()
			got, found, err := e.Get(p, c)
			if err != nil {
				t.Fatalf("op %d: get: %v", i, err)
			}
			want, wantFound := ref[p][string(c)]
			if found != wantFound {
				t.Fatalf("op %d: get(%s,%s) found=%v want %v", i, p, c, found, wantFound)
			}
			if found && !bytes.Equal(got, want) {
				t.Fatalf("op %d: get(%s,%s) = %q want %q", i, p, c, got, want)
			}
		case op < 95: // scan
			p := pk()
			got, err := e.ScanPartition(p, nil, nil)
			if err != nil {
				t.Fatalf("op %d: scan: %v", i, err)
			}
			matchesModel(t, fmt.Sprintf("op %d: scan(%s)", i, p), got, ref.scan(p))
		case op < 97: // flush
			if err := e.Flush(); err != nil {
				t.Fatalf("op %d: flush: %v", i, err)
			}
		case op < 99: // compact
			if err := e.Compact(); err != nil {
				t.Fatalf("op %d: compact: %v", i, err)
			}
		default: // close and reopen (durability)
			if err := e.Close(); err != nil {
				t.Fatalf("op %d: close: %v", i, err)
			}
			if e, err = Open(Options{Dir: dir, FlushThreshold: 8 << 10, CompactAfter: 4, Seed: 1}); err != nil {
				t.Fatalf("op %d: reopen: %v", i, err)
			}
		}
	}

	// Final full comparison.
	sweep := func(when string) {
		for p := range ref {
			got, err := e.ScanPartition(p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			matchesModel(t, fmt.Sprintf("%s scan(%s)", when, p), got, ref.scan(p))
			n, err := e.CountPartition(p)
			if err != nil || n != len(ref[p]) {
				t.Fatalf("%s count(%s) = %d, %v, want %d", when, p, n, err, len(ref[p]))
			}
			var tc row.TypeCounts
			if err := e.CountTypes(p, &tc); err != nil {
				t.Fatal(err)
			}
			if want := ref.counts(p); tc != want {
				t.Fatalf("%s count by type(%s): %d live in %d types, want %d in %d",
					when, p, tc.Live(), tc.Types(), want.Live(), want.Types())
			}
		}
	}
	sweep("final")
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	before := e.Metrics.DirectoryCounts.Load()
	sweep("compacted")
	if e.Metrics.DirectoryCounts.Load() == before {
		t.Fatal("no count was answered from a table directory after a full compaction")
	}
}

// matchesModel fails the test unless a scan returned exactly the model's
// cells: the same clustering keys with the same values, in order.
func matchesModel(t *testing.T, what string, got []row.Cell, want [][2][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells want %d", what, len(got), len(want))
	}
	for j := range want {
		if !bytes.Equal(got[j].CK, want[j][0]) || !bytes.Equal(got[j].Value, want[j][1]) {
			t.Fatalf("%s: cell %d is %q=%q want %q=%q", what, j, got[j].CK, got[j].Value, want[j][0], want[j][1])
		}
	}
}

// TestEngineRandomRangeScans cross-checks bounded scans against the
// reference on a fixed dataset spanning memtable and SSTables.
func TestEngineRandomRangeScans(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ref := refStore{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := fmt.Sprintf("p%d", i%3)
		c := []byte(fmt.Sprintf("c%04d", rng.Intn(1000)))
		v := []byte{byte(i)}
		e.Put(p, c, v)
		ref.put(p, c, v)
		if i == 250 {
			e.Flush()
		}
	}
	for trial := 0; trial < 300; trial++ {
		p := fmt.Sprintf("p%d", rng.Intn(3))
		a := []byte(fmt.Sprintf("c%04d", rng.Intn(1000)))
		b := []byte(fmt.Sprintf("c%04d", rng.Intn(1000)))
		if bytes.Compare(a, b) > 0 {
			a, b = b, a
		}
		got, err := e.ScanPartition(p, a, b)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, cell := range ref.scan(p) {
			if bytes.Compare(cell[0], a) >= 0 && bytes.Compare(cell[0], b) < 0 {
				if !bytes.Equal(got[count].CK, cell[0]) {
					t.Fatalf("trial %d: cell %d is %q want %q", trial, count, got[count].CK, cell[0])
				}
				count++
			}
		}
		if count != len(got) {
			t.Fatalf("trial %d: scan returned %d cells want %d", trial, len(got), count)
		}
	}
}
