package row

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func ck(i int) []byte { return []byte(fmt.Sprintf("ck%04d", i)) }

func mkPartition(n int) *Partition {
	p := &Partition{Key: "pk"}
	for i := 0; i < n; i++ {
		p.Cells = append(p.Cells, Cell{CK: ck(i), Value: []byte{byte(i)}})
	}
	return p
}

func TestFind(t *testing.T) {
	p := mkPartition(100)
	for i := 0; i < 100; i++ {
		if got := p.Find(ck(i)); got != i {
			t.Fatalf("Find(%d) = %d", i, got)
		}
	}
	if p.Find([]byte("absent")) != -1 {
		t.Fatal("found absent ck")
	}
	empty := &Partition{}
	if empty.Find(ck(0)) != -1 {
		t.Fatal("found in empty partition")
	}
}

func TestSliceRange(t *testing.T) {
	p := mkPartition(10)
	got := p.SliceRange(ck(3), ck(7))
	if len(got) != 4 {
		t.Fatalf("got %d cells want 4", len(got))
	}
	if !bytes.Equal(got[0].CK, ck(3)) || !bytes.Equal(got[3].CK, ck(6)) {
		t.Fatalf("range bounds wrong: %q..%q", got[0].CK, got[3].CK)
	}
	if all := p.SliceRange(nil, nil); len(all) != 10 {
		t.Fatalf("full range %d want 10", len(all))
	}
	if head := p.SliceRange(nil, ck(2)); len(head) != 2 {
		t.Fatalf("head range %d want 2", len(head))
	}
	if tail := p.SliceRange(ck(8), nil); len(tail) != 2 {
		t.Fatalf("tail range %d want 2", len(tail))
	}
	if none := p.SliceRange(ck(5), ck(5)); len(none) != 0 {
		t.Fatalf("empty range returned %d cells", len(none))
	}
}

func TestSize(t *testing.T) {
	p := &Partition{Key: "ab", Cells: []Cell{{CK: []byte("c"), Value: []byte("dd")}}}
	if p.Size() != 2+1+2 {
		t.Fatalf("size %d want 5", p.Size())
	}
	if p.Cells[0].Size() != 3 {
		t.Fatalf("cell size %d want 3", p.Cells[0].Size())
	}
}

func TestMergeDisjoint(t *testing.T) {
	a := []Cell{{CK: ck(0)}, {CK: ck(2)}}
	b := []Cell{{CK: ck(1)}, {CK: ck(3)}}
	got := Merge(a, b)
	if len(got) != 4 {
		t.Fatalf("merged %d cells want 4", len(got))
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(got[i].CK, ck(i)) {
			t.Fatalf("position %d: %q", i, got[i].CK)
		}
	}
}

func TestMergeNewestWins(t *testing.T) {
	older := []Cell{{CK: ck(1), Value: []byte("old")}}
	newer := []Cell{{CK: ck(1), Value: []byte("new")}}
	got := Merge(older, newer)
	if len(got) != 1 || string(got[0].Value) != "new" {
		t.Fatalf("got %v, want single cell with value new", got)
	}
	// Reversed argument order flips the winner.
	got = Merge(newer, older)
	if len(got) != 1 || string(got[0].Value) != "old" {
		t.Fatalf("got %v, want single cell with value old", got)
	}
}

func TestMergeThreeWay(t *testing.T) {
	s0 := []Cell{{CK: ck(0), Value: []byte("s0")}, {CK: ck(5), Value: []byte("s0")}}
	s1 := []Cell{{CK: ck(0), Value: []byte("s1")}, {CK: ck(3), Value: []byte("s1")}}
	s2 := []Cell{{CK: ck(5), Value: []byte("s2")}}
	got := Merge(s0, s1, s2)
	want := map[string]string{"ck0000": "s1", "ck0003": "s1", "ck0005": "s2"}
	if len(got) != len(want) {
		t.Fatalf("merged %d cells want %d", len(got), len(want))
	}
	for _, c := range got {
		if want[string(c.CK)] != string(c.Value) {
			t.Fatalf("cell %q has value %q want %q", c.CK, c.Value, want[string(c.CK)])
		}
	}
}

func TestMergeEdgeCases(t *testing.T) {
	if got := Merge(); got != nil {
		t.Fatal("no sources must merge to nil")
	}
	one := []Cell{{CK: ck(1)}}
	if got := Merge(one); len(got) != 1 {
		t.Fatal("single source must pass through")
	}
	if got := Merge(nil, one, nil); len(got) != 1 {
		t.Fatalf("nil sources must be skipped, got %d", len(got))
	}
}

// Property: Merge output is sorted, duplicate-free, and contains exactly
// the union of input keys.
func TestMergeProperty(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		mk := func(raw []uint8, tag string) []Cell {
			seen := map[uint8]bool{}
			var keys []int
			for _, k := range raw {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, int(k))
				}
			}
			sort.Ints(keys)
			cells := make([]Cell, len(keys))
			for i, k := range keys {
				cells[i] = Cell{CK: ck(k), Value: []byte(tag)}
			}
			return cells
		}
		a, b := mk(aRaw, "a"), mk(bRaw, "b")
		got := Merge(a, b)
		union := map[string]bool{}
		for _, c := range a {
			union[string(c.CK)] = true
		}
		inB := map[string]bool{}
		for _, c := range b {
			union[string(c.CK)] = true
			inB[string(c.CK)] = true
		}
		if len(got) != len(union) {
			return false
		}
		for i, c := range got {
			if i > 0 && bytes.Compare(got[i-1].CK, c.CK) >= 0 {
				return false // not strictly ascending
			}
			wantVal := "a"
			if inB[string(c.CK)] {
				wantVal = "b" // newer source wins
			}
			if string(c.Value) != wantVal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCollectorOwnsItsCells: what a Collector returns survives the
// views it was fed from being overwritten, keeps nil for empty bytes,
// and an append to one cell's bytes cannot reach its neighbour's.
func TestCollectorOwnsItsCells(t *testing.T) {
	for _, hint := range []int{0, 3, 100} {
		var c Collector
		c.Grow(hint)
		scratch := make([]byte, 0, 64)
		var want []Cell
		for i := 0; i < 50; i++ {
			ck := append(scratch[:0], fmt.Sprintf("ck%03d", i)...)
			value := bytes.Repeat([]byte{byte(i)}, i%7*i) // sizes that outgrow any first guess
			tomb := i%9 == 0
			if tomb {
				value = nil
			}
			c.Append(ck, value, Version{Seq: uint64(i)}, tomb)
			want = append(want, Cell{CK: append([]byte(nil), ck...), Value: append([]byte(nil), value...), Ver: Version{Seq: uint64(i)}, Tombstone: tomb})
			for j := range ck {
				ck[j] = 'X' // the view is gone
			}
		}
		if len(c.Cells) != len(want) {
			t.Fatalf("hint %d: %d cells, want %d", hint, len(c.Cells), len(want))
		}
		for i, w := range want {
			g := c.Cells[i]
			if !bytes.Equal(g.CK, w.CK) || !bytes.Equal(g.Value, w.Value) || g.Ver != w.Ver || g.Tombstone != w.Tombstone {
				t.Fatalf("hint %d: cell %d is %+v, want %+v", hint, i, g, w)
			}
			if len(w.Value) == 0 && g.Value != nil {
				t.Fatalf("hint %d: cell %d has an empty non-nil value", hint, i)
			}
			_ = append(g.CK, "overflow"...)
		}
		for i, w := range want {
			if !bytes.Equal(c.Cells[i].Value, w.Value) || !bytes.Equal(c.Cells[i].CK, w.CK) {
				t.Fatalf("hint %d: cell %d was overwritten by an append to a neighbour", hint, i)
			}
		}
	}
}

// TestTypeCounts: All yields exactly the types counted, ascending, with
// their counts; Live and Types follow; Reset empties the tally; an empty
// value is type 0.
func TestTypeCounts(t *testing.T) {
	var tc TypeCounts
	want := map[uint8]uint64{0: 2, 63: 1, 64: 5, 200: 3, 255: 1}
	for ty, n := range want {
		tc.Add(ty, n)
	}
	tc.Add(7, 0) // counting nothing leaves no trace
	tc.Add(TypeOf(nil), 1)
	want[0]++
	last, seen := -1, 0
	for ty, n := range tc.All() {
		if int(ty) <= last || want[ty] != n {
			t.Fatalf("All yielded (%d, %d) after type %d; want counts %v", ty, n, last, want)
		}
		last, seen = int(ty), seen+1
	}
	if seen != len(want) || tc.Types() != len(want) || tc.Live() != 13 {
		t.Fatalf("%d types yielded, Types %d, Live %d; want %d types, 13 live", seen, tc.Types(), tc.Live(), len(want))
	}
	if TypeOf([]byte{9, 1}) != 9 {
		t.Fatal("a value's type is its first byte")
	}
	tc.Reset()
	if tc != (TypeCounts{}) {
		t.Fatal("Reset left counts behind")
	}
}
