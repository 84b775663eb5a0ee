package memtable

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scalekv/internal/raceflag"
	"scalekv/internal/row"
)

type cellAddr struct {
	pk, ck string
}

type storedCell struct {
	value []byte
	ver   row.Version
	tomb  bool
}

// fillRandom puts n random cells into m — overwrites, stale copies,
// tombstones, empty and 100-byte clustering keys, long partition keys —
// and returns what m must hold for each address.
func fillRandom(m *Memtable, rng *rand.Rand, n int) map[cellAddr]storedCell {
	want := map[cellAddr]storedCell{}
	pks := make([]string, 64)
	for i := range pks {
		pks[i] = fmt.Sprintf("pk-%d", i)
		if i%8 == 0 {
			pks[i] = strings.Repeat("long-partition-key/", 20) + pks[i]
		}
	}
	var seq uint64
	for i := 0; i < n; i++ {
		pk := pks[rng.Intn(len(pks))]
		var ck []byte
		switch rng.Intn(8) {
		case 0: // empty clustering key
		case 1:
			ck = bytes.Repeat([]byte{byte(rng.Intn(4))}, 100)
		default:
			ck = []byte(fmt.Sprintf("ck-%d", rng.Intn(n/4+1))) // collides: overwrites
		}
		seq++
		ver := row.Version{Seq: seq}
		if rng.Intn(10) == 0 {
			ver.Seq = uint64(rng.Intn(int(seq))) // a stale copy
		}
		tomb := rng.Intn(10) == 0
		value := []byte(fmt.Sprintf("v%d", i))
		if tomb {
			value = nil
		}
		m.Put(pk, ck, value, ver, tomb)
		addr := cellAddr{pk, string(ck)}
		if old, ok := want[addr]; !ok || !ver.Less(old.ver) {
			want[addr] = storedCell{value, ver, tomb}
		}
	}
	return want
}

// checkAllFound asserts Get finds every stored cell and Slice yields
// every stored partition's cells, nothing more.
func checkAllFound(t *testing.T, m *Memtable, want map[cellAddr]storedCell) {
	t.Helper()
	perPK := map[string]int{}
	for addr, c := range want {
		perPK[addr.pk]++
		v, ver, tomb, ok := m.Get(addr.pk, []byte(addr.ck))
		if !ok || ver != c.ver || tomb != c.tomb || !bytes.Equal(v, c.value) {
			t.Fatalf("Get(%q, %q) = %q %+v %v %v, want %q %+v %v", addr.pk, addr.ck, v, ver, tomb, ok, c.value, c.ver, c.tomb)
		}
	}
	var c Cursor
	for pk, n := range perPK {
		if !m.Slice(&c, pk, nil, nil) {
			t.Fatalf("Slice ruled out stored partition %q", pk)
		}
		got := 0
		for c.Next() {
			ck, _, ver, _ := c.Cell()
			if want[cellAddr{pk, string(ck)}].ver != ver {
				t.Fatalf("Slice(%q) yielded %q at %+v", pk, ck, ver)
			}
			got++
		}
		if got != n {
			t.Fatalf("Slice(%q) yielded %d cells, want %d", pk, got, n)
		}
	}
}

// TestFilterHasNoFalseNegatives: whatever was put is found, by Get and
// by Slice, at the filter's sizing and far past it.
func TestFilterHasNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(1, 4<<20)
	checkAllFound(t, m, fillRandom(m, rng, 5000))

	// The smallest filter, filled 50 times past the payload it is sized
	// for: nearly every bit is set, and still nothing is missed.
	small := New(2, 0)
	sizedFor := int64(minFilterWords * 64 * filterBytesPerBit)
	want := map[cellAddr]storedCell{}
	for small.Bytes() < 50*sizedFor {
		for addr, c := range fillRandom(small, rng, 2000) {
			if old, ok := want[addr]; !ok || !c.ver.Less(old.ver) {
				want[addr] = c
			}
		}
	}
	set, words := 0, small.filter.Marshal()
	for _, b := range words {
		set += bits.OnesCount8(b)
	}
	if share := float64(set) / float64(8*len(words)); share < 0.9 {
		t.Fatalf("filter only %.2f set: not saturated", share)
	}
	checkAllFound(t, small, want)
}

// TestFilterRulesOutAbsentKeys: at its sizing the filter keeps most
// absent keys and partitions away from the skip list.
func TestFilterRulesOutAbsentKeys(t *testing.T) {
	m := New(1, 4<<20)
	for i := 0; i < 20000; i++ {
		put(m, fmt.Sprintf("pk%d", i/4), []byte(fmt.Sprintf("ck%d", i%4)), make([]byte, 100))
	}
	passed := 0
	var c Cursor
	for i := 0; i < 10000; i++ {
		if m.filter.MayContainString(fmt.Sprintf("absent%d", i)) {
			passed++
		}
		if m.Slice(&c, fmt.Sprintf("absent%d", i), nil, nil) && c.Next() {
			t.Fatal("absent partition yielded a cell")
		}
	}
	if passed > 500 {
		t.Fatalf("%d of 10000 absent keys passed the filter, want < 5%%", passed)
	}
}

// TestFilterReaderSeesCompletedPut: a reader that has seen a Put return
// never misses its key, in Get or in Slice. Run under -race.
func TestFilterReaderSeesCompletedPut(t *testing.T) {
	m := New(1, 64<<10) // small: saturates as the test runs
	const n = 20000
	var done atomic.Int64 // puts that have returned
	var wg sync.WaitGroup
	fail := make(chan string, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c Cursor
			for {
				k := done.Load()
				if k > 0 {
					i := k - 1
					if _, _, _, ok := m.Get(fmt.Sprintf("pk%d", i), []byte("ck")); !ok {
						fail <- fmt.Sprintf("Get missed completed put %d", i)
						return
					}
					if !m.Slice(&c, fmt.Sprintf("pk%d", i), nil, nil) || !c.Next() {
						fail <- fmt.Sprintf("Slice missed completed put %d", i)
						return
					}
				}
				if k == n {
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("pk%d", i), []byte("ck"), []byte("v"), row.Version{Seq: uint64(i + 1)}, false)
		done.Store(int64(i + 1))
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestGetAllocs pins the memtable point read at zero allocations, hit
// and miss alike.
func TestGetAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := New(1, 4<<20)
	for i := 0; i < 1000; i++ {
		put(m, "pk", []byte(fmt.Sprintf("ck%04d", i)), []byte("v"))
	}
	hit, miss := []byte("ck0500"), []byte("ck0500x")
	for _, c := range []struct {
		name string
		ck   []byte
		ok   bool
	}{{"hit", hit, true}, {"miss", miss, false}} {
		allocs := testing.AllocsPerRun(1000, func() {
			if _, _, _, ok := m.Get("pk", c.ck); ok != c.ok {
				t.Fatalf("%s: found=%v", c.name, ok)
			}
		})
		if allocs != 0 {
			t.Fatalf("Get %s allocates %.1f times, want 0", c.name, allocs)
		}
	}
}
