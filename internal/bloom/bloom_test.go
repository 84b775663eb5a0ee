package bloom

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"scalekv/internal/murmur"
	"scalekv/internal/raceflag"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(12 * 1000)
	for i := 0; i < 1000; i++ {
		f.AddString(fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.MayContainString(fmt.Sprintf("key-%d", i)) || !f.MayContain([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

// shardKeys returns n keys of the benchmark's "p%07d" form, starting
// at index from, that the engine's shard picker sends to shard 0 of 8.
func shardKeys(from, n int) (keys []string, next int) {
	for i := from; len(keys) < n; i++ {
		k := fmt.Sprintf("p%07d", i)
		if murmur.StringSum64(k)%8 == 0 {
			keys = append(keys, k)
		}
		next = i + 1
	}
	return keys, next
}

// TestFalsePositiveRateNearTarget: at a table's sizing (12 bits per
// partition, here exactly 12.0 after rounding: 5461 keys in 1024 words)
// the filter passes at most 1.5 % of absent keys — over keys of one
// shard, whose hashes' low bits the shard picker has already fixed.
func TestFalsePositiveRateNearTarget(t *testing.T) {
	members, next := shardKeys(0, 5461)
	f := New(12 * len(members))
	if got := len(f.words); got != 1024 {
		t.Fatalf("%d words, want 1024", got)
	}
	for _, k := range members {
		f.AddString(k)
	}
	absent, _ := shardKeys(next, 100_000)
	fp := 0
	for _, k := range absent {
		if f.MayContainString(k) {
			fp++
		}
	}
	if rate := float64(fp) / float64(len(absent)); rate > 0.015 {
		t.Fatalf("false-positive rate %.4f over one shard's keys, want <= 0.015", rate)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f := New(1024)
	if f.MayContainString("anything") || f.MayContain(nil) {
		t.Fatal("empty filter claimed membership")
	}
}

// TestSizingClamps: the word count rounds up to a power of two, and is
// at least one word whatever the request.
func TestSizingClamps(t *testing.T) {
	for _, c := range []struct{ bits, words int }{
		{-5, 1}, {0, 1}, {1, 1}, {64, 1}, {65, 2}, {12 * 1000, 256}, {1 << 20, 1 << 14},
	} {
		if got := len(New(c.bits).words); got != c.words {
			t.Errorf("New(%d): %d words, want %d", c.bits, got, c.words)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := New(12 * 500)
	for i := 0; i < 500; i++ {
		f.AddString(fmt.Sprintf("rt-%d", i))
	}
	data := f.Marshal()
	if len(data) != 8*len(f.words) {
		t.Fatalf("marshalled %d bytes for %d words", len(data), len(f.words))
	}
	g, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if string(g.Marshal()) != string(data) {
		t.Fatal("words changed in the round trip")
	}
	for i := 0; i < 500; i++ {
		if !g.MayContainString(fmt.Sprintf("rt-%d", i)) {
			t.Fatalf("false negative after round trip for rt-%d", i)
		}
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("absent-%d", i)
		if f.MayContainString(k) != g.MayContainString(k) {
			t.Fatalf("%q: filters disagree after round trip", k)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"partial word", make([]byte, 12)},
		{"three words", make([]byte, 24)},
	} {
		if _, err := Unmarshal(c.data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Unmarshal = %v, want ErrCorrupt", c.name, err)
		}
	}
}

func TestQuickMembershipProperty(t *testing.T) {
	f := New(12 * 2000)
	prop := func(key []byte) bool {
		f.Add(key)
		return f.MayContain(key) && f.MayContainString(string(key))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFilterZeroAlloc: adding and probing byte and string keys, short
// and long, allocates nothing — the memtable's point read and the
// engine's table probe run through them.
func TestFilterZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := New(1 << 16)
	for _, s := range []string{"p0000042", strings.Repeat("long-partition-key/", 8)} {
		b := []byte(s)
		allocs := testing.AllocsPerRun(1000, func() {
			f.Add(b)
			f.AddString(s)
			if !f.MayContain(b) || !f.MayContainString(s) {
				t.Fatalf("%q: false negative", s)
			}
		})
		if allocs != 0 {
			t.Fatalf("%d-byte key: %.1f allocations per Add/MayContain round, want 0", len(s), allocs)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(1 << 23)
	key := []byte("benchmark-key-000000")
	var i byte
	for b.Loop() {
		i++
		key[len(key)-1] = i
		f.Add(key)
	}
}

func BenchmarkMayContain(b *testing.B) {
	f := New(12 * 100000)
	for i := 0; i < 100000; i++ {
		f.AddString(fmt.Sprintf("key-%d", i))
	}
	key := []byte("key-50000")
	for b.Loop() {
		f.MayContain(key)
	}
}
