package enc

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestInternalKeyRoundTrip(t *testing.T) {
	cases := []struct {
		pk string
		ck []byte
	}{
		{"simple", []byte("ck")},
		{"", nil},
		{"has\x00zero", []byte("ck\x00too")},
		{"ends-with-zero\x00", []byte{}},
		{"\x00\x00\x00", []byte{0, 0xFF, 0}},
		{"pk", []byte{0xFF, 0x00, 0x01}}, // ck starting with the escape mark
	}
	for _, c := range cases {
		ik := EncodeInternalKey(c.pk, c.ck)
		pk, ck, err := DecodeInternalKey(ik)
		if err != nil {
			t.Fatalf("decode(%q,%q): %v", c.pk, c.ck, err)
		}
		if pk != c.pk || !bytes.Equal(ck, c.ck) {
			t.Fatalf("round trip (%q,%x) -> (%q,%x)", c.pk, c.ck, pk, ck)
		}
	}
}

func TestInternalKeyOrdering(t *testing.T) {
	// Keys must sort by (pk, ck) lexicographically even when pk contains
	// zero bytes or is a prefix of another pk.
	type kc struct {
		pk string
		ck []byte
	}
	items := []kc{
		{"a", []byte{9}},
		{"a", []byte{1}},
		{"ab", []byte{0}},
		{"a\x00b", []byte{0}},
		{"b", nil},
		{"", []byte{5}},
	}
	enc := make([][]byte, len(items))
	for i, it := range items {
		enc[i] = EncodeInternalKey(it.pk, it.ck)
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].pk != items[j].pk {
			return items[i].pk < items[j].pk
		}
		return bytes.Compare(items[i].ck, items[j].ck) < 0
	})
	sort.Slice(enc, func(i, j int) bool { return bytes.Compare(enc[i], enc[j]) < 0 })
	for i := range items {
		pk, ck, err := DecodeInternalKey(enc[i])
		if err != nil {
			t.Fatal(err)
		}
		if pk != items[i].pk || !bytes.Equal(ck, items[i].ck) {
			t.Fatalf("position %d: encoded order (%q,%x) vs logical order (%q,%x)",
				i, pk, ck, items[i].pk, items[i].ck)
		}
	}
}

func TestPartitionPrefixAndEndBracket(t *testing.T) {
	f := func(pkRaw []byte, ck []byte) bool {
		pk := string(pkRaw)
		ik := EncodeInternalKey(pk, ck)
		lo := PartitionPrefix(pk)
		hi := PartitionEnd(pk)
		return bytes.Compare(lo, ik) <= 0 && bytes.Compare(ik, hi) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPartitionEndExcludesOtherPartitions(t *testing.T) {
	// Keys of partition "a" must be outside the range of partition "ab"
	// and vice versa, even though "a" is a prefix of "ab".
	ikA := EncodeInternalKey("a", []byte{0xFF, 0xFF})
	loAB, hiAB := PartitionPrefix("ab"), PartitionEnd("ab")
	if bytes.Compare(ikA, loAB) >= 0 && bytes.Compare(ikA, hiAB) < 0 {
		t.Fatal("partition a key leaked into ab range")
	}
	ikAB := EncodeInternalKey("ab", nil)
	loA, hiA := PartitionPrefix("a"), PartitionEnd("a")
	if bytes.Compare(ikAB, loA) >= 0 && bytes.Compare(ikAB, hiA) < 0 {
		t.Fatal("partition ab key leaked into a range")
	}
}

func TestDecodeMalformed(t *testing.T) {
	if _, _, err := DecodeInternalKey([]byte("no-separator")); err == nil {
		t.Fatal("want error for key without separator")
	}
}

func TestZeroBytePartitionDoesNotInterleave(t *testing.T) {
	// Keys of partition "a\x00x" must fall outside ["a" prefix, "a" end).
	ik := EncodeInternalKey("a\x00x", []byte{1})
	lo, hi := PartitionPrefix("a"), PartitionEnd("a")
	if bytes.Compare(ik, lo) >= 0 && bytes.Compare(ik, hi) < 0 {
		t.Fatal("partition a\\x00x key leaked into partition a range")
	}
}

func TestQuickInternalKeyRoundTrip(t *testing.T) {
	f := func(pkRaw, ck []byte) bool {
		pk := string(pkRaw)
		gotPK, gotCK, err := DecodeInternalKey(EncodeInternalKey(pk, ck))
		return err == nil && gotPK == pk && bytes.Equal(gotCK, ck)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestUint64Ordered(t *testing.T) {
	f := func(a, b uint64) bool {
		ea := AppendUint64Ordered(nil, a)
		eb := AppendUint64Ordered(nil, b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Uint64Ordered(AppendUint64Ordered(nil, 12345)) != 12345 {
		t.Fatal("round trip failed")
	}
}

func TestInt64Ordered(t *testing.T) {
	f := func(a, b int64) bool {
		ea := AppendInt64Ordered(nil, a)
		eb := AppendInt64Ordered(nil, b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, v := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		if Int64Ordered(AppendInt64Ordered(nil, v)) != v {
			t.Fatalf("round trip failed for %d", v)
		}
	}
}

func TestFloat64Ordered(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -math.SmallestNonzeroFloat64, 0,
		math.SmallestNonzeroFloat64, 1, 1e300, math.Inf(1)}
	var prev []byte
	for i, v := range vals {
		e := AppendFloat64Ordered(nil, v)
		if got := Float64Ordered(e); got != v {
			t.Fatalf("round trip %v -> %v", v, got)
		}
		if i > 0 && bytes.Compare(prev, e) >= 0 {
			t.Fatalf("ordering violated at %v", v)
		}
		prev = e
	}
	// -0 and +0 encode adjacently and both round trip by value.
	if Float64Ordered(AppendFloat64Ordered(nil, math.Copysign(0, -1))) != 0 {
		t.Fatal("-0 round trip changed magnitude")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		e := AppendBytes(nil, payload)
		got, n := Bytes(e)
		return n == len(e) && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesCorrupt(t *testing.T) {
	e := AppendBytes(nil, []byte("hello"))
	if _, n := Bytes(e[:3]); n != 0 {
		t.Fatal("truncated payload must return n=0")
	}
	if _, n := Bytes(nil); n != 0 {
		t.Fatal("empty input must return n=0")
	}
}

func TestBoundsBracketTheSlice(t *testing.T) {
	var b Bounds
	for _, pk := range []string{"", "a", "a\x00b", "part"} {
		for _, c := range []struct{ from, to []byte }{
			{nil, nil}, {[]byte("c"), nil}, {nil, []byte("x")}, {[]byte("c"), []byte("x")}, {[]byte{}, []byte{0}},
		} {
			b.Set(pk, c.from, c.to) // reused across cases: Set must not keep stale bytes
			if !bytes.Equal(b.Prefix(), PartitionPrefix(pk)) {
				t.Fatalf("pk %q: prefix %x", pk, b.Prefix())
			}
			if want := EncodeInternalKey(pk, c.from); !bytes.Equal(b.Start(), want) {
				t.Fatalf("pk %q from %q: start %x, want %x", pk, c.from, b.Start(), want)
			}
			want := PartitionEnd(pk)
			if c.to != nil {
				want = EncodeInternalKey(pk, c.to)
			}
			if !bytes.Equal(b.End(), want) {
				t.Fatalf("pk %q to %q: end %x, want %x", pk, c.to, b.End(), want)
			}
		}
	}
}
