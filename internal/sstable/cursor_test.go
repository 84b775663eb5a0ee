package sstable

import (
	"bytes"
	"fmt"
	"testing"

	"scalekv/internal/enc"
	"scalekv/internal/raceflag"
	"scalekv/internal/row"
)

// blockEntry is one decoded entry, owned.
type blockEntry struct {
	ik, value []byte
	ver       row.Version
	tomb      bool
}

func (e blockEntry) equal(o blockEntry) bool {
	return bytes.Equal(e.ik, o.ik) && bytes.Equal(e.value, o.value) && e.ver == o.ver && e.tomb == o.tomb
}

// decodeBlock decodes a stored block end to end: CRC check, optional
// decompression, then the entry walk. See decodeStoredBlock and
// decodeEntries.
func decodeBlock(block []byte, fn func(ik, value []byte, ver row.Version, tomb bool) bool) error {
	payload, err := decodeStoredBlock(block)
	if err != nil {
		return err
	}
	return decodeEntries(payload, fn)
}

// decodeEntries streams an entry payload's cells through fn in order.
// The ik and value slices are only valid during the call (ik is a
// reused buffer, value aliases the payload); fn copies what it keeps.
// Returning false from fn stops the walk without error. Any structural
// violation — truncated varint, impossible lengths — yields ErrCorrupt;
// arbitrary input bytes never panic (the fuzz target pins this).
func decodeEntries(payload []byte, fn func(ik, value []byte, ver row.Version, tomb bool) bool) error {
	var c blockCursor
	if err := c.reset(payload); err != nil {
		return err
	}
	for c.next() {
		if !fn(c.key, c.value, c.ver, c.tomb) {
			return nil
		}
	}
	return c.err
}

// linearDecode is the reference the cursor is checked against: every
// entry of the payload from its first byte, restart array unused.
func linearDecode(t testing.TB, payload []byte) []blockEntry {
	t.Helper()
	var out []blockEntry
	err := decodeEntries(payload, func(ik, value []byte, ver row.Version, tomb bool) bool {
		out = append(out, blockEntry{append([]byte(nil), ik...), append([]byte(nil), value...), ver, tomb})
		return true
	})
	if err != nil {
		t.Fatalf("linear decode: %v", err)
	}
	return out
}

// seekThenIterate returns what a cursor yields from seek(target) on.
func seekThenIterate(payload, target []byte) ([]blockEntry, error) {
	var c blockCursor
	if err := c.reset(payload); err != nil {
		return nil, err
	}
	var out []blockEntry
	for ok := c.seek(target); ok; ok = c.next() {
		out = append(out, blockEntry{append([]byte(nil), c.key...), append([]byte(nil), c.value...), c.ver, c.tomb})
	}
	return out, c.err
}

// checkSeek asserts that seek(target)-then-iterate equals the entries
// of a linear decode with key >= target.
func checkSeek(t testing.TB, payload []byte, all []blockEntry, target []byte) {
	t.Helper()
	want := all
	for len(want) > 0 && bytes.Compare(want[0].ik, target) < 0 {
		want = want[1:]
	}
	got, err := seekThenIterate(payload, target)
	if err != nil {
		t.Fatalf("seek %q: %v", target, err)
	}
	if len(got) != len(want) {
		t.Fatalf("seek %q: %d entries, want %d", target, len(got), len(want))
	}
	for i := range want {
		if !got[i].equal(want[i]) {
			t.Fatalf("seek %q: entry %d is %q, want %q", target, i, got[i].ik, want[i].ik)
		}
	}
}

// TestBlockCursorSeekMatchesLinearDecode: for every key of a block and
// every gap between keys (before the first, between neighbours, past the
// last), seek lands on the entry a linear decode would reach — on blocks
// of one entry, just under, at and just over one restart interval, and
// several intervals.
func TestBlockCursorSeekMatchesLinearDecode(t *testing.T) {
	for _, n := range []int{1, 15, 16, 17, 100} {
		var b blockBuilder
		for i := 0; i < n; i++ {
			// Keys two apart leave a gap to aim at; values and versions
			// vary so a wrong landing cannot compare equal.
			ik := enc.EncodeInternalKey("part", []byte(fmt.Sprintf("k%05d", 2*i+1)))
			b.add(ik, []byte(fmt.Sprintf("v%d", i)), row.Version{Seq: uint64(i + 1), Node: uint16(i % 3)}, i%5 == 4)
		}
		payload := b.finishEntries()
		all := linearDecode(t, payload)
		if len(all) != n {
			t.Fatalf("n=%d: linear decode saw %d entries", n, len(all))
		}
		for i := 0; i <= 2*n+1; i++ {
			checkSeek(t, payload, all, enc.EncodeInternalKey("part", []byte(fmt.Sprintf("k%05d", i))))
		}
		checkSeek(t, payload, all, nil)
		checkSeek(t, payload, all, enc.PartitionPrefix("part"))
		checkSeek(t, payload, all, enc.PartitionEnd("part"))
		checkSeek(t, payload, all, enc.PartitionPrefix("a"))
	}
}

// TestBlockCursorSeekStepsWithinOneRestartInterval pins the point of
// the restart array: a seek decodes at most blockRestartInterval
// entries, wherever in the block the target sits.
func TestBlockCursorSeekStepsWithinOneRestartInterval(t *testing.T) {
	var b blockBuilder
	const n = 10 * blockRestartInterval
	var starts []int // entry offsets, to count the entries between two positions
	for i := 0; i < n; i++ {
		starts = append(starts, len(b.buf))
		b.add(enc.EncodeInternalKey("part", ck(i)), []byte("v"), row.Version{Seq: 1}, false)
	}
	payload := b.finishEntries()
	for i := 0; i < n; i++ {
		var c blockCursor
		if err := c.reset(payload); err != nil {
			t.Fatal(err)
		}
		// Seek from a cursor already at the block's end, so nothing of an
		// earlier position can help.
		for c.next() {
		}
		if !c.seek(enc.EncodeInternalKey("part", ck(i))) {
			t.Fatalf("seek ck %d found nothing", i)
		}
		restart := starts[i-i%blockRestartInterval]
		decoded := 0
		for _, s := range starts {
			if s >= restart && s < c.pos {
				decoded++
			}
		}
		if decoded != i%blockRestartInterval+1 {
			t.Fatalf("seek ck %d decoded %d entries, want %d", i, decoded, i%blockRestartInterval+1)
		}
	}
}

// TestBlockCursorSeekRejectsBadRestarts: the restart array is input like
// any other byte of the block.
func TestBlockCursorSeekRejectsBadRestarts(t *testing.T) {
	build := func() []byte {
		var b blockBuilder
		for i := 0; i < 3*blockRestartInterval; i++ {
			b.add(enc.EncodeInternalKey("part", ck(i)), []byte("value"), row.Version{Seq: 1}, false)
		}
		return b.finishEntries()
	}
	target := enc.EncodeInternalKey("part", ck(20))
	restart := func(p []byte, i int) []byte { return p[len(p)-4-4*(3-i):] }

	past := build()
	copy(restart(past, 1), []byte{0xff, 0xff, 0xff, 0x7f})
	if _, err := seekThenIterate(past, target); err != ErrCorrupt {
		t.Fatalf("restart offset past the data: %v, want ErrCorrupt", err)
	}
	// Offset 1 is the second byte of the first entry: whatever decodes
	// from there is not an entry that shares nothing.
	mid := build()
	copy(restart(mid, 1), []byte{1, 0, 0, 0})
	if _, err := seekThenIterate(mid, target); err != ErrCorrupt {
		t.Fatalf("restart offset mid-entry: %v, want ErrCorrupt", err)
	}
	// A restart that points at an ordinary entry: it shares a prefix with
	// a predecessor the seek never decoded.
	shared := build()
	var c blockCursor
	if err := c.reset(shared); err != nil {
		t.Fatal(err)
	}
	c.next()
	copy(restart(shared, 1), []byte{byte(c.pos), 0, 0, 0}) // the second entry
	if _, err := seekThenIterate(shared, target); err != ErrCorrupt {
		t.Fatalf("restart offset at a prefix-sharing entry: %v, want ErrCorrupt", err)
	}
}

// warmTable writes one 32-cell partition (the bench workloads' shape)
// plus neighbours, and returns a reader with the partition's blocks
// resident in an attached cache.
func warmTable(t *testing.T, cells int) *Reader {
	t.Helper()
	parts := map[string][]row.Cell{
		"a-before": makeCells(8, 128),
		"pk":       makeCells(cells, 128),
		"z-after":  makeCells(8, 128),
	}
	r, err := Open(writeTable(t, WriterOptions{}, parts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	r.AttachCache(NewBlockCache(64 << 20))
	if got, err := r.ReadPartition("pk"); err != nil || len(got) != cells {
		t.Fatalf("warm-up read: %d cells, %v", len(got), err)
	}
	return r
}

// TestReadSliceAllocs pins ReadSlice at three allocations — the cell
// slice, the arena, and one spare — whatever the cell count.
func TestReadSliceAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	for _, cells := range []int{32, 1000} {
		r := warmTable(t, cells)
		allocs := testing.AllocsPerRun(200, func() {
			if got, err := r.ReadSlice("pk", nil, nil); err != nil || len(got) != cells {
				t.Fatalf("read %d cells, %v", len(got), err)
			}
		})
		if allocs > 3 {
			t.Fatalf("ReadSlice of %d cells allocates %.0f times, want <= 3", cells, allocs)
		}
	}
}

// TestTableGetAllocs pins the SSTable point read at one allocation: the
// returned value.
func TestTableGetAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	r := warmTable(t, 32)
	key := ck(17)
	allocs := testing.AllocsPerRun(200, func() {
		if c, ok, err := r.Get("pk", key); err != nil || !ok || len(c.Value) != 128 {
			t.Fatalf("get: %v %v", ok, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Get allocates %.0f times, want <= 1", allocs)
	}
}

// TestTableGet checks the point read against the slice read it
// replaced, hits and misses alike.
func TestTableGet(t *testing.T) {
	cells := []row.Cell{
		{CK: []byte(""), Value: []byte("empty ck"), Ver: row.Version{Seq: 1}},
		{CK: []byte("b"), Ver: row.Version{Seq: 9, Node: 1}, Tombstone: true},
		{CK: []byte("b\x00"), Value: []byte("successor of b"), Ver: row.Version{Seq: 2}},
		{CK: []byte("d"), Value: []byte(""), Ver: row.Version{Seq: 3}},
	}
	big := makeCells(5000, 64) // spans many blocks
	r, err := Open(writeTable(t, WriterOptions{}, map[string][]row.Cell{"p": cells, "q": big}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, want := range cells {
		got, ok, err := r.Get("p", want.CK)
		if err != nil || !ok {
			t.Fatalf("get %q: %v %v", want.CK, ok, err)
		}
		if !bytes.Equal(got.CK, want.CK) || !bytes.Equal(got.Value, want.Value) || got.Ver != want.Ver || got.Tombstone != want.Tombstone {
			t.Fatalf("get %q = %+v, want %+v", want.CK, got, want)
		}
	}
	for _, miss := range []string{"a", "c", "b\x00\x00", "e"} {
		if _, ok, err := r.Get("p", []byte(miss)); ok || err != nil {
			t.Fatalf("get absent %q: found=%v err=%v", miss, ok, err)
		}
	}
	if _, _, err := r.Get("absent", []byte("a")); err != ErrNotFound {
		t.Fatalf("get in absent partition: %v, want ErrNotFound", err)
	}
	for i := 0; i < len(big); i += 97 {
		got, ok, err := r.Get("q", ck(i))
		if err != nil || !ok || !bytes.Equal(got.Value, big[i].Value) {
			t.Fatalf("get q/%d: %v %v", i, ok, err)
		}
		// Between ck(i) and ck(i+1), and one block read either way.
		before := r.Stats.ReadAtCalls.Load()
		if _, ok, err := r.Get("q", append(ck(i), '!')); ok || err != nil {
			t.Fatalf("get absent q/%d!: found=%v err=%v", i, ok, err)
		}
		if d := r.Stats.ReadAtCalls.Load() - before; d != 1 {
			t.Fatalf("absent point read cost %d ReadAts, want 1", d)
		}
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
