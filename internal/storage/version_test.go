package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalekv/internal/row"
	"scalekv/internal/sstable"
)

// --- Delete durability -------------------------------------------------------

// TestDeleteSurvivesFlushCompactReopen is the headline tombstone
// regression: a deleted cell stays deleted through every lifecycle
// transition the engine has — flush to SSTable, full compaction,
// process restart — while its neighbours survive untouched.
func TestDeleteSurvivesFlushCompactReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		if err := e.Put("p", ck(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Flush v1 of everything, then overwrite and delete across the
	// table boundary so the tombstone must mask an SSTable-resident cell.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(3), []byte("v3-new")); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("p", ck(3)); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("p", ck(7)); err != nil {
		t.Fatal(err)
	}

	check := func(stage string, e *Engine) {
		t.Helper()
		for _, i := range []int{3, 7} {
			if v, ok, err := e.Get("p", ck(i)); ok || err != nil {
				t.Fatalf("%s: deleted ck(%d) visible: %q, err=%v", stage, i, v, err)
			}
		}
		if v, ok, _ := e.Get("p", ck(4)); !ok || string(v) != "v4" {
			t.Fatalf("%s: neighbour lost: %q,%v", stage, v, ok)
		}
		cells, err := e.ScanPartition("p", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 18 {
			t.Fatalf("%s: scan sees %d cells want 18", stage, len(cells))
		}
		for _, c := range cells {
			if c.Tombstone {
				t.Fatalf("%s: scan leaked a tombstone", stage)
			}
			if bytes.Equal(c.CK, ck(3)) || bytes.Equal(c.CK, ck(7)) {
				t.Fatalf("%s: deleted cell in scan", stage)
			}
		}
	}

	check("live", e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after flush", e)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after compact", e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	check("after reopen", e2)
}

// TestReopenRestoresVersionCounter: a write accepted after a restart
// must order after everything written before it — including tombstones.
// If the counter were not restored from the persisted max sequence, the
// post-restart put would stamp a low sequence and lose to the old
// tombstone.
func TestReopenRestoresVersionCounter(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(1), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("p", ck(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil { // tombstone reaches an SSTable
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.Put("p", ck(1), []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := e2.Get("p", ck(1)); !ok || string(v) != "reborn" {
		t.Fatalf("post-restart put lost to a pre-restart tombstone: %q,%v", v, ok)
	}
}

// --- Last-write-wins merge ---------------------------------------------------

// TestLWWArrivalOrderIndependent pins the property the rebalance race
// fix rests on: pre-versioned copies of the same cells applied in
// opposite orders (forwarded-then-streamed vs streamed-then-forwarded)
// converge to the same winner.
func TestLWWArrivalOrderIndependent(t *testing.T) {
	older := row.Entry{PK: "p", CK: ck(1), Value: []byte("old"), Ver: row.Version{Seq: 10, Node: 1}}
	newer := row.Entry{PK: "p", CK: ck(1), Value: []byte("new"), Ver: row.Version{Seq: 20, Node: 1}}
	delOld := row.Entry{PK: "p", CK: ck(2), Ver: row.Version{Seq: 11, Node: 2}, Tombstone: true}
	putNew := row.Entry{PK: "p", CK: ck(2), Value: []byte("after-del"), Ver: row.Version{Seq: 12, Node: 1}}

	for name, order := range map[string][]row.Entry{
		"forward-first": {newer, older, putNew, delOld},
		"stream-first":  {older, newer, delOld, putNew},
	} {
		e := openTest(t, Options{Shards: 1})
		for _, ent := range order {
			if err := e.PutBatch([]row.Entry{ent}); err != nil {
				t.Fatal(err)
			}
		}
		if v, ok, _ := e.Get("p", ck(1)); !ok || string(v) != "new" {
			t.Fatalf("%s: ck1 = %q,%v want new", name, v, ok)
		}
		if v, ok, _ := e.Get("p", ck(2)); !ok || string(v) != "after-del" {
			t.Fatalf("%s: ck2 = %q,%v want after-del", name, v, ok)
		}
		// A flush between arrivals must not change the outcome either.
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if v, _, _ := e.Get("p", ck(1)); string(v) != "new" {
			t.Fatalf("%s: flush changed the winner to %q", name, v)
		}
	}
}

// TestLWWAcrossFlushBoundary: the newer version is flushed to an
// SSTable, then an older copy lands in the active memtable (a late
// stream page). The memtable copy is more recent by arrival but older
// by version — reads must keep serving the SSTable's cell.
func TestLWWAcrossFlushBoundary(t *testing.T) {
	e := openTest(t, Options{Shards: 1})
	if err := e.PutBatch([]row.Entry{{PK: "p", CK: ck(1), Value: []byte("new"), Ver: row.Version{Seq: 50, Node: 3}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.PutBatch([]row.Entry{{PK: "p", CK: ck(1), Value: []byte("stale"), Ver: row.Version{Seq: 9, Node: 1}}}); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := e.Get("p", ck(1)); !ok || string(v) != "new" {
		t.Fatalf("stale memtable copy shadowed a newer SSTable cell: %q,%v", v, ok)
	}
	cells, err := e.ScanPartition("p", nil, nil)
	if err != nil || len(cells) != 1 || string(cells[0].Value) != "new" {
		t.Fatalf("scan = %v, %v", cells, err)
	}
}

// --- Tombstone GC ------------------------------------------------------------

// TestTombstoneGCOnCompaction: once every memtable is drained, a full
// compaction collects tombstones (and the partitions they emptied); an
// older shadowed copy arriving before the compaction keeps the
// tombstone alive via the GC watermark.
func TestTombstoneGCOnCompaction(t *testing.T) {
	e := openTest(t, Options{Shards: 1})
	if err := e.Put("gone", ck(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Put("kept", ck(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil { // table 1: both cells live
		t.Fatal(err)
	}
	if err := e.Delete("gone", ck(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil { // table 2: the tombstone
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.Metrics.TombstonesGCed.Load() == 0 {
		t.Fatal("compaction kept a collectable tombstone")
	}
	// The tombstone-only partition is gone entirely.
	for _, pk := range partitionsOf(t, e) {
		if pk == "gone" {
			t.Fatal("tombstone-only partition survived compaction")
		}
	}
	if _, ok, _ := e.Get("kept", ck(1)); !ok {
		t.Fatal("live cell lost in compaction")
	}
}

// TestTombstoneKeptWhileOlderCopyUnflushed: a stale pre-versioned copy
// sits in the active memtable below the tombstone's version. The GC
// watermark must keep the tombstone through compaction, or the stale
// copy would resurrect when it flushes.
func TestTombstoneKeptWhileOlderCopyUnflushed(t *testing.T) {
	e := openTest(t, Options{Shards: 1})
	if err := e.Put("p", ck(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("p", ck(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil { // tombstone now in an SSTable
		t.Fatal(err)
	}
	// A late stream page delivers an older copy into the memtable.
	if err := e.PutBatch([]row.Entry{{PK: "p", CK: ck(1), Value: []byte("stale"), Ver: row.Version{Seq: 1, Node: 9}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e.Get("p", ck(1)); ok {
		t.Fatal("compaction dropped a tombstone still masking an unflushed stale copy")
	}
	// After the stale copy flushes, the retained tombstone still masks it.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := e.Get("p", ck(1)); ok {
		t.Fatalf("stale copy resurrected after flush+compact: %q", v)
	}
}

// --- other on-disk generations ----------------------------------------------

// flatTable is the smallest well-formed table of the flat layouts older
// engines wrote — v1 (32-byte footer ending "SKVT") or v2 (40 bytes,
// "SKV2") — byte by byte, since no writer produces them any more:
// header, an empty partition index, an empty bloom section, footer.
func flatTable(term string) []byte {
	b := []byte("SKVT\x00")                    // header | index: 0 partitions
	b = binary.LittleEndian.AppendUint64(b, 4) // indexOff
	b = binary.LittleEndian.AppendUint64(b, 5) // bloomOff
	b = binary.LittleEndian.AppendUint64(b, 0) // partition count
	if term == "SKV2" {
		b = binary.LittleEndian.AppendUint64(b, 0) // maxSeq
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE([]byte{0}))
	return append(b, term...)
}

// blockTable is a block-based table as an earlier generation ended it —
// "SKV3" before type histograms, "SKV4" before the blocked bloom filter:
// a golden table with its terminator swapped, which the footer CRC does
// not cover.
func blockTable(t *testing.T, term string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(goldenDir, "l0-first.db"))
	if err != nil {
		t.Fatal(err)
	}
	return append(b[:len(b)-4:len(b)-4], term...)
}

// TestOpenRejectsOtherGenerations: a directory (or table) written by an
// older engine — or stamped by a newer one — is refused by name at
// Open, never upgraded in place, swept or misread.
func TestOpenRejectsOtherGenerations(t *testing.T) {
	const table, manifest = "sst-s00-000000.db", "0 sst-s00-000000.db \"a\" \"b\"\n"
	for _, tc := range []struct {
		name    string
		files   map[string]string
		wantIs  error
		wantMsg string
	}{
		{"v1 table", map[string]string{"SHARDS": "1 v4\n", "manifest-s00": manifest, table: string(flatTable("SKVT"))},
			sstable.ErrUnsupportedFormat, table},
		{"v2 table", map[string]string{"SHARDS": "1 v4\n", "manifest-s00": manifest, table: string(flatTable("SKV2"))},
			sstable.ErrUnsupportedFormat, table},
		{"v3 table", map[string]string{"SHARDS": "1 v4\n", "manifest-s00": manifest, table: string(blockTable(t, "SKV3"))},
			sstable.ErrUnsupportedFormat, table},
		{"v4 table", map[string]string{"SHARDS": "1 v4\n", "manifest-s00": manifest, table: string(blockTable(t, "SKV4"))},
			sstable.ErrUnsupportedFormat, table},
		{"v2 SHARDS", map[string]string{"SHARDS": "1 v2\n", table: string(flatTable("SKV2"))},
			nil, `written with format "v2"; this engine supports "v4"`},
		{"v3 SHARDS", map[string]string{"SHARDS": "1 v3\n", table: string(blockTable(t, "SKV3"))},
			nil, `written with format "v3"; this engine supports "v4"`},
		{"format-less SHARDS", map[string]string{"SHARDS": "1\n", table: string(flatTable("SKVT"))},
			nil, `written with format ""; this engine supports "v4"`},
		{"future SHARDS", map[string]string{"SHARDS": "4 v9\n"},
			nil, `written with format "v9"; this engine supports "v4"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, content := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			e, err := Open(Options{Dir: dir})
			if err == nil {
				e.Close()
				t.Fatal("opened")
			}
			if tc.wantIs != nil && (!errors.Is(err, tc.wantIs) || errors.Is(err, sstable.ErrCorrupt)) {
				t.Fatalf("error %v, want %v", err, tc.wantIs)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not name %q", err, tc.wantMsg)
			}
			for name, content := range tc.files {
				if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(b) != content {
					t.Fatalf("%s touched by the failed open: %q, %v", name, b, err)
				}
			}
		})
	}
}

// --- ScanRange index ---------------------------------------------------------

// TestScanRangePagedIndexComplete: paging a range with a tiny page size
// must enumerate exactly the same cells as one unbounded page — the
// cached per-scan partition index and its binary-search resume must not
// skip or duplicate partitions.
func TestScanRangePagedIndexComplete(t *testing.T) {
	e := openTest(t, Options{Shards: 4})
	const parts = 40
	want := map[string]bool{}
	for p := 0; p < parts; p++ {
		pk := fmt.Sprintf("part-%03d", p)
		want[pk] = true
		for i := 0; i < 5; i++ {
			if err := e.Put(pk, ck(i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	got := map[string]int{}
	afterTok, afterPK := int64(math.MinInt64), ""
	pages := 0
	for {
		page, err := e.ScanRange(lo, hi, afterTok, afterPK, 7)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, ent := range page.Entries {
			got[ent.PK]++
		}
		if !page.More {
			break
		}
		afterTok, afterPK = page.NextToken, page.NextPK
	}
	if pages < 2 {
		t.Fatalf("page size 7 over %d cells produced %d pages", parts*5, pages)
	}
	if len(got) != parts {
		t.Fatalf("paged scan saw %d partitions want %d", len(got), parts)
	}
	for pk, n := range got {
		if !want[pk] || n != 5 {
			t.Fatalf("partition %s: %d cells", pk, n)
		}
	}

	// A new scan session (first page) must observe partitions created
	// after the previous session's index was built.
	if err := e.Put("part-zzz", ck(0), []byte("v")); err != nil {
		t.Fatal(err)
	}
	page, err := e.ScanRange(lo, hi, math.MinInt64, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, ent := range page.Entries {
		if ent.PK == "part-zzz" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("fresh scan session served a stale partition index")
	}
}

// TestScanRangeStreamsTombstones: the streamer's view must include
// tombstones so deletes propagate to a range's new owner.
func TestScanRangeStreamsTombstones(t *testing.T) {
	e := openTest(t, Options{Shards: 1})
	if err := e.Put("p", ck(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(2), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("p", ck(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil { // tombstone must survive into tables
		t.Fatal(err)
	}
	page, err := e.ScanRange(math.MinInt64, math.MaxInt64, math.MinInt64, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var tombs, live int
	for _, ent := range page.Entries {
		if ent.Tombstone {
			tombs++
			if ent.Ver.IsZero() {
				t.Fatal("streamed tombstone lost its version")
			}
		} else {
			live++
		}
	}
	if tombs != 1 || live != 1 {
		t.Fatalf("stream page: %d tombstones, %d live; want 1, 1", tombs, live)
	}
}
