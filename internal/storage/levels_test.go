package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalekv/internal/row"
	"scalekv/internal/sstable"
)

// TestLeveledCompactionPromotes: sustained flushes under a small L0
// threshold must push data into L1+ and keep L0 at or under the
// threshold once idle, with the write-amp counters moving.
func TestLeveledCompactionPromotes(t *testing.T) {
	e := openTest(t, Options{Shards: 1, CompactAfter: 2})
	for gen := 0; gen < 10; gen++ {
		for i := 0; i < 50; i++ {
			if err := e.Put(fmt.Sprintf("p%03d", i), ck(gen), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if len(st.Levels) < 2 || st.Levels[1].Tables == 0 {
		t.Fatalf("no data promoted to L1: levels %+v", st.Levels)
	}
	if st.Levels[0].Tables > 2 {
		t.Fatalf("idle L0 holds %d tables, threshold 2", st.Levels[0].Tables)
	}
	if st.CompactionBytesIn == 0 || st.CompactionBytesOut == 0 {
		t.Fatalf("compaction byte counters flat: in=%d out=%d", st.CompactionBytesIn, st.CompactionBytesOut)
	}
	// Every cell survives the promotions.
	for i := 0; i < 50; i++ {
		cells, err := e.ScanPartition(fmt.Sprintf("p%03d", i), nil, nil)
		if err != nil || len(cells) != 10 {
			t.Fatalf("p%03d: %d cells, err %v; want 10", i, len(cells), err)
		}
	}
}

// forgeTable writes a valid one-partition table at path, bypassing the
// engine.
func forgeTable(t *testing.T, path, pk string, cells []row.Cell) {
	t.Helper()
	w, err := sstable.NewWriter(path, sstable.WriterOptions{})
	if err == nil {
		err = w.AddPartition(pk, cells)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestManifestOrphanSweep: a table renamed into place whose manifest
// commit never happened (crash window) must be swept on reopen, not
// loaded — its data is still covered by the compaction inputs the
// manifest lists.
func TestManifestOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(1), []byte("real")); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge an orphan: a valid table no manifest lists, with a doomed
	// cell that must never become visible.
	orphan := filepath.Join(dir, "sst-s00-009999.db")
	forgeTable(t, orphan, "p", []row.Cell{{CK: ck(2), Value: []byte("ghost"), Ver: row.Version{Seq: 999}}})

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan table survived reopen")
	}
	if _, ok, _ := e2.Get("p", ck(2)); ok {
		t.Fatal("orphan table's cell became visible")
	}
	if v, ok, _ := e2.Get("p", ck(1)); !ok || string(v) != "real" {
		t.Fatalf("manifest-listed data lost: %q,%v", v, ok)
	}

	// The same crash window on a shard's first-ever flush: the table is
	// renamed into place, no manifest exists yet, and the WAL segment is
	// intact (flush removes it only after the manifest commit). The table
	// is an orphan all the same; the WAL serves every cell exactly once.
	t.Run("before first manifest commit", func(t *testing.T) {
		dir := t.TempDir()
		e, err := Open(Options{Dir: dir, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		var cells []row.Cell
		for i := 0; i < 20; i++ {
			if err := e.Put("p", ck(i), []byte("v")); err != nil {
				t.Fatal(err)
			}
			c, _, err := e.GetVersioned("p", ck(i))
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, c)
		}
		crashForTest(e)
		orphan := filepath.Join(dir, "sst-s00-000000.db")
		forgeTable(t, orphan, "p", cells)

		e2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Fatal("unlisted table survived reopen of a manifest-less shard")
		}
		if err := e2.WaitIdle(); err != nil { // the replayed segment flushes
			t.Fatal(err)
		}
		if n := e2.NumSSTables(); n != 1 {
			t.Fatalf("%d tables after recovery, want 1 (the WAL's)", n)
		}
		got, err := e2.ScanPartition("p", nil, nil)
		if err != nil || len(got) != len(cells) {
			t.Fatalf("recovered %d cells (err %v), want %d", len(got), err, len(cells))
		}
	})
}

// TestManifestMissingTableFailsLoudly: a manifest listing a table the
// directory lacks is unrecoverable loss; Open must fail, not present a
// silently incomplete store.
func TestManifestMissingTableFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "sst-*.db"))
	if len(names) != 1 {
		t.Fatalf("%d tables, want 1", len(names))
	}
	os.Remove(names[0])
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("opened a store whose manifest lists a missing table")
	}
}

// TestManifestRejectsForeignTables: a manifest line names a file the
// shard opens and, once a compaction retires the table, deletes. A
// damaged line naming a file outside the data directory, or another
// shard's table, must fail the open as a corrupt manifest and leave the
// file it names alone.
func TestManifestRejectsForeignTables(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "data")
	e, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := e.Put(fmt.Sprintf("p%02d", i), ck(1), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	own, _ := filepath.Glob(filepath.Join(dir, "sst-s00-*.db"))
	other, _ := filepath.Glob(filepath.Join(dir, "sst-s01-*.db"))
	if len(own) != 1 || len(other) != 1 {
		t.Fatalf("shard tables %v and %v, want one each", own, other)
	}
	data, err := os.ReadFile(own[0])
	if err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(root, "x", filepath.Base(own[0]))
	if err := os.MkdirAll(filepath.Dir(outside), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outside, data, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "manifest-s00")
	orig, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../x/" + filepath.Base(own[0]), filepath.Base(other[0])} {
		line := fmt.Sprintf("0 %s \"\" \"\"\n", name)
		if err := os.WriteFile(manifest, append(bytes.Clone(orig), line...), 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Open(Options{Dir: dir})
		if err == nil {
			e.Close()
			t.Fatalf("opened a store whose manifest-s00 lists %s", name)
		}
		if !strings.Contains(err.Error(), "corrupt shard manifest") {
			t.Fatalf("manifest-s00 listing %s: %v, want a corrupt manifest", name, err)
		}
	}
	for _, path := range []string{outside, other[0]} {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("a file the damaged manifest named is gone: %v", err)
		}
	}
}

// TestLevelLayoutSurvivesReopen: the manifest must restore tables to
// the levels compaction assigned them, not dump everything back to L0.
func TestLevelLayoutSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1, CompactAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 5; gen++ {
		if err := e.Put("p", ck(gen), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	want := e.Stats().Levels
	if len(want) < 2 {
		t.Fatalf("no promotion happened: %+v", want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got := e2.Stats().Levels
	if len(got) != len(want) {
		t.Fatalf("level count changed across reopen: %+v vs %+v", got, want)
	}
	for i := range want {
		if got[i].Tables != want[i].Tables {
			t.Fatalf("level %d: %d tables after reopen, was %d", i, got[i].Tables, want[i].Tables)
		}
	}
	cells, err := e2.ScanPartition("p", nil, nil)
	if err != nil || len(cells) != 5 {
		t.Fatalf("reopen lost cells: %d, %v", len(cells), err)
	}
}
