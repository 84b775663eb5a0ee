package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// goldenDir holds the table files TestTablesAreByteStable pins. To
// regenerate them after an intended format change, delete the directory's
// .db files and run the test once: it writes what the engine produced
// and fails, naming each file it wrote.
const goldenDir = "testdata/golden"

// TestTablesAreByteStable pins the engine's on-disk table bytes, the
// disk twin of wire's TestFastFramesAreByteStable: a fixed, seeded input
// goes through two flushes into L0 and one major compaction into L1, and
// every table written on the way must equal its file under
// testdata/golden byte for byte. The input has a multi-block partition,
// overwrites across the flushes, tombstones and empty values, so every
// section of the format — data blocks, block index, partition
// directory, bloom filter and footer — is covered. A refactor of the
// writer or of compaction that moves a single byte fails here, not in a
// directory an older build wrote.
func TestTablesAreByteStable(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir, Shards: 1, DisableWAL: true, FlushThreshold: 1 << 30})
	rng := rand.New(rand.NewSource(53))
	value := func() []byte {
		if rng.Intn(10) == 0 {
			return nil
		}
		v := make([]byte, 1+rng.Intn(48))
		v[0] = byte(rng.Intn(4))
		for i := 1; i < len(v); i++ {
			v[i] = byte('a' + rng.Intn(8))
		}
		return v
	}
	// Each step's new table is captured as soon as it is written: the
	// compaction retires the L0 tables it merges.
	got := map[string][]byte{}
	seen := map[string]bool{}
	capture := func(name string) {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "sst-s00-*.db"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if seen[p] {
				continue
			}
			seen[p] = true
			if _, dup := got[name]; dup {
				t.Fatalf("%s: more than one new table", name)
			}
			if got[name], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		if got[name] == nil {
			t.Fatalf("%s: no new table", name)
		}
	}
	flush := func(name string) {
		t.Helper()
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		capture(name)
	}
	for p := 0; p < 24; p++ {
		n := 1 + rng.Intn(3) + (p%7)*6
		if p == 5 {
			n = 240 // spans several 4 KB blocks
		}
		for c := 0; c < n; c++ {
			if err := e.Put(fmt.Sprintf("pk%03d", p), ck(c), value()); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush("l0-first.db")
	for i := 0; i < 200; i++ {
		pk, c := fmt.Sprintf("pk%03d", rng.Intn(32)), ck(rng.Intn(40))
		var err error
		if rng.Intn(4) == 0 {
			err = e.Delete(pk, c)
		} else {
			err = e.Put(pk, c, value())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	flush("l0-second.db")
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	capture("l1-compacted.db")

	var wrote []string
	for _, name := range []string{"l0-first.db", "l0-second.db", "l1-compacted.db"} {
		path := filepath.Join(goldenDir, name)
		want, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			if err := os.MkdirAll(goldenDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got[name], 0o644); err != nil {
				t.Fatal(err)
			}
			wrote = append(wrote, path)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[name], want) {
			t.Errorf("%s: the engine wrote %d bytes that differ from the pinned %d, first at offset %d",
				name, len(got[name]), len(want), firstDiff(got[name], want))
		}
	}
	if len(wrote) > 0 {
		t.Fatalf("no golden tables; wrote %v — commit them and rerun", wrote)
	}
}

// firstDiff returns the first offset at which a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
