package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"scalekv/internal/row"
)

// retiredOpRecord is an intact, correctly checksummed record whose op
// byte is 1: the unversioned put of earlier engines.
func retiredOpRecord() []byte {
	rec := appendRecordV2(nil, "p", []byte("old"), []byte("v"), row.Version{}, false)
	rec[8] = 1
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))
	return rec
}

// FuzzReplayWAL feeds replayWAL a segment of two intact records
// followed by arbitrary bytes — whatever a crashed append, a bad disk or
// an older engine left behind. It pins three properties:
//
//  1. replay never panics and never fails: everything after the last
//     intact record is a torn tail, silently discarded;
//  2. the intact records in front of the tail come back unchanged;
//  3. replay allocates in proportion to the file, whatever length a
//     damaged header claims.
func FuzzReplayWAL(f *testing.F) {
	want := []row.Entry{
		{PK: "p", CK: []byte("a"), Value: []byte("v"), Ver: row.Version{Seq: 7, Node: 1}},
		{PK: "p", CK: []byte("b"), Ver: row.Version{Seq: 8, Node: 2}, Tombstone: true},
	}
	var valid []byte
	for _, e := range want {
		valid = appendRecordV2(valid, e.PK, e.CK, e.Value, e.Ver, e.Tombstone)
	}

	for _, seed := range [][]byte{
		{},
		valid,                 // more intact records
		make([]byte, 8),       // zero-filled tail: length 0, CRC 0
		retiredOpRecord(),     // well-formed record, op byte no longer written
		{0, 0, 0, 0x40, 1, 2}, // torn header asking for 1 GiB
		valid[:len(valid)-1],  // record cut inside its last field
		// An op byte and nothing else, correctly checksummed.
		append(binary.LittleEndian.AppendUint32([]byte{1, 0, 0, 0}, crc32.ChecksumIEEE([]byte{walPutV2})), walPutV2),
	} {
		f.Add(seed)
	}

	path := filepath.Join(f.TempDir(), "wal-fuzz.log")
	f.Fuzz(func(t *testing.T, tail []byte) {
		seg := append(append([]byte(nil), valid...), tail...)
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var got []row.Entry
		err := replayWAL(path, func(r row.Entry) {
			if len(got) < len(want) {
				got = append(got, r)
			}
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("replay failed instead of discarding the tail: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("replay returned %d of the %d intact records", len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.PK != w.PK || !bytes.Equal(g.CK, w.CK) || !bytes.Equal(g.Value, w.Value) || g.Ver != w.Ver || g.Tombstone != w.Tombstone {
				t.Fatalf("record %d came back as %+v, want %+v", i, g, w)
			}
		}
		// Payload buffers plus the partition-key copies are bounded by
		// the file; the slack absorbs the runtime's own bookkeeping.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(seg))+1<<20 {
			t.Fatalf("replay of a %d-byte segment allocated %d bytes", len(seg), grew)
		}
	})
}

// FuzzManifest feeds readShardManifest arbitrary bytes as shard 3's
// level manifest — what a torn write, a bad disk or a hand edit leaves.
// It pins three properties:
//
//  1. parsing never panics;
//  2. every entry it accepts sits at a level >= 0 and names one of the
//     shard's own tables, sst-s03-<seq>.db with no directory: the name
//     is joined onto the data directory, and the file behind it is
//     deleted when a compaction retires the table;
//  3. what it accepts, laid out again by formatManifest, reads back the
//     same.
func FuzzManifest(f *testing.F) {
	for _, seed := range []string{
		"",
		"0 sst-s03-000001.db \"a\" \"k\"\n\n1 sst-s03-000002.db \"\\x00\" \"\\xff\"\n",
		"0 ../x/sst-s03-000001.db \"\" \"\"\n", // outside the data directory
		"0 sst-s01-000001.db \"\" \"\"\n",      // another shard's table
		"0 sst-s03-+1.db \"\" \"\"\n",
		"-1 sst-s03-000001.db \"\" \"\"\n",
		"0 sst-s03-000001.db \"unterminated\n",
		"0 sst-s03-000001.db \"a\" \"b\" trailing\n",
	} {
		f.Add([]byte(seed))
	}
	path := filepath.Join(f.TempDir(), "manifest-s03")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := readShardManifest(path, 3)
		if err != nil {
			return
		}
		for _, e := range entries {
			if _, ok := tableSeq(e.name, 3); !ok || e.level < 0 || filepath.Base(e.name) != e.name {
				t.Fatalf("accepted entry %+v", e)
			}
		}
		if err := os.WriteFile(path, formatManifest(entries), 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := readShardManifest(path, 3)
		if err != nil || !reflect.DeepEqual(again, entries) {
			t.Fatalf("entries %+v read back as %+v, %v", entries, again, err)
		}
	})
}

// FuzzShardsFile feeds loadOrInitShardCount arbitrary bytes as a SHARDS
// file. It pins three properties:
//
//  1. parsing never panics;
//  2. a count it accepts is in [1, maxShards]: Open starts that many
//     shards, each with a worker and a memtable;
//  3. the file it writes for that count on a fresh directory reads back
//     as the same count.
func FuzzShardsFile(f *testing.F) {
	for _, seed := range []string{
		"8 v4\n", "", "0 v4", "-3 v4", "8 v3", "8", "1024 v4", "1025 v4",
		"1000000000 v4\n", // a worker and a memtable each
	} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	path := filepath.Join(dir, "SHARDS")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := loadOrInitShardCount(dir, 1)
		if err != nil {
			return
		}
		if n < 1 || n > maxShards {
			t.Fatalf("%q: accepted %d shards", data, n)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if _, err := loadOrInitShardCount(dir, n); err != nil {
			t.Fatalf("writing %d shards: %v", n, err)
		}
		if again, err := loadOrInitShardCount(dir, 1); err != nil || again != n {
			t.Fatalf("%d shards read back as %d, %v", n, again, err)
		}
	})
}
