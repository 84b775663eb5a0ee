package storage

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// This file is the per-shard level manifest: `manifest-sNN` records
// which SSTables the shard owns and at which compaction level, together
// with each table's partition-key bounds so reopening does not have to
// touch the tables' own indexes. The manifest is the unit of crash
// atomicity for every table-set change:
//
//	flush:      rename table into place → write manifest → delete WAL
//	compaction: rename outputs into place → write manifest → unlink inputs
//
// A crash between any two steps leaves either (a) a renamed table the
// manifest does not list — swept as an orphan on the next open, its data
// still covered by the WAL segments or the compaction inputs — or (b) a
// manifest listing survivors while doomed inputs linger on disk, again
// swept as orphans. A table the manifest lists but the directory lacks
// is unrecoverable loss and fails the open loudly.
//
// Format: one line per table,
//
//	<level> <filename> <quoted firstPK> <quoted lastPK>
//
// with Go-quoted bounds so arbitrary partition-key bytes survive the
// text encoding. A shard without a manifest has never committed a
// table: any sst-sNN-*.db beside it is an orphan of case (a).

// manifestEntry is one table line of a shard manifest.
type manifestEntry struct {
	level int
	name  string // base filename within the data dir
	first string // smallest partition key in the table
	last  string // largest partition key in the table
}

func (s *shard) manifestPath() string {
	return filepath.Join(s.eng.opts.Dir, fmt.Sprintf("manifest-s%02d", s.id))
}

// readShardManifest parses shard id's manifest-sNN. A missing manifest
// (a shard that has not flushed yet) reads as an empty one. A line that
// names anything but one of the shard's own tables is corrupt: the name
// is joined onto the data directory, and the file behind it is deleted
// once a compaction retires it.
func readShardManifest(path string, id int) (entries []manifestEntry, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e manifestEntry
		rest := line
		if i := strings.IndexByte(rest, ' '); i > 0 {
			e.level, err = strconv.Atoi(rest[:i])
			rest = rest[i+1:]
		} else {
			err = fmt.Errorf("missing fields")
		}
		if err == nil {
			if i := strings.IndexByte(rest, ' '); i > 0 {
				e.name, rest = rest[:i], rest[i+1:]
			} else {
				err = fmt.Errorf("missing bounds")
			}
		}
		if err == nil {
			var tail string
			e.first, tail, err = unquotePrefix(rest)
			if err == nil {
				e.last, tail, err = unquotePrefix(strings.TrimPrefix(tail, " "))
			}
			if err == nil && strings.TrimSpace(tail) != "" {
				err = fmt.Errorf("trailing garbage")
			}
		}
		if _, ok := tableSeq(e.name, id); err != nil || e.level < 0 || !ok {
			return nil, fmt.Errorf("storage: corrupt shard manifest %s: line %q", path, line)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// tableSeq returns the sequence number of shard id's table file name as
// sstPath builds it, sst-sNN-<seq>.db; ok is false for any other name,
// a path with a directory included.
func tableSeq(name string, id int) (seq int, ok bool) {
	digits, ok := strings.CutPrefix(name, fmt.Sprintf("sst-s%02d-", id))
	digits, isDB := strings.CutSuffix(digits, ".db")
	n, err := strconv.ParseUint(digits, 10, 31)
	return int(n), ok && isDB && err == nil
}

// unquotePrefix consumes one Go-quoted string from the front of s.
func unquotePrefix(s string) (val, rest string, err error) {
	q, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", err
	}
	val, err = strconv.Unquote(q)
	return val, s[len(q):], err
}

// writeManifestLocked persists the shard's current level layout with
// the usual tmp-then-rename discipline. Called under mu at every
// table-set change; the file is a handful of lines, so holding the lock
// through the write keeps the layout and the manifest trivially in
// sync. An I/O failure surfaces to the caller, which treats it like any
// background-write failure (the in-memory swap is rolled back or the
// job retried).
func (s *shard) writeManifestLocked() error {
	var entries []manifestEntry
	for level, tables := range s.levels {
		for _, t := range tables {
			entries = append(entries, manifestEntry{level, filepath.Base(t.Path()), t.first, t.last})
		}
	}
	path := s.manifestPath()
	tmp := path + ".tmp"
	err := writeSynced(tmp, formatManifest(entries))
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// formatManifest lays entries out as readShardManifest parses them.
func formatManifest(entries []manifestEntry) []byte {
	var b []byte
	for _, e := range entries {
		b = fmt.Appendf(b, "%d %s %s %s\n", e.level, e.name, strconv.Quote(e.first), strconv.Quote(e.last))
	}
	return b
}

// writeSynced writes data to a new file at path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
