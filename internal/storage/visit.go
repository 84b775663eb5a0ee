package storage

import (
	"bytes"
	"sync"

	"scalekv/internal/memtable"
	"scalekv/internal/row"
	"scalekv/internal/sstable"
)

// This file is the engine's one partition read path: a k-way merge over
// per-source cursors — an SSTable slice cursor per table, a memtable
// cursor per memtable — that streams a partition's cells as views, with
// nothing materialised in between. Scans collect it, counts and digests
// consume it in place, and compaction runs the same merge over
// whole-table scans.

// readSource is one input of the merge and its head cell.
type readSource struct {
	tbl     sstable.SliceCursor
	mem     memtable.Cursor
	isTable bool

	live      bool   // the head fields hold a cell
	mark      uint64 // == mergeCursor.gen: the head ties with this step's smallest CK
	ck, value []byte
	ver       row.Version
	tomb      bool
}

// advance loads the source's next cell into its head.
func (s *readSource) advance() error {
	if s.isTable {
		if s.live = s.tbl.Next(); !s.live {
			return s.tbl.Err()
		}
		s.ck, s.value, s.ver, s.tomb = s.tbl.Cell()
		return nil
	}
	if s.live = s.mem.Next(); s.live {
		s.ck, s.value, s.ver, s.tomb = s.mem.Cell()
	}
	return nil
}

// mergeCursor streams the merged cells of its sources in key order, one
// cell per key: the highest version wins and an exact version tie — the
// same write held by two sources — goes to the later, newer source;
// tombstones come through raw. It is the engine's one merge rule. A read
// merges one partition slice, keyed by clustering key; a compaction
// merges whole tables (mergeTables), whose scan cursors key each cell by
// its whole internal key. row.Merge is only its test reference. The
// cells are views (see sstable.SliceCursor and memtable.Cursor): valid
// until the next call to Next, read-only always. Cursors are pooled, so
// a warm read of a cached partition allocates nothing.
type mergeCursor struct {
	srcs []readSource // oldest → newest
	gen  uint64
	win  *readSource // source of the current cell
	err  error
}

var mergeCursors = sync.Pool{New: func() any { return new(mergeCursor) }}

// openMerge starts a merge of pk's cells with from <= CK < to (nil
// bounds mean unbounded) over the sources of view, which the caller
// keeps pinned until close.
func (e *Engine) openMerge(view *shardView, pk string, from, to []byte) (*mergeCursor, error) {
	mc, err := e.gatherSources(view, pk, from, to)
	if err != nil {
		return nil, err
	}
	if err := mc.start(); err != nil {
		mc.close()
		return nil, err
	}
	return mc, nil
}

// gatherSources returns a merge cursor over the sources of view that
// may hold cells of pk with from <= CK < to, positioned before any of
// them is read: a table its bloom filter or its directory rules out is
// no source, nor is a memtable its key filter rules out.
func (e *Engine) gatherSources(view *shardView, pk string, from, to []byte) (*mergeCursor, error) {
	mc := mergeCursors.Get().(*mergeCursor)
	// Sources oldest to newest — SSTables, then frozen memtables, then
	// the active memtable — so the tie-break on equal versions keeps the
	// newer source's copy, as Get does.
	for _, t := range view.tables {
		if !t.MayContain(pk) {
			e.Metrics.BloomSkips.Add(1)
			continue
		}
		e.Metrics.SSTablesTouched.Add(1)
		s := mc.add(true)
		if err := t.Slice(&s.tbl, pk, from, to); err == sstable.ErrNotFound {
			mc.srcs = mc.srcs[:len(mc.srcs)-1]
		} else if err != nil {
			mc.close()
			return nil, err
		}
	}
	// A memtable whose key filter rules the partition out is no source.
	for _, fm := range view.frozen {
		mc.addMem(fm.mem, pk, from, to)
	}
	mc.addMem(view.mem, pk, from, to)
	return mc, nil
}

// start loads every source's first cell.
func (mc *mergeCursor) start() error {
	for i := range mc.srcs {
		if err := mc.srcs[i].advance(); err != nil {
			return err
		}
	}
	return nil
}

// loneTable returns the only source when it is a table, nil otherwise.
// Such a table alone answers the partition: it holds one version per
// clustering key (its writer refuses duplicates), no other source has a
// cell for its tombstones to mask or to shadow its own, and reads apply
// no fence.
func (mc *mergeCursor) loneTable() *sstable.SliceCursor {
	if len(mc.srcs) == 1 && mc.srcs[0].isTable {
		return &mc.srcs[0].tbl
	}
	return nil
}

// add appends a source, reusing the buffers of one parked there by an
// earlier merge.
func (mc *mergeCursor) add(isTable bool) *readSource {
	if n := len(mc.srcs); n < cap(mc.srcs) {
		mc.srcs = mc.srcs[:n+1]
	} else {
		mc.srcs = append(mc.srcs, readSource{})
	}
	s := &mc.srcs[len(mc.srcs)-1]
	s.isTable, s.live, s.mark = isTable, false, 0
	return s
}

// addMem adds a memtable source unless its filter says it holds nothing
// of pk.
func (mc *mergeCursor) addMem(m *memtable.Memtable, pk string, from, to []byte) {
	if !m.Slice(&mc.add(false).mem, pk, from, to) {
		mc.srcs = mc.srcs[:len(mc.srcs)-1]
	}
}

// tableCells is an upper bound on the cells the table sources hold for
// the whole partition, for sizing a result.
func (mc *mergeCursor) tableCells() int {
	n := 0
	for i := range mc.srcs {
		if mc.srcs[i].isTable {
			n += mc.srcs[i].tbl.Cells()
		}
	}
	return n
}

// Next steps to the partition's next clustering key and reports whether
// there is one; false with Err set means a source failed.
func (mc *mergeCursor) Next() bool {
	if mc.err != nil {
		return false
	}
	// Sources whose head held the previous clustering key move on; the
	// winner's views were the caller's until now.
	if mc.win != nil {
		for i := range mc.srcs {
			if s := &mc.srcs[i]; s.live && s.mark == mc.gen {
				if mc.err = s.advance(); mc.err != nil {
					return false
				}
			}
		}
	}
	// The smallest head key wins the step, and among the sources holding
	// it the highest version, the latest source on an exact tie. gen
	// names the current candidate key: a strictly smaller key voids the
	// marks made for the previous candidate without revisiting them.
	mc.gen++
	mc.win = nil
	for i := range mc.srcs {
		s := &mc.srcs[i]
		if !s.live {
			continue
		}
		if mc.win != nil {
			c := bytes.Compare(s.ck, mc.win.ck)
			if c > 0 {
				continue
			}
			if c < 0 {
				mc.gen++
			} else if s.ver.Less(mc.win.ver) {
				s.mark = mc.gen
				continue
			}
		}
		s.mark = mc.gen
		mc.win = s
	}
	return mc.win != nil
}

// Cell returns the current cell; call it only after Next reported true.
func (mc *mergeCursor) Cell() (ck, value []byte, ver row.Version, tombstone bool) {
	return mc.win.ck, mc.win.value, mc.win.ver, mc.win.tomb
}

// Err returns the error that ended the walk, nil at the partition's end.
func (mc *mergeCursor) Err() error { return mc.err }

// close parks the cursor for reuse, dropping every reference to tables,
// blocks and memtables: a parked cursor keeps only its scratch buffers.
func (mc *mergeCursor) close() {
	for i := range mc.srcs {
		s := &mc.srcs[i]
		s.tbl.Release()
		s.mem.Release()
		s.ck, s.value = nil, nil
	}
	mc.srcs, mc.win, mc.err = mc.srcs[:0], nil, nil
	mergeCursors.Put(mc)
}

// visitPartition streams the merged cells of pk with from <= CK < to
// through fn, tombstones included; ck and value are valid only during
// the call. fn returning false ends the walk early.
func (e *Engine) visitPartition(view *shardView, pk string, from, to []byte, fn func(ck, value []byte, ver row.Version, tombstone bool) bool) error {
	mc, err := e.openMerge(view, pk, from, to)
	if err != nil {
		return err
	}
	defer mc.close()
	for mc.Next() {
		if !fn(mc.Cell()) {
			return nil
		}
	}
	return mc.Err()
}

// collectPartition returns owned copies of the merged cells of pk with
// from <= CK < to, with or without the tombstones among them.
func (e *Engine) collectPartition(pk string, from, to []byte, tombstones bool) ([]row.Cell, error) {
	view := e.shardFor(pk).snapshot()
	defer view.close()
	mc, err := e.openMerge(view, pk, from, to)
	if err != nil {
		return nil, err
	}
	defer mc.close()
	var out row.Collector
	if from == nil && to == nil {
		out.Grow(mc.tableCells())
	}
	for mc.Next() {
		if ck, value, ver, tomb := mc.Cell(); tombstones || !tomb {
			out.Append(ck, value, ver, tomb)
		}
	}
	if err := mc.Err(); err != nil {
		return nil, err
	}
	return out.Cells, nil
}
