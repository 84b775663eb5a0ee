// Package row defines the cell and partition types shared by the
// memtable, SSTable, storage engine and cluster read/write paths.
//
// The data model is Cassandra's wide-column layout as the paper describes
// it: "a partitioned distributed HashMap where each entry contains another
// SortedMap". A Partition is one entry of the outer hash map (placed on a
// node by its key's murmur token); its Cells are the inner sorted map,
// ordered by clustering key.
//
// Every cell carries a Version — a (Seq, Node) hybrid counter stamped by
// the storage engine that accepted the write — and a Tombstone flag.
// Wherever two copies of a cell meet (a memtable overwrite, a read
// merging memtables with SSTables, a compaction, a replica receiving
// both a streamed copy and a forwarded write during a rebalance), the
// higher version wins deterministically: last-write-wins is decided by
// the version, never by arrival order.
package row

import "bytes"

// Version orders writes to the same (partition key, clustering key)
// address. Seq is a per-engine monotonic counter advanced by every
// accepted write and pulled forward by any higher incoming version
// (hybrid-logical-clock style), Node breaks ties between engines. The
// zero Version means "not stamped yet": an entry handed to an engine
// with it is a fresh write the engine stamps, and no stored cell
// carries it.
type Version struct {
	Seq  uint64
	Node uint16
}

// Compare returns -1, 0 or +1 as v orders before, equal to or after o.
func (v Version) Compare(o Version) int {
	if v.Seq != o.Seq {
		if v.Seq < o.Seq {
			return -1
		}
		return 1
	}
	if v.Node != o.Node {
		if v.Node < o.Node {
			return -1
		}
		return 1
	}
	return 0
}

// Less reports whether v orders strictly before o.
func (v Version) Less(o Version) bool { return v.Compare(o) < 0 }

// IsZero reports whether v is the zero (unstamped) version.
func (v Version) IsZero() bool { return v.Seq == 0 && v.Node == 0 }

// Cell is one clustering-key/value pair inside a partition, stamped
// with the version of the write that produced it. A tombstone cell
// records a delete: it masks every older version of the address and
// carries no value.
type Cell struct {
	CK        []byte
	Value     []byte
	Ver       Version
	Tombstone bool
}

// Size returns the payload size of the cell in bytes.
func (c Cell) Size() int { return len(c.CK) + len(c.Value) }

// Entry is one write addressed to a partition: a cell plus the partition
// key it lands on. It is the unit of the batched write path — the wire
// batch messages, the engine's group commit and the client batcher all
// move slices of entries. A zero Ver means "not yet stamped": the
// accepting engine assigns one. A non-zero Ver is preserved — that is
// how forwarded and streamed copies keep the version of the original
// write, so every replica's merge picks the same winner.
type Entry struct {
	PK        string
	CK        []byte
	Value     []byte
	Ver       Version
	Tombstone bool
}

// Size returns the payload size of the entry in bytes, partition key
// included.
func (e Entry) Size() int { return len(e.PK) + len(e.CK) + len(e.Value) }

// Partition is a partition key together with its cells sorted by
// clustering key.
type Partition struct {
	Key   string
	Cells []Cell
}

// Size returns the total payload size of the partition in bytes.
func (p *Partition) Size() int {
	s := len(p.Key)
	for _, c := range p.Cells {
		s += c.Size()
	}
	return s
}

// Find returns the index of the cell with the given clustering key, or
// -1. The cells must be sorted by clustering key.
func (p *Partition) Find(ck []byte) int {
	lo, hi := 0, len(p.Cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(p.Cells[mid].CK, ck) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.Cells) && bytes.Equal(p.Cells[lo].CK, ck) {
		return lo
	}
	return -1
}

// SliceRange returns the sub-slice of cells with from <= CK < to.
// A nil `to` means "until the end"; a nil `from` means "from the start".
func (p *Partition) SliceRange(from, to []byte) []Cell {
	lo := 0
	if from != nil {
		lo = lowerBound(p.Cells, from)
	}
	hi := len(p.Cells)
	if to != nil {
		hi = lowerBound(p.Cells, to)
	}
	if lo > hi {
		return nil
	}
	return p.Cells[lo:hi]
}

func lowerBound(cells []Cell, ck []byte) int {
	lo, hi := 0, len(cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(cells[mid].CK, ck) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Merge combines cells from multiple sorted sources into one sorted run,
// resolving clustering-key collisions by version: the highest version
// wins, and on an exact version tie — the same write held by two
// sources — the later source wins (sources are passed oldest to newest,
// SSTables before memtables). Tombstones take part in the merge like
// any other cell and appear in the output. The engine merges through
// its streaming cursor (storage's mergeCursor) for reads and compaction
// alike; Merge is the reference a property test holds that cursor to.
func Merge(sources ...[]Cell) []Cell {
	switch len(sources) {
	case 0:
		return nil
	case 1:
		return sources[0]
	}
	total := 0
	for _, s := range sources {
		total += len(s)
	}
	out := make([]Cell, 0, total)
	idx := make([]int, len(sources))
	for {
		// Find the smallest head key across all sources.
		var minKey []byte
		found := false
		for si := range sources {
			if idx[si] >= len(sources[si]) {
				continue
			}
			k := sources[si][idx[si]].CK
			if !found || bytes.Compare(k, minKey) < 0 {
				minKey, found = k, true
			}
		}
		if !found {
			return out
		}
		// The highest version holding minKey wins; every source holding
		// it advances so shadowed duplicates are dropped. >= with
		// ascending si: an exact version tie goes to the newest source.
		var winner Cell
		first := true
		for si := range sources {
			if idx[si] < len(sources[si]) && bytes.Equal(sources[si][idx[si]].CK, minKey) {
				c := sources[si][idx[si]]
				if first || c.Ver.Compare(winner.Ver) >= 0 {
					winner, first = c, false
				}
				idx[si]++
			}
		}
		out = append(out, winner)
	}
}

// DropTombstones filters deleted cells out of a merged run, as a read
// serves it; with Merge, the reference the engine's cursor is tested
// against. It returns the input slice unchanged when no tombstone is
// present.
func DropTombstones(cells []Cell) []Cell {
	i := 0
	for i < len(cells) && !cells[i].Tombstone {
		i++
	}
	if i == len(cells) {
		return cells
	}
	out := make([]Cell, i, len(cells)-1)
	copy(out, cells[:i])
	for _, c := range cells[i+1:] {
		if !c.Tombstone {
			out = append(out, c)
		}
	}
	return out
}

// Collector turns a stream of cell views — clustering keys and values
// that are only valid during the call that hands them over, as the
// storage cursors yield them — into a slice of cells the caller owns.
// The key and value bytes are carved from shared arena chunks sized from
// the expected cell count, so collecting a partition costs a handful of
// allocations instead of two per cell. The zero value is ready to use.
type Collector struct {
	Cells []Cell
	arena []byte
	hint  int
}

// Grow announces that about n more cells are coming; the cell slice and
// the arena are sized from it at the next Append.
func (c *Collector) Grow(n int) { c.hint = len(c.Cells) + n }

// Append adds a copy of one cell. Empty keys and values are stored as
// nil, as a fresh copy of nothing would be.
func (c *Collector) Append(ck, value []byte, ver Version, tombstone bool) {
	left := c.hint - len(c.Cells)
	if c.Cells == nil && left > 0 {
		c.Cells = make([]Cell, 0, left)
	}
	need := len(ck) + len(value)
	if need > cap(c.arena)-len(c.arena) {
		// Assume the cells still expected look like this one; past the
		// hint, assume as many again as already seen. A wrong guess costs
		// one more chunk, never a copy of what is already carved.
		if left < 1 {
			left = len(c.Cells) + 1
		}
		c.arena = make([]byte, 0, max(need, min(need*left, maxArenaChunk)))
	}
	cell := Cell{Ver: ver, Tombstone: tombstone}
	cell.CK, c.arena = carve(c.arena, ck)
	cell.Value, c.arena = carve(c.arena, value)
	c.Cells = append(c.Cells, cell)
}

// Reset empties the collector for the next run of cells, keeping the
// cell slice and the last arena chunk: the next Appends overwrite the
// cells it held, so the caller must be done with them.
func (c *Collector) Reset() {
	c.Cells, c.arena, c.hint = c.Cells[:0], c.arena[:0], 0
}

// maxArenaChunk bounds what one arena chunk commits on the strength of a
// guess: a partition larger than this is collected in several chunks.
const maxArenaChunk = 1 << 20

// carve copies b to the end of arena and returns the copy, capped so
// appending to it cannot reach the next carving.
func carve(arena, b []byte) (owned, rest []byte) {
	if len(b) == 0 {
		return nil, arena
	}
	n := len(arena)
	arena = append(arena, b...)
	return arena[n:len(arena):len(arena)], arena
}
