package sstable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"

	"scalekv/internal/enc"
	"scalekv/internal/row"
)

// This file is the data-block codec: restart-point prefix-compressed
// cell entries with a per-block CRC, in the LevelDB/KevoDB tradition,
// optionally LZ-compressed on disk (see compress.go).
//
// Entries are keyed by the enc internal key (escaped partition key,
// separator, clustering key), so byte order within and across blocks is
// (pk, ck) order. Each entry stores only the suffix of its key that
// differs from the previous entry's; every restartInterval-th entry is a
// restart point carrying its full key, so decoding can always begin at
// the block start without external state.
//
// The entry payload is:
//
//	entry*  restart-offset[u32 LE]*  numRestarts[u32 LE]
//
// and its stored (on-disk) form is:
//
//	flag byte | payload-or-compressed-payload | crc32[u32 LE]
//
// where flag 0x01 means the payload is stored raw and 0x02 means it is
// LZ-compressed. The CRC covers everything before it — the flag and the
// stored (possibly compressed) bytes — so a damaged block is caught
// before any decompression is attempted. Any other first byte is
// ErrCorrupt.
//
// Entry layout:
//
//	shared uvarint | unshared uvarint | valueLen uvarint |
//	key suffix | value | seq uvarint | node uvarint | flags byte

const (
	// DefaultBlockSize is the target size of a data block: small
	// enough that a cold point read transfers little more than it needs,
	// large enough to amortize the per-block CRC and index entry.
	DefaultBlockSize = 4 << 10

	blockRestartInterval = 16

	// Stored-block flag byte values.
	blockFlagRaw = byte(0x01)
	blockFlagLZ  = byte(0x02)
)

// Compression selects the on-disk block codec of a table.
type Compression int

const (
	// DefaultCompression is LZ: blocks are compressed unless the
	// compressibility probe finds the saving too small to bother.
	DefaultCompression Compression = iota
	// NoCompression stores every block raw — the escape hatch for
	// workloads of incompressible values where the probe's work is pure
	// overhead.
	NoCompression
	// LZCompression names the default explicitly.
	LZCompression
)

// blockBuilder accumulates prefix-compressed entries for one data block.
type blockBuilder struct {
	buf      []byte
	restarts []uint32
	count    int
	prevKey  []byte
}

func (b *blockBuilder) empty() bool { return b.count == 0 }
func (b *blockBuilder) size() int   { return len(b.buf) }

func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.count = 0
	b.prevKey = b.prevKey[:0]
}

// add appends one cell. Keys must arrive in ascending byte order; the
// writer's partition/cell ordering checks guarantee it.
func (b *blockBuilder) add(ik, value []byte, ver row.Version, tomb bool) {
	shared := 0
	if b.count%blockRestartInterval == 0 {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
	} else {
		max := len(b.prevKey)
		if len(ik) < max {
			max = len(ik)
		}
		for shared < max && b.prevKey[shared] == ik[shared] {
			shared++
		}
	}
	b.buf = enc.AppendUvarint(b.buf, uint64(shared))
	b.buf = enc.AppendUvarint(b.buf, uint64(len(ik)-shared))
	b.buf = enc.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, ik[shared:]...)
	b.buf = append(b.buf, value...)
	b.buf = enc.AppendUvarint(b.buf, ver.Seq)
	b.buf = enc.AppendUvarint(b.buf, uint64(ver.Node))
	flags := byte(0)
	if tomb {
		flags = flagTombstone
	}
	b.buf = append(b.buf, flags)
	b.prevKey = append(b.prevKey[:0], ik...)
	b.count++
}

// finishEntries appends the restart array and count, returning the
// uncompressed entry payload (no flag, no CRC — sealBlock adds the
// stored framing). The builder must be reset before reuse.
func (b *blockBuilder) finishEntries() []byte {
	for _, r := range b.restarts {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, r)
	}
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

// sealBlock wraps an entry payload into its stored on-disk form: flag
// byte, raw or compressed payload, trailing CRC over both. Under
// (Default|LZ)Compression the payload is probed for compressibility —
// blocks too small to win, or whose compressed form saves less than
// 1/8th, are stored raw, so incompressible values cost one cheap
// compression pass and nothing on the read side. The table parameter is
// the encoder's reusable scratch. The returned slice is freshly
// allocated; compressed reports which flag was chosen.
func sealBlock(payload []byte, compression Compression, table *[1 << lzTableBits]int32) (stored []byte, compressed bool) {
	if compression != NoCompression && len(payload) >= lzMinInput {
		buf := make([]byte, 0, len(payload)+8)
		buf = append(buf, blockFlagLZ)
		buf = lzCompress(buf, payload, table)
		if len(buf)-1 < len(payload)-len(payload)/8 {
			buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
			return buf, true
		}
	}
	buf := make([]byte, 0, len(payload)+5)
	buf = append(buf, blockFlagRaw)
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, false
}

// decodeStoredBlock verifies a stored block's CRC and returns its entry
// payload, decompressing when the flag byte says to. The CRC covers the
// stored bytes — flag included — so corruption is caught before any
// decode is attempted. The returned payload aliases block for the raw
// layout and is freshly allocated for the compressed one.
func decodeStoredBlock(block []byte) ([]byte, error) {
	if len(block) < 5 {
		return nil, ErrCorrupt
	}
	crcOff := len(block) - 4
	if crc32.ChecksumIEEE(block[:crcOff]) != binary.LittleEndian.Uint32(block[crcOff:]) {
		return nil, ErrCorrupt
	}
	switch block[0] {
	case blockFlagRaw:
		return block[1:crcOff], nil
	case blockFlagLZ:
		n, err := lzDecodedLen(block[1:crcOff])
		if err != nil {
			return nil, err
		}
		payload := make([]byte, n)
		if err := lzDecompress(payload, block[1:crcOff]); err != nil {
			return nil, err
		}
		return payload, nil
	default:
		return nil, ErrCorrupt
	}
}

// blockCursor walks the entries of one decoded entry payload: the one
// entry parser behind every read of a block. The current entry is
// exposed as views — key is the cursor's own scratch buffer, rebuilt
// from the prefix-compressed suffixes and overwritten by the next step;
// value is a sub-slice of the payload, which the block cache shares
// between readers and nobody may write. A cursor is reusable: reset
// keeps the key buffer, so a pooled cursor decodes without allocating.
type blockCursor struct {
	data     []byte // the entries, restart array cut off
	restarts []byte // restart offsets, u32 LE each
	pos      int    // offset of the entry after the current one
	err      error  // ErrCorrupt once the walk met a structural violation

	key   []byte
	value []byte
	ver   row.Version
	tomb  bool
}

// reset points the cursor before the first entry of payload.
func (c *blockCursor) reset(payload []byte) error {
	c.data, c.restarts, c.value = nil, nil, nil
	c.pos, c.err, c.key = 0, nil, c.key[:0]
	if len(payload) < 4 {
		return ErrCorrupt
	}
	restartsOff := len(payload) - 4
	numRestarts := binary.LittleEndian.Uint32(payload[restartsOff:])
	if uint64(numRestarts)*4 > uint64(restartsOff) {
		return ErrCorrupt
	}
	c.data = payload[:restartsOff-int(numRestarts)*4]
	c.restarts = payload[len(c.data):restartsOff]
	return nil
}

// entryHeader parses the three length varints of the entry at pos and
// checks them against the data: on ok the key suffix is
// data[body:body+unshared] and the value the vlen bytes after it.
func (c *blockCursor) entryHeader(pos int) (shared, unshared, vlen uint64, body int, ok bool) {
	data := c.data
	shared, n1 := binary.Uvarint(data[pos:])
	if n1 <= 0 {
		return 0, 0, 0, 0, false
	}
	pos += n1
	unshared, n2 := binary.Uvarint(data[pos:])
	if n2 <= 0 {
		return 0, 0, 0, 0, false
	}
	pos += n2
	vlen, n3 := binary.Uvarint(data[pos:])
	if n3 <= 0 {
		return 0, 0, 0, 0, false
	}
	pos += n3
	if unshared > uint64(len(data)-pos) || vlen > uint64(len(data)-pos)-unshared {
		return 0, 0, 0, 0, false
	}
	return shared, unshared, vlen, pos, true
}

// next steps to the following entry and reports whether there is one;
// false with err set means the payload is damaged.
func (c *blockCursor) next() bool {
	data, pos := c.data, c.pos
	if pos >= len(data) || c.err != nil {
		return false
	}
	shared, unshared, vlen, pos, ok := c.entryHeader(pos)
	if !ok || shared > uint64(len(c.key)) {
		return c.corrupt()
	}
	c.key = append(c.key[:shared], data[pos:pos+int(unshared)]...)
	pos += int(unshared)
	c.value = data[pos : pos+int(vlen)]
	pos += int(vlen)
	seq, n4 := binary.Uvarint(data[pos:])
	if n4 <= 0 {
		return c.corrupt()
	}
	pos += n4
	node, n5 := binary.Uvarint(data[pos:])
	if n5 <= 0 || node > math.MaxUint16 {
		return c.corrupt()
	}
	pos += n5
	if pos >= len(data) {
		return c.corrupt()
	}
	c.ver = row.Version{Seq: seq, Node: uint16(node)}
	c.tomb = data[pos]&flagTombstone != 0
	c.pos = pos + 1
	return true
}

func (c *blockCursor) corrupt() bool {
	c.err = ErrCorrupt
	return false
}

// restartKey returns the offset and the full key of the i-th restart
// entry (a restart shares nothing with its predecessor, so its suffix
// is its key).
func (c *blockCursor) restartKey(i int) (off int, key []byte, ok bool) {
	off = int(binary.LittleEndian.Uint32(c.restarts[4*i:]))
	if off >= len(c.data) {
		return 0, nil, false
	}
	shared, unshared, _, body, ok := c.entryHeader(off)
	if !ok || shared != 0 {
		return 0, nil, false
	}
	return off, c.data[body : body+int(unshared)], true
}

// seek steps to the first entry whose key is >= target and reports
// whether there is one. It binary-searches the restart offsets for the
// last restart at or before target and decodes forward from there, at
// most blockRestartInterval-1 entries on a block the writer built.
// Restart offsets are input like any other byte: one that points past
// the data or at an entry that shares a prefix is ErrCorrupt, one that
// points mid-entry decodes whatever it finds there under next's checks.
func (c *blockCursor) seek(target []byte) bool {
	if c.err != nil {
		return false
	}
	lo, hi := 0, len(c.restarts)/4
	for lo < hi { // first restart whose key is > target
		mid := int(uint(lo+hi) >> 1)
		_, key, ok := c.restartKey(mid)
		if !ok {
			return c.corrupt()
		}
		if bytes.Compare(key, target) > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	c.pos, c.key = 0, c.key[:0]
	if lo > 0 {
		c.pos, _, _ = c.restartKey(lo - 1)
	}
	for c.next() {
		if bytes.Compare(c.key, target) >= 0 {
			return true
		}
	}
	return false
}
