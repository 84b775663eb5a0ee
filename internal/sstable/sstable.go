// Package sstable implements the immutable on-disk sorted runs of the
// storage engine, modelled on Cassandra's SSTable as the paper depends on
// it.
//
// There is one format, block-based:
//
//	"SKVT" | data blocks | block index | partition directory | bloom | footer
//
// Data blocks hold restart-point prefix-compressed cells keyed by the
// enc internal key (see block.go), each with its own CRC. The block
// index records every block's first key, offset and length; the
// partition directory records every partition key, its cell count and
// a histogram of its live cells by type (row.TypeOf: the first value
// byte), so the paper's count-by-type query is answered from the
// directory when one table holds the whole partition. Both sections
// are covered by a meta CRC and loaded lazily on first use — Open
// reads only the footer and the bloom filter, and a cold point read
// costs one meta ReadAt plus one data-block ReadAt instead of a
// whole-partition transfer. The footer carries the section offsets, the
// entry and partition counts, and the table's maximum version sequence,
// and ends in the terminator "SKV5". The bloom section is a
// bloom.Filter's words (see package bloom). Files ending in the
// terminators earlier engines wrote ("SKVT", "SKV2", "SKV3", "SKV4") are
// rejected with ErrUnsupportedFormat; docs/sstable-format.md has the
// migration note.
//
// The detail that matters for the paper's Formula 6 is the sparse
// intra-partition index — Cassandra's column_index_size_in_kb. Here the
// block index plays that role: a partition spanning several blocks can
// be sliced from the middle without scanning from its start, a smaller
// one cannot. That asymmetry is exactly the discontinuity at ~1425
// rows/64KB the paper measured in Figure 6 and folded into its
// piecewise database model. A negative ColumnIndexSize disables
// intra-partition seeking (the ablation knob): a partition is then
// never split across blocks.
//
// This file is the format's constants and the Writer; reader.go is the
// Reader and its cursor.
package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"scalekv/internal/bloom"
	"scalekv/internal/enc"
	"scalekv/internal/row"
)

var (
	magic       = []byte("SKVT") // file header
	footerMagic = []byte("SKV5") // footer terminator
)

// bloomBitsPerPartition is the filter's floor per expected partition.
// The word count rounds up to a power of two, so a table gets 12 to 24
// bits per partition: at most about 1.1 % false positives.
const bloomBitsPerPartition = 12

// footerSize: blockIdxOff, partDirOff, bloomOff, entryCount, partCount,
// maxSeq, metaCRC, bloomCRC, footerCRC, terminator.
const footerSize = 6*8 + 3*4 + 4

const flagTombstone = byte(1)

// ErrCorrupt reports a structurally invalid SSTable file.
var ErrCorrupt = errors.New("sstable: corrupt file")

// ErrUnsupportedFormat reports an intact table of a generation earlier
// engines wrote — the flat layouts (footer terminator "SKVT" or "SKV2"),
// the block-based layout without type histograms ("SKV3") or the one
// with the classic bloom filter ("SKV4") — which this package does not
// read.
var ErrUnsupportedFormat = errors.New(`sstable: table written by an older engine (flat v1/v2 or block-based v3/v4 layout); see "Migrating older data" in docs/sstable-format.md`)

// ErrNotFound reports a partition absent from the table.
var ErrNotFound = errors.New("sstable: partition not found")

// blockIndexEntry locates one data block.
type blockIndexEntry struct {
	firstKey []byte // internal key of the block's first cell
	offset   uint64
	length   uint64
}

// Writer builds an SSTable. Partitions must be added in ascending
// partition-key byte order with cells sorted by clustering key; the
// memtable flush path provides exactly that.
type Writer struct {
	f       *os.File
	w       *countingWriter
	filter  *bloom.Filter
	lastPK  string
	started bool
	maxSeq  uint64
	err     error

	blockSize   int
	noSplit     bool // negative ColumnIndexSize: never split a partition across blocks
	compression Compression
	lzTable     *[1 << lzTableBits]int32 // encoder scratch, shared across blocks
	block       blockBuilder
	blockFirst  []byte // internal key of the open block's first cell
	blocks      []blockIndexEntry
	dir         []byte // partition directory entries, encoded as added
	nParts      uint64
	hist        row.TypeCounts // the open partition's live cells by type
	entryCount  uint64
	keyBuf      []byte

	// logicalBytes/storedBytes accumulate every data block's uncompressed
	// payload size vs its on-disk size — the compression-ratio
	// observability the engine aggregates. Readable after Close.
	logicalBytes int64
	storedBytes  int64
}

// WriterOptions configures SSTable construction.
type WriterOptions struct {
	// ColumnIndexSize keeps the name of Cassandra's column-index knob,
	// but only its sign is read: negative disables intra-partition
	// seeking (the ablation knob of the Figure 6 experiment) — a
	// partition is then never split across blocks, so slices always
	// scan from its start. Zero and positive values behave alike;
	// BlockSize sets the actual seek granularity.
	ColumnIndexSize int
	// ExpectedPartitions sizes the bloom filter, at bloomBitsPerPartition
	// bits each; 0 means 1024.
	ExpectedPartitions int
	// BlockSize is the data-block target size in bytes; 0 means
	// DefaultBlockSize.
	BlockSize int
	// Compression selects the block codec. The zero value compresses
	// (DefaultCompression = LZ, with a per-block compressibility probe
	// that stores incompressible blocks raw); NoCompression is the
	// escape hatch.
	Compression Compression
}

// NewWriter creates an SSTable file at path, truncating any existing one.
func NewWriter(path string, opts WriterOptions) (*Writer, error) {
	if opts.ExpectedPartitions <= 0 {
		opts.ExpectedPartitions = 1024
	}
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("sstable: create: %w", err)
	}
	w := &Writer{
		f:           f,
		w:           &countingWriter{w: f},
		filter:      bloom.New(bloomBitsPerPartition * opts.ExpectedPartitions),
		blockSize:   opts.BlockSize,
		noSplit:     opts.ColumnIndexSize < 0,
		compression: opts.Compression,
	}
	if w.compression != NoCompression {
		w.lzTable = new([1 << lzTableBits]int32)
	}
	if _, err := w.w.Write(magic); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// AddPartition appends one partition. Cells must be sorted by clustering
// key and the partition key must be greater than any previously added.
// The cells stream into the open data block, which is cut at the target
// size, and the partition's directory entry records its cell count and
// its live cells by type. A partition that would straddle the current
// block's budget starts a fresh block instead, so small partitions stay
// whole inside one block (and report no intra-partition index); large
// ones span several blocks and can be sliced from the middle.
func (w *Writer) AddPartition(pk string, cells []row.Cell) error {
	if w.err != nil {
		return w.err
	}
	if w.started && pk <= w.lastPK {
		return fmt.Errorf("sstable: partition %q out of order (last %q)", pk, w.lastPK)
	}
	w.started, w.lastPK = true, pk
	est := 0
	for i := range cells {
		if i > 0 && bytes.Compare(cells[i-1].CK, cells[i].CK) >= 0 {
			w.err = fmt.Errorf("sstable: cells out of order in partition %q", pk)
			return w.err
		}
		est += len(cells[i].CK) + len(cells[i].Value) + 16
	}
	if !w.block.empty() && w.block.size()+est > w.blockSize {
		if err := w.cutBlock(); err != nil {
			return err
		}
	}
	for i := range cells {
		c := &cells[i]
		w.keyBuf = enc.AppendInternalKey(w.keyBuf[:0], pk, c.CK)
		if w.block.empty() {
			w.blockFirst = append(w.blockFirst[:0], w.keyBuf...)
		}
		w.block.add(w.keyBuf, c.Value, c.Ver, c.Tombstone)
		if !c.Tombstone {
			w.hist.Add(row.TypeOf(c.Value), 1)
		}
		if c.Ver.Seq > w.maxSeq {
			w.maxSeq = c.Ver.Seq
		}
		if !w.noSplit && w.block.size() >= w.blockSize {
			if err := w.cutBlock(); err != nil {
				return err
			}
		}
	}
	w.entryCount += uint64(len(cells))
	w.nParts++
	// pk | cells | nTypes | (type u8, count uvarint) × nTypes, types
	// ascending; docs/sstable-format.md has the layout.
	w.dir = append(enc.AppendUvarint(w.dir, uint64(len(pk))), pk...)
	w.dir = enc.AppendUvarint(w.dir, uint64(len(cells)))
	w.dir = enc.AppendUvarint(w.dir, uint64(w.hist.Types()))
	for ty, n := range w.hist.All() {
		w.dir = enc.AppendUvarint(append(w.dir, ty), n)
	}
	w.hist.Reset()
	w.filter.AddString(pk)
	return nil
}

// cutBlock finishes the open block, seals it into its stored form
// (compressing unless the probe says not to), writes it and records its
// index entry.
func (w *Writer) cutBlock() error {
	if w.block.empty() {
		return nil
	}
	payload := w.block.finishEntries()
	stored, _ := sealBlock(payload, w.compression, w.lzTable)
	offset := w.w.count
	if _, err := w.w.Write(stored); err != nil {
		w.err = err
		return err
	}
	w.logicalBytes += int64(len(payload))
	w.storedBytes += int64(len(stored))
	w.blocks = append(w.blocks, blockIndexEntry{
		firstKey: append([]byte(nil), w.blockFirst...),
		offset:   offset,
		length:   uint64(len(stored)),
	})
	w.block.reset()
	return nil
}

// Close writes the block index, partition directory, bloom filter and
// footer, then syncs and closes the file. The Writer is unusable
// afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	if err := w.cutBlock(); err != nil {
		w.f.Close()
		return err
	}
	blockIdxOff := w.w.count
	var idx []byte
	idx = enc.AppendUvarint(idx, uint64(len(w.blocks)))
	for _, b := range w.blocks {
		idx = enc.AppendBytes(idx, b.firstKey)
		idx = enc.AppendUvarint(idx, b.offset)
		idx = enc.AppendUvarint(idx, b.length)
	}
	// The directory's partition count goes at the end of the index
	// buffer, in front of the entries AddPartition encoded.
	partDirOff := w.w.count + uint64(len(idx))
	idx = enc.AppendUvarint(idx, w.nParts)
	if _, err := w.w.Write(idx); err != nil {
		w.f.Close()
		return err
	}
	if _, err := w.w.Write(w.dir); err != nil {
		w.f.Close()
		return err
	}
	bloomOff := w.w.count
	bf := w.filter.Marshal()
	if _, err := w.w.Write(bf); err != nil {
		w.f.Close()
		return err
	}
	metaCRC := crc32.ChecksumIEEE(idx)
	metaCRC = crc32.Update(metaCRC, crc32.IEEETable, w.dir)

	footer := make([]byte, footerSize)
	binary.LittleEndian.PutUint64(footer[0:], blockIdxOff)
	binary.LittleEndian.PutUint64(footer[8:], partDirOff)
	binary.LittleEndian.PutUint64(footer[16:], bloomOff)
	binary.LittleEndian.PutUint64(footer[24:], w.entryCount)
	binary.LittleEndian.PutUint64(footer[32:], w.nParts)
	binary.LittleEndian.PutUint64(footer[40:], w.maxSeq)
	binary.LittleEndian.PutUint32(footer[48:], metaCRC)
	binary.LittleEndian.PutUint32(footer[52:], crc32.ChecksumIEEE(bf))
	binary.LittleEndian.PutUint32(footer[56:], crc32.ChecksumIEEE(footer[:56]))
	copy(footer[60:], footerMagic)
	if _, err := w.w.Write(footer); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// BlockBytes reports the cumulative uncompressed payload size and
// on-disk stored size of every data block written — the per-table
// compression ratio. Meaningful after Close; the engine aggregates it
// into its compression metrics.
func (w *Writer) BlockBytes() (logical, stored int64) {
	return w.logicalBytes, w.storedBytes
}

type countingWriter struct {
	w     io.Writer
	count uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.count += uint64(n)
	return n, err
}
