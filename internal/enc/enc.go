// Package enc provides order-preserving binary encodings and varint
// helpers shared by the memtable, SSTable format, and the D8tree's
// composite keys.
//
// The central type is the internal key: escape(partitionKey) 0x00 0x01
// clusteringKey. Zero bytes inside the partition key are escaped as
// 0x00 0xFF (the FoundationDB tuple scheme), so byte-wise comparison of
// internal keys sorts first by partition key and then by clustering key —
// the two-level ordering a wide-column store needs — and no partition's
// key range can interleave with another's.
package enc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
)

const (
	escByte  = 0x00
	escMark  = 0xFF // 0x00 inside a partition key encodes as 0x00 0xFF
	sepByte  = 0x00
	sepMark  = 0x01 // the pk/ck separator is 0x00 0x01
	sepAfter = 0x02 // bumping the separator yields the partition's end key
)

// EncodeInternalKey builds the byte-comparable composite of a partition
// key and a clustering key.
func EncodeInternalKey(pk string, ck []byte) []byte {
	return AppendInternalKey(make([]byte, 0, len(pk)+len(ck)+3), pk, ck)
}

// AppendInternalKey appends the EncodeInternalKey bytes to dst and
// returns the extended slice. The storage engine's point read passes a
// stack buffer, so building the search key costs no heap allocation —
// and the search itself then runs on plain byte comparisons, which the
// runtime vectorizes (a virtual per-byte comparator measured ~3x
// slower per skiplist probe).
func AppendInternalKey(dst []byte, pk string, ck []byte) []byte {
	dst = appendEscaped(dst, pk)
	dst = append(dst, sepByte, sepMark)
	return append(dst, ck...)
}

// PartitionPrefix returns the prefix shared by every internal key of the
// given partition. Seeking to it lands on the partition's first cell.
func PartitionPrefix(pk string) []byte {
	out := make([]byte, 0, len(pk)+2)
	out = appendEscaped(out, pk)
	return append(out, sepByte, sepMark)
}

// PartitionEnd returns the smallest key strictly greater than every
// internal key of the partition.
func PartitionEnd(pk string) []byte {
	return AppendPartitionEnd(make([]byte, 0, len(pk)+2), pk)
}

// AppendPartitionEnd appends the PartitionEnd bytes to dst — the bound
// of a whole-partition read built without a heap allocation, as
// AppendInternalKey(dst, pk, nil) builds its start.
func AppendPartitionEnd(dst []byte, pk string) []byte {
	dst = appendEscaped(dst, pk)
	return append(dst, sepByte, sepAfter)
}

// Bounds holds the two internal keys that bracket a partition slice,
// from <= CK < to, built in one buffer it reuses: a cursor that embeds a
// Bounds and is itself reused builds its search keys without
// allocating. The zero value is ready for Set.
type Bounds struct {
	buf    []byte // start key, then end key
	split  int    // len(start key)
	prefix int    // len(partition prefix), shared by both keys
}

// Set builds the bounds of the slice from <= CK < to of partition pk;
// a nil bound means that side of the partition is unbounded.
func (b *Bounds) Set(pk string, from, to []byte) {
	buf := AppendInternalKey(b.buf[:0], pk, from)
	b.split, b.prefix = len(buf), len(buf)-len(from)
	if to != nil {
		buf = AppendInternalKey(buf, pk, to)
	} else {
		buf = AppendPartitionEnd(buf, pk)
	}
	b.buf = buf
}

// Start returns the smallest internal key inside the slice.
func (b *Bounds) Start() []byte { return b.buf[:b.split] }

// End returns the smallest internal key past the slice.
func (b *Bounds) End() []byte { return b.buf[b.split:] }

// Prefix returns the partition prefix every key of the slice starts
// with; what follows it in such a key is the clustering key.
func (b *Bounds) Prefix() []byte { return b.buf[:b.prefix] }

// ErrMalformedKey reports an internal key that does not contain the
// partition separator.
var ErrMalformedKey = errors.New("enc: malformed internal key")

// DecodeInternalKey splits an internal key back into partition and
// clustering components.
func DecodeInternalKey(ik []byte) (pk string, ck []byte, err error) {
	for i := 0; i < len(ik)-1; i++ {
		if ik[i] != escByte {
			continue
		}
		switch ik[i+1] {
		case escMark:
			i++ // escaped zero inside the partition key
		case sepMark:
			return string(unescape(ik[:i])), ik[i+2:], nil
		default:
			return "", nil, ErrMalformedKey
		}
	}
	return "", nil, ErrMalformedKey
}

func appendEscaped(dst []byte, src string) []byte {
	for i := 0; i < len(src); i++ {
		if src[i] == escByte {
			dst = append(dst, escByte, escMark)
		} else {
			dst = append(dst, src[i])
		}
	}
	return dst
}

func unescape(src []byte) []byte {
	if !bytes.Contains(src, []byte{escByte, escMark}) {
		return src
	}
	out := make([]byte, 0, len(src))
	for i := 0; i < len(src); i++ {
		out = append(out, src[i])
		if src[i] == escByte && i+1 < len(src) && src[i+1] == escMark {
			i++
		}
	}
	return out
}

// AppendUint64Ordered appends x in big-endian so byte order equals
// numeric order.
func AppendUint64Ordered(dst []byte, x uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], x)
	return append(dst, b[:]...)
}

// Uint64Ordered decodes a value written by AppendUint64Ordered.
func Uint64Ordered(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// AppendInt64Ordered appends x with the sign bit flipped so negative
// values sort before positive ones.
func AppendInt64Ordered(dst []byte, x int64) []byte {
	return AppendUint64Ordered(dst, uint64(x)^(1<<63))
}

// Int64Ordered decodes a value written by AppendInt64Ordered.
func Int64Ordered(b []byte) int64 { return int64(Uint64Ordered(b) ^ (1 << 63)) }

// AppendFloat64Ordered appends x using the standard total-order trick:
// flip all bits of negative floats, flip only the sign bit of
// non-negative ones.
func AppendFloat64Ordered(dst []byte, x float64) []byte {
	bits := math.Float64bits(x)
	if bits>>63 == 1 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return AppendUint64Ordered(dst, bits)
}

// Float64Ordered decodes a value written by AppendFloat64Ordered.
func Float64Ordered(b []byte) float64 {
	bits := Uint64Ordered(b)
	if bits>>63 == 1 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits)
}

// AppendUvarint appends x in unsigned LEB128.
func AppendUvarint(dst []byte, x uint64) []byte {
	return binary.AppendUvarint(dst, x)
}

// Uvarint decodes a LEB128 value and returns it with the bytes consumed.
// n <= 0 signals corruption, as in encoding/binary.
func Uvarint(b []byte) (uint64, int) { return binary.Uvarint(b) }

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(dst, src []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(src)))
	return append(dst, src...)
}

// Bytes decodes a length-prefixed byte string, returning the payload and
// total bytes consumed, or n=0 on corruption.
func Bytes(b []byte) ([]byte, int) {
	ln, n := Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < ln {
		return nil, 0
	}
	return b[n : n+int(ln)], n + int(ln)
}
