package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"scalekv/internal/row"
)

// rng is splitmix64: a seedable generator small enough to own, so the
// op stream depends on nothing but the seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// mix folds values into one seed, so every (seed, client) and every
// (seed, pk, ck, version) gets its own stream.
func mix(vs ...uint64) uint64 {
	r := rng{}
	for _, v := range vs {
		r.s ^= v
		r.s = r.next()
	}
	return r.s
}

// Value layout: a 24-byte header, then a payload whose first half is
// random and second half zero, so blocks compress about 2x instead of
// trivially.
//
//	[0]     cell type — Count aggregates by it; fixed per address
//	[4:8]   partition index
//	[8:12]  cell index
//	[12:20] version
//	[20:24] CRC-32C of bytes [0:20] and the payload
const valueHeader = 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// keyspace names every cell of a workload and derives each value from
// (seed, pk, ck, version), so any value read back can be checked
// without remembering what was written.
type keyspace struct {
	seed      uint64
	pks       []string
	cks       [][]byte
	valueSize int
}

func newKeyspace(seed uint64, partitions, cells, valueSize int) *keyspace {
	ks := &keyspace{seed: seed, valueSize: valueSize}
	ks.pks = make([]string, partitions)
	for i := range ks.pks {
		ks.pks[i] = fmt.Sprintf("p%07d", i)
	}
	ks.cks = make([][]byte, cells)
	for i := range ks.cks {
		ks.cks[i] = binary.BigEndian.AppendUint32(nil, uint32(i))
	}
	return ks
}

// cellType is the first value byte: four types, fixed per address so a
// partition's count-by-type never changes under overwrites.
func cellType(pk, ck int) uint8 { return uint8((pk + ck) & 3) }

// value writes the cell's value at the given version into dst.
func (ks *keyspace) value(dst []byte, pk, ck int, version uint64) []byte {
	dst = append(dst[:0], make([]byte, ks.valueSize)...)
	dst[0] = cellType(pk, ck)
	binary.BigEndian.PutUint32(dst[4:], uint32(pk))
	binary.BigEndian.PutUint32(dst[8:], uint32(ck))
	binary.BigEndian.PutUint64(dst[12:], version)
	payload := dst[valueHeader:]
	r := rng{s: mix(ks.seed, uint64(pk), uint64(ck), version)}
	half := payload[:len(payload)/2]
	for len(half) >= 8 {
		binary.LittleEndian.PutUint64(half, r.next())
		half = half[8:]
	}
	for i := range half {
		half[i] = byte(r.next())
	}
	binary.BigEndian.PutUint32(dst[20:], valueSum(dst))
	return dst
}

func valueSum(v []byte) uint32 {
	return crc32.Update(crc32.Checksum(v[:20], castagnoli), castagnoli, v[valueHeader:])
}

// verify checks that v is a value this keyspace wrote for (pk, ck) at
// some version: right size, right address in the header, checksum
// intact.
func (ks *keyspace) verify(v []byte, pk, ck int) error {
	if len(v) != ks.valueSize {
		return fmt.Errorf("value of %d bytes, want %d", len(v), ks.valueSize)
	}
	if v[0] != cellType(pk, ck) ||
		binary.BigEndian.Uint32(v[4:]) != uint32(pk) ||
		binary.BigEndian.Uint32(v[8:]) != uint32(ck) {
		return fmt.Errorf("value header names another cell than (%d, %d)", pk, ck)
	}
	if binary.BigEndian.Uint32(v[20:]) != valueSum(v) {
		return fmt.Errorf("value checksum mismatch at (%d, %d)", pk, ck)
	}
	return nil
}

// verifyGet checks a point read of a preloaded cell: it must be found,
// since the workloads never delete.
func (ks *keyspace) verifyGet(v []byte, found bool, pk, ck int) error {
	if !found {
		return fmt.Errorf("preloaded cell (%d, %d) read not-found", pk, ck)
	}
	return ks.verify(v, pk, ck)
}

// verifyScan checks a full-partition scan: exactly the partition's
// cells, in clustering order, each value intact.
func (ks *keyspace) verifyScan(cells []row.Cell, pk int) error {
	if len(cells) != len(ks.cks) {
		return fmt.Errorf("scan of partition %d returned %d cells, want %d", pk, len(cells), len(ks.cks))
	}
	for i, cell := range cells {
		if !bytes.Equal(cell.CK, ks.cks[i]) {
			return fmt.Errorf("scan of partition %d: cell %d out of clustering order", pk, i)
		}
		if err := ks.verify(cell.Value, pk, i); err != nil {
			return err
		}
	}
	return nil
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	opCount
)

func (k opKind) String() string { return [...]string{"get", "put", "scan", "count"}[k] }

// op is one generated operation; version is set for puts only.
type op struct {
	kind    opKind
	pk, ck  int
	version uint64
}

// stream is one client's seeded op sequence: uniform keys, readPct of
// ops are the workload's read kind and the rest are puts. Versions are
// distinct across clients, so every value ever written is distinct.
type stream struct {
	r       rng
	ks      *keyspace
	read    opKind
	readPct int
	client  uint64
	puts    uint64
}

func newStream(ks *keyspace, read opKind, readPct int, client uint64) *stream {
	return &stream{r: rng{s: mix(ks.seed, 0x5eed, client)}, ks: ks, read: read, readPct: readPct, client: client}
}

func (s *stream) next() op {
	o := op{kind: s.read, pk: s.r.intn(len(s.ks.pks)), ck: s.r.intn(len(s.ks.cks))}
	if s.r.intn(100) >= s.readPct {
		s.puts++
		o.kind = opPut
		o.version = s.puts<<8 | s.client
	}
	return o
}
