package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"scalekv/internal/enc"
	"scalekv/internal/row"
)

// walPutV2 is the one record op: every record carries the cell version
// and a flags byte (tombstones are just flagged puts). Ops 1 and 2 were
// the unversioned put/delete of earlier engines; replay treats them,
// like any unknown op, as a torn tail.
const walPutV2 = byte(3)

const walFlagTombstone = byte(1)

// wal is one write-ahead-log segment: length-prefixed, CRC-protected
// records. Each shard appends to an active segment; freezing the
// memtable seals the segment, and the background flusher deletes it
// once the SSTable is durable. On open every surviving segment is
// replayed, oldest first. A torn tail (partial last record after a
// crash) is tolerated and discarded, matching commit-log semantics.
type wal struct {
	f    *os.File
	path string
	buf  []byte
}

func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	return &wal{f: f, path: path}, nil
}

func (w *wal) append(pk string, ck, value []byte, ver row.Version, tombstone bool) error {
	w.buf = w.buf[:0]
	w.buf = appendRecordV2(w.buf, pk, ck, value, ver, tombstone)
	_, err := w.f.Write(w.buf)
	return err
}

// appendBatch writes one record per entry through a single buffered
// write — the group-commit half of Engine.PutBatch. Each record keeps
// its own header and CRC, so replay needs no batch framing and a torn
// tail still truncates at a record boundary. Entries must already be
// stamped with their versions.
func (w *wal) appendBatch(entries []row.Entry) error {
	w.buf = w.buf[:0]
	for _, e := range entries {
		w.buf = appendRecordV2(w.buf, e.PK, e.CK, e.Value, e.Ver, e.Tombstone)
	}
	_, err := w.f.Write(w.buf)
	return err
}

// appendRecordV2 encodes one framed record: length | crc | payload,
// where the payload is op | pk | ck | value | seq | node | flags.
func appendRecordV2(out []byte, pk string, ck, value []byte, ver row.Version, tombstone bool) []byte {
	start := len(out)
	out = append(out, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	out = append(out, walPutV2)
	out = enc.AppendBytes(out, []byte(pk))
	out = enc.AppendBytes(out, ck)
	out = enc.AppendBytes(out, value)
	out = enc.AppendUvarint(out, ver.Seq)
	out = enc.AppendUvarint(out, uint64(ver.Node))
	flags := byte(0)
	if tombstone {
		flags = walFlagTombstone
	}
	out = append(out, flags)
	payload := out[start+8:]
	binary.LittleEndian.PutUint32(out[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[start+4:], crc32.ChecksumIEEE(payload))
	return out
}

func (w *wal) sync() error  { return w.f.Sync() }
func (w *wal) close() error { return w.f.Close() }

// replayWAL streams every intact record to fn, stopping silently at a
// torn tail: a short header or payload, a CRC mismatch, a zero or
// implausible length (a crashed append leaves zero-filled or garbage
// bytes on many filesystems), an unknown op or a truncated field. No
// allocation exceeds the bytes left in the file.
func replayWAL(path string, fn func(rec row.Entry)) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	left := st.Size()
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return nil // clean EOF or torn header: done
		}
		left -= int64(len(hdr))
		ln := int64(binary.LittleEndian.Uint32(hdr[0:]))
		want := binary.LittleEndian.Uint32(hdr[4:])
		if ln == 0 || ln > left {
			return nil // zero-filled or torn tail
		}
		payload := make([]byte, ln)
		if _, err := io.ReadFull(f, payload); err != nil {
			return nil // torn payload
		}
		left -= ln
		if crc32.ChecksumIEEE(payload) != want || payload[0] != walPutV2 {
			return nil // corrupt tail record, or not a record this engine writes
		}
		p := payload[1:]
		pkb, u := enc.Bytes(p)
		if u == 0 {
			return nil
		}
		p = p[u:]
		ck, u2 := enc.Bytes(p)
		if u2 == 0 {
			return nil
		}
		p = p[u2:]
		val, u3 := enc.Bytes(p)
		if u3 == 0 {
			return nil
		}
		p = p[u3:]
		seq, n1 := enc.Uvarint(p)
		if n1 <= 0 {
			return nil
		}
		p = p[n1:]
		node, n2 := enc.Uvarint(p)
		if n2 <= 0 {
			return nil
		}
		p = p[n2:]
		if len(p) == 0 {
			return nil
		}
		fn(row.Entry{
			PK: string(pkb), CK: ck, Value: val,
			Ver:       row.Version{Seq: seq, Node: uint16(node)},
			Tombstone: p[0]&walFlagTombstone != 0,
		})
	}
}
