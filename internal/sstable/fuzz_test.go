package sstable

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"scalekv/internal/enc"
	"scalekv/internal/row"
)

// FuzzBlockCodec pins two properties of the v3 block codec,
// compression included (FuzzLZDecompress drives the LZ decoder alone):
//
//  1. decodeBlock never panics on arbitrary input bytes — every
//     structural violation yields ErrCorrupt (or a clean stop). The
//     input exercises the whole stored-block surface: CRC check, flag
//     dispatch, LZ decompression, entry walk.
//  2. A block built from entries derived from the fuzz input round-trips
//     exactly, through both the compressed and the raw stored form.
func FuzzBlockCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	// Small valid stored blocks as seeds so coverage reaches the happy
	// paths: one raw, one LZ-compressed (repetitive values compress).
	var seed blockBuilder
	seed.add(enc.EncodeInternalKey("p", []byte("a")), []byte("v"), row.Version{Seq: 1, Node: 2}, false)
	seed.add(enc.EncodeInternalKey("p", []byte("b")), nil, row.Version{Seq: 3, Node: 4}, true)
	rawSeed, _ := sealBlock(seed.finishEntries(), NoCompression, nil)
	f.Add(append([]byte(nil), rawSeed...))
	var zseed blockBuilder
	for i := 0; i < 32; i++ {
		zseed.add(enc.EncodeInternalKey("p", []byte(fmt.Sprintf("k%04d", i))),
			bytes.Repeat([]byte("abcd"), 16), row.Version{Seq: uint64(i)}, false)
	}
	lzSeed, compressed := sealBlock(zseed.finishEntries(), DefaultCompression, new([1 << lzTableBits]int32))
	if !compressed {
		f.Fatal("repetitive seed block did not compress")
	}
	f.Add(append([]byte(nil), lzSeed...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: arbitrary bytes must not panic.
		_ = decodeBlock(data, func(ik, value []byte, ver row.Version, tomb bool) bool {
			return true
		})

		// Property 2: round-trip entries derived from the input.
		type entry struct {
			ik, value []byte
			ver       row.Version
			tomb      bool
		}
		byteAt := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		n := int(byteAt(0))%40 + 1
		var b blockBuilder
		var want []entry
		for i := 0; i < n; i++ {
			// Ascending keys: the index prefix guarantees order, the
			// data-derived suffix varies shared-prefix lengths.
			sufLen := int(byteAt(i+1)) % 8
			suf := make([]byte, sufLen)
			for j := range suf {
				suf[j] = byteAt(i + j + 2)
			}
			ik := enc.EncodeInternalKey("part", []byte(fmt.Sprintf("k%04d-%x", i, suf)))
			vLen := int(byteAt(i+3)) % 16
			value := make([]byte, vLen)
			for j := range value {
				value[j] = byteAt(i*7 + j)
			}
			ver := row.Version{
				Seq:  uint64(byteAt(i+4))<<8 | uint64(byteAt(i+5)),
				Node: uint16(byteAt(i + 6)),
			}
			tomb := byteAt(i+7)%2 == 1
			b.add(ik, value, ver, tomb)
			want = append(want, entry{ik, value, ver, tomb})
		}
		payload := b.finishEntries()
		lzTable := new([1 << lzTableBits]int32)
		for _, mode := range []Compression{DefaultCompression, NoCompression} {
			stored, _ := sealBlock(payload, mode, lzTable)
			var got []entry
			err := decodeBlock(stored, func(ik, value []byte, ver row.Version, tomb bool) bool {
				got = append(got, entry{
					ik:    append([]byte(nil), ik...),
					value: append([]byte(nil), value...),
					ver:   ver,
					tomb:  tomb,
				})
				return true
			})
			if err != nil {
				t.Fatalf("decode of freshly built block (mode %d): %v", mode, err)
			}
			if len(got) != len(want) {
				t.Fatalf("round trip (mode %d): %d entries in, %d out", mode, len(want), len(got))
			}
			for i := range want {
				if !bytes.Equal(got[i].ik, want[i].ik) || !bytes.Equal(got[i].value, want[i].value) ||
					got[i].ver != want[i].ver || got[i].tomb != want[i].tomb {
					t.Fatalf("round trip (mode %d): entry %d mismatch: %+v vs %+v", mode, i, got[i], want[i])
				}
			}
		}
	})
}

// FuzzLZDecompress drives the LZ decoder on its own. In a table it sits
// behind a block's flag byte and CRC, so most FuzzBlockCodec mutations
// stop at the checksum; here every input is a stream:
//
//  1. decoded into a buffer of the length its header claims, it decodes
//     or fails with ErrCorrupt, never panics and never writes past dst;
//  2. decoded into a buffer one byte longer, it fails with ErrCorrupt;
//  3. compressed as plain bytes, it decompresses back to itself.
func FuzzLZDecompress(f *testing.F) {
	table := new([1 << lzTableBits]int32)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{8, 6, 'a', 'b', 'c', 'd', 1, 2})                    // a literal run, then an overlapping copy
	f.Add([]byte{8, 0x03, 1})                                        // a copy before any output
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}) // a header past maxDecodedBlock
	f.Add(lzCompress(nil, bytes.Repeat([]byte("abcd"), 80), table))
	f.Add(lzCompress(nil, []byte(strings.Repeat("partition-0042/ck-", 12)), table))
	const guard = 16
	f.Fuzz(func(t *testing.T, data []byte) {
		if n, err := lzDecodedLen(data); err == nil && n <= 1<<16 {
			buf := make([]byte, n+1+guard)
			for i := range buf {
				buf[i] = 0xa5
			}
			if err := lzDecompress(buf[:n], data); err != nil && err != ErrCorrupt {
				t.Fatalf("decode failed with %v, not ErrCorrupt", err)
			}
			for i := n; i < len(buf); i++ {
				if buf[i] != 0xa5 {
					t.Fatalf("decode of a %d-byte stream wrote byte %d past dst", n, i-n)
				}
			}
			if err := lzDecompress(buf[:n+1], data); err != ErrCorrupt {
				t.Fatalf("decode into a buffer longer than the header claims returned %v", err)
			}
		}

		z := lzCompress(nil, data, table)
		if n, err := lzDecodedLen(z); err != nil || n != len(data) {
			t.Fatalf("compressed header claims %d bytes (err %v), input has %d", n, err, len(data))
		}
		out := make([]byte, len(data))
		if err := lzDecompress(out, z); err != nil || !bytes.Equal(out, data) {
			t.Fatalf("compress → decompress: err %v, round trip equal %v", err, bytes.Equal(out, data))
		}
	})
}

// FuzzBlockSeek pins two properties of the block cursor's restart-point
// seek, the decoder every read of a table goes through:
//
//  1. On arbitrary payload bytes and an arbitrary target, reset / seek /
//     next never panic and never read out of bounds: a corrupt restart
//     offset, a restart count larger than the payload, an offset that
//     points mid-entry, a restart entry that claims a shared prefix — all
//     end in ErrCorrupt or a clean stop.
//  2. On a payload the block writer built from entries derived from the
//     input, seek-then-iterate equals filter-over-linear-decode, for
//     targets on, between and beyond the keys.
func FuzzBlockSeek(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0, 0}, []byte("k"))
	f.Add([]byte{0, 1, 0, 'k', 1, 0, 0, 0xff, 0xff, 0xff, 0xff}, []byte("k")) // restart count > payload
	var seed blockBuilder
	for i := 0; i < 40; i++ {
		seed.add(enc.EncodeInternalKey("p", []byte(fmt.Sprintf("k%04d", i))), []byte("value"), row.Version{Seq: uint64(i)}, i%7 == 0)
	}
	valid := append([]byte(nil), seed.finishEntries()...)
	f.Add(valid, enc.EncodeInternalKey("p", []byte("k0021")))
	midEntry := append([]byte(nil), valid...)
	midEntry[len(midEntry)-8] = 3 // last restart offset now points inside the first entry
	f.Add(midEntry, enc.EncodeInternalKey("p", []byte("k0039")))

	f.Fuzz(func(t *testing.T, data, target []byte) {
		// Property 1: arbitrary bytes must not panic.
		var c blockCursor
		if c.reset(data) == nil {
			for ok, steps := c.seek(target), 0; ok && steps < 64; ok, steps = c.next(), steps+1 {
				_, _, _ = c.key, c.value, c.ver
			}
			// A second seek on the same cursor starts from whatever state
			// the first one left.
			c.seek(data)
		}

		// Property 2: seek agrees with a linear decode on built blocks.
		byteAt := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		n := int(byteAt(0))%50 + 1
		var b blockBuilder
		key := func(i int, suf byte) []byte {
			return enc.EncodeInternalKey("part", []byte(fmt.Sprintf("k%04d-%02x", i, suf)))
		}
		for i := 0; i < n; i++ {
			value := bytes.Repeat([]byte{byteAt(i + 1)}, int(byteAt(i+2))%12)
			b.add(key(i, byteAt(i+3)), value, row.Version{Seq: uint64(byteAt(i + 4)), Node: uint16(byteAt(i + 5))}, byteAt(i+6)%2 == 1)
		}
		payload := b.finishEntries()
		all := linearDecode(t, payload)
		checkSeek(t, payload, all, target)
		checkSeek(t, payload, all, enc.EncodeInternalKey("part", target))
		for _, i := range []int{0, int(byteAt(7)) % n, n - 1, n} {
			checkSeek(t, payload, all, key(i, byteAt(i+3)))   // on a key (or past the last)
			checkSeek(t, payload, all, key(i, byteAt(i+3)+1)) // in the gap after it
		}
	})
}
