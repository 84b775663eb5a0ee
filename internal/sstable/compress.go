package sstable

import "scalekv/internal/enc"

// This file is the block compression codec: a snappy-style
// byte-oriented LZ with greedy hash matching — pure Go, no cgo, no
// dependencies. It trades ratio for speed the same way Snappy/LZ4 do:
// literal runs and back-references only, varint lengths, no entropy
// stage, so decompression is a straight byte copy loop and compression
// is one pass over the input with a small position table.
//
// Stream layout:
//
//	decodedLen uvarint | op*
//
// Each op starts with a tag byte t:
//
//	t&1 == 0: literal run of (t>>1)+1 bytes (1..128) follows verbatim.
//	t&1 == 1: copy of (t>>1)+minMatch bytes (4..131) from `distance`
//	          bytes back in the output, distance as a uvarint > 0.
//	          Distances may be shorter than the length (overlapping
//	          copy, the classic RLE trick), so decoding copies bytewise.
//
// Longer literals and matches simply emit several ops. The format is
// self-terminating: decoding stops exactly at decodedLen, and any
// structural violation — truncated op, zero or too-large distance, more
// output than promised — is ErrCorrupt, never a panic or overrun. Worst
// case (incompressible input) expansion is 1 byte per 128, which the
// writer's compressibility probe turns into a raw-stored block anyway.

const (
	// lzMinMatch is the shortest back-reference worth an op: a copy tag
	// plus a 1-2 byte distance must beat the literal bytes it replaces.
	lzMinMatch = 4
	// lzMaxLiteral / lzMaxCopy are the per-op length caps of the tag byte.
	lzMaxLiteral = 128
	lzMaxCopy    = (0xFF >> 1) + lzMinMatch
	// lzTableBits sizes the encoder's position table: 4096 entries covers
	// a multiple of the 4KB default block with few collisions and stays
	// resident in L1.
	lzTableBits = 12
	// lzMinInput skips compression for blocks too small to win: the
	// varint header and probe overhead exceed any plausible saving.
	lzMinInput = 64
)

// lzHash maps 4 bytes to a position-table slot (Knuth multiplicative).
func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzTableBits)
}

func lzLoad32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

// lzCompress appends the compressed form of src to dst and returns it.
// The table parameter is the caller's scratch position table, reset
// here, so a Writer compressing many blocks allocates it once.
func lzCompress(dst, src []byte, table *[1 << lzTableBits]int32) []byte {
	dst = enc.AppendUvarint(dst, uint64(len(src)))
	for i := range table {
		table[i] = -1
	}
	emitLiterals := func(lit []byte) {
		for len(lit) > 0 {
			n := len(lit)
			if n > lzMaxLiteral {
				n = lzMaxLiteral
			}
			dst = append(dst, byte(n-1)<<1)
			dst = append(dst, lit[:n]...)
			lit = lit[n:]
		}
	}
	litStart := 0
	pos := 0
	for pos+lzMinMatch <= len(src) {
		h := lzHash(lzLoad32(src, pos))
		cand := table[h]
		table[h] = int32(pos)
		if cand < 0 || lzLoad32(src, int(cand)) != lzLoad32(src, pos) {
			pos++
			continue
		}
		// Extend the match forward.
		mlen := lzMinMatch
		for pos+mlen < len(src) && src[int(cand)+mlen] == src[pos+mlen] {
			mlen++
		}
		emitLiterals(src[litStart:pos])
		dist := uint64(pos - int(cand))
		for mlen >= lzMinMatch {
			n := mlen
			if n > lzMaxCopy {
				n = lzMaxCopy
			}
			if mlen-n != 0 && mlen-n < lzMinMatch {
				// Don't leave a sub-minMatch tail that no copy op can
				// express; shorten this op so the remainder fits one more.
				n = mlen - lzMinMatch
			}
			dst = append(dst, byte(n-lzMinMatch)<<1|1)
			dst = enc.AppendUvarint(dst, dist)
			pos += n
			mlen -= n
		}
		// Any sub-minMatch tail stays unconsumed: the scan resumes at pos
		// and the tail lands in the next literal run.
		litStart = pos
	}
	emitLiterals(src[litStart:])
	return dst
}

// lzDecodedLen returns the decoded length a compressed stream promises,
// without decoding it.
func lzDecodedLen(src []byte) (int, error) {
	n, u := enc.Uvarint(src)
	if u <= 0 || n > maxDecodedBlock {
		return 0, ErrCorrupt
	}
	return int(n), nil
}

// maxDecodedBlock caps the decoded size a block may claim, so a corrupt
// header cannot demand an absurd allocation. Blocks target ~4KB; a 64MB
// bound leaves orders of magnitude of headroom for any configured
// BlockSize while keeping a hostile header harmless.
const maxDecodedBlock = 64 << 20

// lzDecompress decodes a compressed stream produced by lzCompress into
// dst (which must be exactly the promised decoded length) and returns
// an error if the stream is structurally invalid. It never panics and
// never writes outside dst.
func lzDecompress(dst, src []byte) error {
	n, u := enc.Uvarint(src)
	if u <= 0 || int(n) != len(dst) {
		return ErrCorrupt
	}
	src = src[u:]
	out := 0
	for len(src) > 0 {
		t := src[0]
		src = src[1:]
		if t&1 == 0 {
			n := int(t>>1) + 1
			if n > len(src) || out+n > len(dst) {
				return ErrCorrupt
			}
			copy(dst[out:], src[:n])
			src = src[n:]
			out += n
			continue
		}
		n := int(t>>1) + lzMinMatch
		dist, u := enc.Uvarint(src)
		if u <= 0 || dist == 0 || dist > uint64(out) || out+n > len(dst) {
			return ErrCorrupt
		}
		src = src[u:]
		// Bytewise: distances shorter than the length overlap on purpose.
		from := out - int(dist)
		for i := 0; i < n; i++ {
			dst[out+i] = dst[from+i]
		}
		out += n
	}
	if out != len(dst) {
		return ErrCorrupt
	}
	return nil
}
