package storage

import "scalekv/internal/row"

// This file is the engine half of the anti-entropy subsystem: a
// Merkle-style digest over a token range. Two replicas that hold the
// same logical cells — same (pk, ck, version, flags) tuples, wherever
// they physically sit (active memtable, frozen queue or any SSTable
// layout) — produce identical digests, so a repair pass can find the
// exact buckets where replicas diverge without shipping any data, and
// descend bucket by bucket until the difference is small enough to
// stream.
//
// The digest deliberately hashes versions, not values: a version names
// exactly one write, so two replicas agreeing on every version agree on
// every value, and hashing stays cheap on large cells. Tombstones are
// included — a replica that still holds a delete and one that never saw
// it MUST digest differently, or anti-entropy could never propagate the
// delete.

// DigestLeaf is one bucket of a range digest: an FNV-1a hash over the
// (pk, ck, version, flags) tuples of every partition whose token falls
// in the bucket, tombstones included, plus the tuple count. Partitions
// are folded in (token, pk) order and cells in clustering order, so the
// hash is deterministic for a given logical content.
type DigestLeaf struct {
	Hash  uint64
	Cells uint64
}

// MaxDigestDepth caps the per-request leaf fan-out at 2^10 buckets; a
// repair descends into mismatched buckets with follow-up requests
// instead of asking for one huge tree.
const MaxDigestDepth = 10

// digestGeom computes the bucket layout of a digest over [lo, hi] at
// the given depth: the bucket width and the bucket count. All token
// arithmetic is uint64 (two's complement offsets from lo), so the full
// int64 range — span 2^64-1 — needs no special casing. The count can be
// below 2^depth when rounding lets fewer buckets cover the span (or the
// span has fewer tokens than buckets); both sides of a digest exchange
// compute the same layout from (lo, hi, depth) alone.
func digestGeom(lo, hi int64, depth int) (size, count uint64) {
	if depth < 0 {
		depth = 0
	}
	if depth > MaxDigestDepth {
		depth = MaxDigestDepth
	}
	span := uint64(hi) - uint64(lo) // token count minus one
	nb := uint64(1) << uint(depth)
	if span < nb-1 {
		nb = span + 1 // more buckets than tokens: one token each
	}
	if nb == 1 {
		// Single bucket; the width span+1 would overflow uint64 on the
		// full token range, so it is pinned and indexing clamps instead.
		return ^uint64(0), 1
	}
	size = span/nb + 1
	return size, span/size + 1
}

// digestBucket maps a token of [lo, ...] onto its bucket index for the
// (size, count) layout of digestGeom.
func digestBucket(lo int64, size, count uint64, tok int64) uint64 {
	b := (uint64(tok) - uint64(lo)) / size
	if b >= count {
		b = count - 1
	}
	return b
}

// DigestRanges returns the inclusive token sub-ranges of the digest
// buckets over [lo, hi] at the given depth — DigestRanges(...)[i] is
// the range leaf i of Engine.RangeDigest(lo, hi, depth) covers. The
// repair pass uses it to turn a mismatched leaf index back into the
// range to descend into or stream.
func DigestRanges(lo, hi int64, depth int) [][2]int64 {
	size, count := digestGeom(lo, hi, depth)
	out := make([][2]int64, count)
	for b := uint64(0); b < count; b++ {
		blo := int64(uint64(lo) + b*size)
		bhi := hi
		if b < count-1 {
			bhi = int64(uint64(lo) + (b+1)*size - 1)
		}
		out[b] = [2]int64{blo, bhi}
	}
	return out
}

// FNV-1a 64-bit, folded incrementally so the digest never materializes
// a byte stream.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUvarint(h, v uint64) uint64 {
	for v >= 0x80 {
		h = fnvByte(h, byte(v)|0x80)
		v >>= 7
	}
	return fnvByte(h, byte(v))
}

// fnvBytes folds a length-prefixed byte field, so adjacent fields can
// never alias each other's bytes.
func fnvBytes(h uint64, b []byte) uint64 {
	h = fnvUvarint(h, uint64(len(b)))
	for _, c := range b {
		h = fnvByte(h, c)
	}
	return h
}

// RangeDigest computes the digest leaves of the inclusive token range
// [lo, hi] at the given depth (clamped to MaxDigestDepth): leaf i
// covers DigestRanges(lo, hi, depth)[i] and hashes the merged cells —
// tombstones included, exactly what a range stream would ship — of
// every partition bucketed there. Replicas holding the same logical
// content produce identical leaves regardless of shard count, flush
// state or SSTable layout; any differing cell version flips its leaf.
func (e *Engine) RangeDigest(lo, hi int64, depth int) ([]DigestLeaf, error) {
	size, count := digestGeom(lo, hi, depth)
	leaves := make([]DigestLeaf, count)
	for i := range leaves {
		leaves[i].Hash = fnvOffset64
	}
	parts, err := e.partitionsInRange(lo, hi)
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		leaf := &leaves[digestBucket(lo, size, count, p.token)]
		h, cells := fnvBytes(leaf.Hash, []byte(p.pk)), uint64(0)
		err := e.visitRaw(p.pk, func(ck, _ []byte, ver row.Version, tombstone bool) bool {
			h = fnvBytes(h, ck)
			h = fnvUvarint(h, ver.Seq)
			h = fnvUvarint(h, uint64(ver.Node))
			flags := byte(0)
			if tombstone {
				flags = 1
			}
			h = fnvByte(h, flags)
			cells++
			return true
		})
		if err != nil {
			return nil, err
		}
		if cells > 0 {
			leaf.Hash = h
			leaf.Cells += cells
		}
	}
	return leaves, nil
}
