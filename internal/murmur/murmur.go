// Package murmur implements MurmurHash3 x64 128-bit, the hash family used
// by Cassandra's Murmur3Partitioner to map partition keys onto the token
// ring. Only the 128-bit x64 variant is provided because it is the one the
// paper's workload placement depends on.
//
// The implementation is allocation-free for the common case and processes
// the input in 16-byte blocks exactly as the reference C++ code does, so
// token values are stable across runs and platforms.
package murmur

import "math/bits"

const (
	c1 = 0x87c37b91114253d5
	c2 = 0x4cf5ad432745937f
)

// Sum128 returns the 128-bit MurmurHash3 (x64 variant) of data with seed 0.
func Sum128(data []byte) (uint64, uint64) {
	return Sum128Seed(data, 0)
}

// Sum128Seed returns the 128-bit MurmurHash3 (x64 variant) of data using
// the given seed. Cassandra uses seed 0, and so does every caller here,
// the bloom filter included (through Sum128).
func Sum128Seed(data []byte, seed uint32) (uint64, uint64) {
	h1 := uint64(seed)
	h2 := uint64(seed)
	n := len(data)

	// Body: 16-byte blocks.
	nblocks := n / 16
	for i := 0; i < nblocks; i++ {
		b := data[i*16 : i*16+16]
		k1 := le64(b[0:8])
		k2 := le64(b[8:16])

		k1 *= c1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= c2
		h1 ^= k1

		h1 = bits.RotateLeft64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= c2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= c1
		h2 ^= k2

		h2 = bits.RotateLeft64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	// Tail: remaining 0..15 bytes.
	tail := data[nblocks*16:]
	var k1, k2 uint64
	switch len(tail) & 15 {
	case 15:
		k2 ^= uint64(tail[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(tail[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(tail[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(tail[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(tail[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(tail[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(tail[8])
		k2 *= c2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= c1
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(tail[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(tail[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(tail[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(tail[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(tail[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(tail[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(tail[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(tail[0])
		k1 *= c1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= c2
		h1 ^= k1
	}

	// Finalization.
	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

// Sum64 returns the first 64 bits of the 128-bit hash. Cassandra's
// Murmur3Partitioner token is this value interpreted as a signed int64.
func Sum64(data []byte) uint64 {
	h1, _ := Sum128(data)
	return h1
}

// StringSum64 hashes a string without forcing the caller to copy it into a
// byte slice at each call site.
func StringSum64(s string) uint64 {
	// The conversion allocates only if the compiler cannot prove the
	// slice does not escape; hashing does not retain it.
	return Sum64([]byte(s))
}

// Token maps data to a Cassandra-style token: the first 64 bits of the
// 128-bit hash as a signed integer, the value Murmur3Partitioner places on
// the ring.
func Token(data []byte) int64 {
	return int64(Sum64(data))
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
