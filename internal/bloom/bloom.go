// Package bloom implements the one bloom filter of the storage engine:
// every memtable holds one over the keys it stores, and every SSTable
// stores one over its partition keys, so a read of a key a source lacks
// skips it — the role the paper ascribes to Cassandra's filters
// ("caches, indexes and bloom filters ... minimise the duration of most
// of the requests at the cost of introducing variance").
//
// The filter is blocked: a key sets four bits in one 64-bit word, so a
// probe is one hash and one word load. The hash is murmur.Sum128 of the
// key. Its second word picks the filter word and the first word's top 24
// bits pick the four bits. The shard picker reduces the first word
// modulo the shard count, so within one shard's keys those low bits are
// fixed; a filter that took its word index from them would see every
// key of a shard land in the same fraction of its words.
//
// Words are atomic.Uint64, so a memtable's readers probe lock-free
// beside its single writer.
package bloom

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync/atomic"

	"scalekv/internal/murmur"
)

// Filter is a blocked bloom filter with a power-of-two number of 64-bit
// words. Add must be serialized against other Adds; MayContain is safe
// beside them. The single writer sets a key's bits before it publishes
// the key, so a reader that can see a key can see its bits.
type Filter struct {
	words []atomic.Uint64
	mask  uint64 // len(words)-1
}

// New returns an empty filter of at least nbits bits: the word count is
// rounded up to a power of two, and is at least one.
func New(nbits int) *Filter {
	words := 1
	for words*64 < nbits {
		words *= 2
	}
	return &Filter{words: make([]atomic.Uint64, words), mask: uint64(words - 1)}
}

// probe returns a key's word and the four bits it sets there.
func (f *Filter) probe(key []byte) (*atomic.Uint64, uint64) {
	h1, h2 := murmur.Sum128(key)
	set := uint64(1)<<(h1>>40&63) | uint64(1)<<(h1>>46&63) | uint64(1)<<(h1>>52&63) | uint64(1)<<(h1>>58)
	return &f.words[h2&f.mask], set
}

// Add inserts key. Writers are serialized, so a load and a store cannot
// lose another writer's bits, and they cost less than an atomic
// read-modify-write.
func (f *Filter) Add(key []byte) {
	w, set := f.probe(key)
	if old := w.Load(); old&set != set {
		w.Store(old | set)
	}
}

// AddString inserts a string key. The conversion does not copy: the
// compiler sees that the hash only reads it (TestFilterZeroAlloc).
func (f *Filter) AddString(key string) { f.Add([]byte(key)) }

// MayContain reports whether key may have been added. False means it
// was definitely never added.
func (f *Filter) MayContain(key []byte) bool {
	w, set := f.probe(key)
	return w.Load()&set == set
}

// MayContainString tests a string key, without copying it either.
func (f *Filter) MayContainString(key string) bool { return f.MayContain([]byte(key)) }

// Marshal serializes the filter: its words, little-endian, and nothing
// else — the length is the only header.
func (f *Filter) Marshal() []byte {
	out := make([]byte, 8*len(f.words))
	for i := range f.words {
		binary.LittleEndian.PutUint64(out[8*i:], f.words[i].Load())
	}
	return out
}

// ErrCorrupt reports a malformed serialized filter.
var ErrCorrupt = errors.New("bloom: corrupt serialized filter")

// Unmarshal reconstructs a filter serialized by Marshal. It refuses what
// New cannot build: no words, a partial word, or a word count that is
// not a power of two.
func Unmarshal(data []byte) (*Filter, error) {
	n := len(data) / 8
	if len(data) == 0 || len(data)%8 != 0 || bits.OnesCount(uint(n)) != 1 {
		return nil, ErrCorrupt
	}
	f := &Filter{words: make([]atomic.Uint64, n), mask: uint64(n - 1)}
	for i := range f.words {
		f.words[i].Store(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return f, nil
}
