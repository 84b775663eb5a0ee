// Package bloom implements the per-SSTable bloom filter the storage
// engine consults before touching a sorted run on the read path, exactly
// the role the paper ascribes to Cassandra's filters ("caches, indexes and
// bloom filters ... minimise the duration of most of the requests at the
// cost of introducing variance").
//
// The filter derives its k probe positions from a single 128-bit murmur
// hash using the standard Kirsch-Mitzenmacher double-hashing construction,
// so adding and testing a key costs one hash regardless of k.
package bloom

import (
	"encoding/binary"
	"errors"
	"math"

	"scalekv/internal/murmur"
)

// Filter is a classic m-bit, k-hash bloom filter. The zero value is not
// usable; construct with New or NewWithRate.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    uint32 // number of probes
	n    uint64 // keys added
}

// maxProbes caps k. Past it a filter gains nothing (the optimum for a
// one-in-a-billion false-positive rate is 30), and a serialized filter
// read off disk cannot make every lookup loop billions of times.
const maxProbes = 32

// New creates a filter with m bits (rounded up to a multiple of 64) and k
// probes. m is clamped to at least 64, k to [1, 32].
func New(m uint64, k uint32) *Filter {
	if m < 64 {
		m = 64
	}
	k = min(max(k, 1), maxProbes)
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: words * 64, k: k}
}

// NewWithRate sizes a filter for n expected keys at the target false
// positive rate p using the textbook optimum m = -n*ln(p)/ln(2)^2 and
// k = m/n*ln(2).
func NewWithRate(n int, p float64) *Filter {
	if n < 1 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	k := uint32(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return New(m, k)
}

// Add inserts key into the filter.
func (f *Filter) Add(key []byte) {
	h1, h2 := murmur.Sum128(key)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.n++
}

// AddString inserts a string key.
func (f *Filter) AddString(key string) { f.Add([]byte(key)) }

// MayContain reports whether key may have been added. False means the key
// was definitely never added.
func (f *Filter) MayContain(key []byte) bool {
	h1, h2 := murmur.Sum128(key)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// MayContainString tests a string key.
func (f *Filter) MayContainString(key string) bool { return f.MayContain([]byte(key)) }

// Count returns how many keys have been added.
func (f *Filter) Count() uint64 { return f.n }

// Bits returns the filter size in bits.
func (f *Filter) Bits() uint64 { return f.m }

// EstimatedFalsePositiveRate returns the analytic false-positive
// probability (1-e^{-kn/m})^k for the current fill.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	if f.n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(f.k)*float64(f.n)/float64(f.m)), float64(f.k))
}

// Marshal serializes the filter for embedding into an SSTable footer.
// Layout: m(8) k(4) n(8) words...
func (f *Filter) Marshal() []byte {
	out := make([]byte, 8+4+8+len(f.bits)*8)
	binary.LittleEndian.PutUint64(out[0:], f.m)
	binary.LittleEndian.PutUint32(out[8:], f.k)
	binary.LittleEndian.PutUint64(out[12:], f.n)
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(out[20+i*8:], w)
	}
	return out
}

// ErrCorrupt reports a malformed serialized filter.
var ErrCorrupt = errors.New("bloom: corrupt serialized filter")

// Unmarshal reconstructs a filter serialized by Marshal. It refuses
// what New cannot build — no bits, no probes, more than 32 probes — so a
// damaged filter is an error here rather than a division by zero or a
// four-billion-probe loop in MayContain.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 20 {
		return nil, ErrCorrupt
	}
	m := binary.LittleEndian.Uint64(data[0:])
	k := binary.LittleEndian.Uint32(data[8:])
	n := binary.LittleEndian.Uint64(data[12:])
	words := int(m / 64)
	if m == 0 || m%64 != 0 || k == 0 || k > maxProbes || len(data) != 20+words*8 {
		return nil, ErrCorrupt
	}
	f := &Filter{bits: make([]uint64, words), m: m, k: k, n: n}
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(data[20+i*8:])
	}
	return f, nil
}
