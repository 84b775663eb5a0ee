package row

import (
	"iter"
	"math/bits"
)

// TypeOf returns a cell's type: the first byte of its value, 0 for an
// empty value. It is the particle type of the paper's query ("count
// the elements of these partitions by type"), and the one rule the
// SSTable writer's per-partition histogram and the engine's cursor
// count both tally by.
func TypeOf(value []byte) uint8 {
	if len(value) == 0 {
		return 0
	}
	return value[0]
}

// TypeCounts tallies live cells by type. The zero value is empty; a
// bitmap of the types seen lets All and Reset touch only those, not all
// 256 buckets.
type TypeCounts struct {
	n    [256]uint64
	seen [4]uint64 // bit t set when n[t] > 0
	live uint64
}

// Add counts n more cells of type ty.
func (c *TypeCounts) Add(ty uint8, n uint64) {
	if n == 0 {
		return
	}
	c.n[ty] += n
	c.seen[ty>>6] |= 1 << (ty & 63)
	c.live += n
}

// Live returns the number of cells counted, over every type.
func (c *TypeCounts) Live() uint64 { return c.live }

// Types returns how many distinct types have a non-zero count.
func (c *TypeCounts) Types() int {
	n := 0
	for _, w := range c.seen {
		n += bits.OnesCount64(w)
	}
	return n
}

// All yields every type with a non-zero count and its count, in
// ascending type order.
func (c *TypeCounts) All() iter.Seq2[uint8, uint64] {
	return func(yield func(uint8, uint64) bool) {
		for i, w := range c.seen {
			for w != 0 {
				ty := uint8(i<<6 + bits.TrailingZeros64(w))
				if !yield(ty, c.n[ty]) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// Reset empties the tally, clearing only the buckets it used.
func (c *TypeCounts) Reset() {
	for ty := range c.All() {
		c.n[ty] = 0
	}
	c.seen, c.live = [4]uint64{}, 0
}
