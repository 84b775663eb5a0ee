// Package skiplist provides an ordered byte-key map used as the memtable
// substrate. A skip list gives O(log n) insert and seek with cheap ordered
// iteration, which is what the write path (inserts in arbitrary order) and
// the read path (clustering-key range scans) both need.
//
// Concurrency: the list is single-writer, multi-reader. Mutations (Set,
// Update, Delete) must be externally serialized — the storage engine
// already does this with its per-shard write lock — but readers (Get,
// Seek, iterators, Len, Bytes) need no lock at all: every link
// and value is published with an atomic store and loaded with an atomic
// load, so a reader either sees a fully-linked node or none at all.
// This is what makes the engine's point-read fast path lock-free.
package skiplist

import (
	"bytes"
	"math/rand"
	"sync/atomic"
)

const maxHeight = 20

// List is an ordered map from []byte keys to []byte values.
type List struct {
	head   *node
	height atomic.Int32
	length atomic.Int64
	rng    *rand.Rand
	bytes  atomic.Int64 // approximate payload size, drives memtable flush
}

// node links are atomic so a concurrent reader traversing the list sees
// either the pre-insert or post-insert state of every pointer; the key
// is immutable after insert and the value pointer is swapped atomically
// on update, so a reader never observes a half-written cell.
type node struct {
	key   []byte
	value atomic.Pointer[[]byte]
	next  []atomic.Pointer[node]
}

func (n *node) loadValue() []byte {
	if v := n.value.Load(); v != nil {
		return *v
	}
	return nil
}

// New creates an empty list. Tower heights are drawn from the given seed
// so tests are reproducible.
func New(seed int64) *List {
	l := &List{
		head: &node{next: make([]atomic.Pointer[node], maxHeight)},
		rng:  rand.New(rand.NewSource(seed)),
	}
	l.height.Store(1)
	return l
}

// Len returns the number of entries.
func (l *List) Len() int { return int(l.length.Load()) }

// Bytes returns the approximate payload size (keys + values) in bytes.
func (l *List) Bytes() int64 { return l.bytes.Load() }

func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// findGE locates the first node with key >= target. prev, when non-nil,
// receives the predecessor at every level (for insertion).
func (l *List) findGE(key []byte, prev []*node) *node {
	x := l.head
	for level := int(l.height.Load()) - 1; level >= 0; level-- {
		for {
			nx := x.next[level].Load()
			if nx == nil || bytes.Compare(nx.key, key) >= 0 {
				break
			}
			x = nx
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0].Load()
}

// Set inserts or replaces the value for key. The key and value slices are
// stored as given; callers that reuse buffers must copy first.
func (l *List) Set(key, value []byte) {
	l.Update(key, func([]byte, bool) ([]byte, bool) { return value, true })
}

// Update inserts or replaces the value for key through a decision
// callback, finding the position once: f receives the current value (nil,
// false when the key is absent) and returns the value to store plus
// whether to store it at all. The memtable uses it for last-write-wins
// puts — compare versions and keep the newer — without paying a second
// traversal for the read. It reports whether a new key was inserted (as
// opposed to an existing one updated or left alone); the engine's
// partition index uses that as its invalidation signal.
func (l *List) Update(key []byte, f func(old []byte, exists bool) ([]byte, bool)) bool {
	prev := make([]*node, maxHeight)
	for i := range prev {
		prev[i] = l.head
	}
	if n := l.findGE(key, prev); n != nil && bytes.Equal(n.key, key) {
		old := n.loadValue()
		value, store := f(old, true)
		if store {
			l.bytes.Add(int64(len(value) - len(old)))
			n.value.Store(&value)
		}
		return false
	}
	value, store := f(nil, false)
	if !store {
		return false
	}
	h := l.randomHeight()
	if h > int(l.height.Load()) {
		l.height.Store(int32(h))
	}
	n := &node{key: key, next: make([]atomic.Pointer[node], h)}
	n.value.Store(&value)
	// Wire the new node's own links before publishing it: bottom-up, so
	// a reader that finds n at any level can always continue at every
	// lower level. The single-writer discipline means prev links cannot
	// change between the loads and the stores.
	for level := 0; level < h; level++ {
		n.next[level].Store(prev[level].next[level].Load())
	}
	for level := 0; level < h; level++ {
		prev[level].next[level].Store(n)
	}
	l.length.Add(1)
	l.bytes.Add(int64(len(key) + len(value)))
	return true
}

// Get returns the value stored for key, or nil and false.
func (l *List) Get(key []byte) ([]byte, bool) {
	n := l.findGE(key, nil)
	if n != nil && bytes.Equal(n.key, key) {
		return n.loadValue(), true
	}
	return nil, false
}

// Delete removes key and reports whether it was present. Like every
// mutation it requires external serialization; a concurrent reader
// already past the unlinked node keeps traversing safely because the
// node's own links are left intact.
func (l *List) Delete(key []byte) bool {
	prev := make([]*node, maxHeight)
	for i := range prev {
		prev[i] = l.head
	}
	n := l.findGE(key, prev)
	if n == nil || !bytes.Equal(n.key, key) {
		return false
	}
	for level := 0; level < len(n.next); level++ {
		if prev[level].next[level].Load() == n {
			prev[level].next[level].Store(n.next[level].Load())
		}
	}
	l.length.Add(-1)
	l.bytes.Add(-int64(len(n.key) + len(n.loadValue())))
	return true
}

// Iterator walks entries in ascending key order. It is safe to use
// concurrently with the single writer: cells inserted behind the
// iterator's position are skipped, cells inserted ahead are seen.
type Iterator struct {
	n *node
}

// Seek positions an iterator at the first entry with key >= target. An
// Iterator is one pointer and is returned by value, so a read that
// keeps it inside a reused cursor allocates nothing.
func (l *List) Seek(key []byte) Iterator {
	return Iterator{n: l.findGE(key, nil)}
}

// First positions an iterator at the smallest entry.
func (l *List) First() Iterator {
	return Iterator{n: l.head.next[0].Load()}
}

// Valid reports whether the iterator points at an entry.
func (it *Iterator) Valid() bool { return it.n != nil }

// Key returns the current key. Only valid when Valid() is true.
func (it *Iterator) Key() []byte { return it.n.key }

// Value returns the current value. Only valid when Valid() is true.
func (it *Iterator) Value() []byte { return it.n.loadValue() }

// Next advances to the following entry.
func (it *Iterator) Next() { it.n = it.n.next[0].Load() }
