package sstable

import (
	"fmt"
	"testing"
)

// The working-set benchmarks measure the read-path memory hierarchy
// end to end: a multi-megabyte compressed table read through a block
// cache that either covers the working set (hit path: RAM-speed,
// no I/O, no decompression) or is far smaller than it (miss path:
// every read pays one ReadAt plus an LZ decode). The scan benchmark
// streams the whole compressed table through one Reader.Scan.

const (
	benchCells   = 40000 // ~10MB logical at 256B values
	benchValSize = 256
)

func buildCacheBenchTable(b *testing.B) string {
	b.Helper()
	path := b.TempDir() + "/cache-bench.sst"
	w, err := NewWriter(path, WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// Several partitions so scans exercise the directory too.
	per := benchCells / 8
	for p := 0; p < 8; p++ {
		cells := repetitiveCells(per, benchValSize)
		if err := w.AddPartition(fmt.Sprintf("part%02d", p), cells); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

func benchPointReads(b *testing.B, cacheBytes int64) {
	path := buildCacheBenchTable(b)
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	c := NewBlockCache(cacheBytes)
	r.AttachCache(c)
	per := benchCells / 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A stride coprime with the key count sweeps the whole working
		// set instead of camping on one block.
		k := (i * 7919) % per
		pk := fmt.Sprintf("part%02d", (i*31)%8)
		cells, err := r.ReadSlice(pk, ck(k), ck(k+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 1 {
			b.Fatalf("read %d cells", len(cells))
		}
	}
	b.StopTimer()
	st := c.Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses)*100, "hit%")
}

// BenchmarkCacheHitPointRead: the cache covers the working set, so
// after the first sweep every point read is a slot load — no ReadAt, no
// CRC, no decompression.
func BenchmarkCacheHitPointRead(b *testing.B) {
	benchPointReads(b, 64<<20)
}

// BenchmarkCacheMissPointRead: the cache holds a few dozen blocks of a
// multi-thousand-block working set, so nearly every read takes the full
// miss path — ReadAt, CRC, LZ decode, insert-with-eviction.
func BenchmarkCacheMissPointRead(b *testing.B) {
	benchPointReads(b, 256<<10)
}

// BenchmarkScanThroughCompressed streams the whole compressed table
// through one scan — the compaction shape.
func BenchmarkScanThroughCompressed(b *testing.B) {
	path := buildCacheBenchTable(b)
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	var logical int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c SliceCursor
		if err := r.Scan(&c); err != nil {
			b.Fatal(err)
		}
		for c.Next() {
			_, value, _, _ := c.Cell()
			logical += int64(len(value))
		}
		if err := c.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(logical / int64(b.N))
}
