package storage

import (
	"fmt"
	"testing"
)

// BenchmarkGrowingIngest writes unique keys with periodic flushes — the
// growing-store workload where full-merge compaction is quadratic.
func BenchmarkGrowingIngest(b *testing.B) {
	dir := b.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1, CompactAfter: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	val := make([]byte, 256)
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk := fmt.Sprintf("p%05d", i/64)
		if err := e.Put(pk, ck(i%64), val); err != nil {
			b.Fatal(err)
		}
		if i%8192 == 8191 {
			// Each step pays for the compactions its flush triggers.
			if err := e.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := e.WaitIdle(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.WaitIdle(); err != nil {
		b.Fatal(err)
	}
}
