package storage

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkEngineMixedParallel measures concurrent Get+Put throughput
// (3 reads per write) on one engine — the lock-contention profile the
// sharded design exists for. shards=1 reproduces the old single-lock
// engine's locking discipline; the spread between the sub-benchmarks is
// the striping win and it grows with GOMAXPROCS (on one core the two
// mostly tie: a single CPU does the same total work either way). Keys
// are precomputed and reads stay memtable-resident so the lock, not
// fmt or the SSTable decoder, dominates the measurement; the flush
// threshold still lets background flushes fire under write pressure.
func BenchmarkEngineMixedParallel(b *testing.B) {
	const parts = 64
	pks := make([]string, parts)
	for p := range pks {
		pks[p] = fmt.Sprintf("part-%02d", p)
	}
	cks := make([][]byte, 4096)
	for i := range cks {
		cks[i] = []byte(fmt.Sprintf("ck%06d", i))
	}
	val := make([]byte, 128)

	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e, err := Open(Options{
				Dir:            b.TempDir(),
				DisableWAL:     true,
				Shards:         shards,
				FlushThreshold: 8 << 20,
				CompactAfter:   64, // keep compaction out of the measurement
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			for _, pk := range pks {
				for i := 0; i < 512; i++ {
					if err := e.Put(pk, cks[i], val); err != nil {
						b.Fatal(err)
					}
				}
			}
			var goroutine atomic.Int64
			var benchErr atomic.Pointer[error] // Fatal must not run on a RunParallel worker
			b.SetParallelism(4)                // ≥4 concurrent clients even on small GOMAXPROCS
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Distinct per-goroutine offsets keep writers from
				// colliding on one partition while every partition stays
				// shared with the readers.
				i := int(goroutine.Add(1)) * 7919
				for pb.Next() {
					pk := pks[i%parts]
					var err error
					if i%4 == 0 {
						err = e.Put(pk, cks[i%len(cks)], val)
					} else {
						_, _, err = e.Get(pk, cks[i%512])
					}
					if err != nil {
						benchErr.CompareAndSwap(nil, &err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			if errp := benchErr.Load(); errp != nil {
				b.Fatal(*errp)
			}
			if err := e.WaitIdle(); err != nil {
				b.Fatal(err)
			}
			opsPerSec := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(opsPerSec, "ops/sec")
		})
	}
}

// BenchmarkEngineMixedDelete adds deletes to the mix — 2 Get : 1 Put :
// 1 Delete — measuring the tombstone write path and the versioned merge
// under read/write/delete interleaving (go test -run=NONE
// -bench=EngineMixedDelete -benchtime=0.5s ./internal/storage/). Deletes
// hit recently written clustering keys, so tombstones actually mask
// live cells instead of landing on empty addresses.
func BenchmarkEngineMixedDelete(b *testing.B) {
	const parts = 64
	pks := make([]string, parts)
	for p := range pks {
		pks[p] = fmt.Sprintf("part-%02d", p)
	}
	cks := make([][]byte, 4096)
	for i := range cks {
		cks[i] = []byte(fmt.Sprintf("ck%06d", i))
	}
	val := make([]byte, 128)

	e, err := Open(Options{
		Dir:            b.TempDir(),
		DisableWAL:     true,
		FlushThreshold: 8 << 20,
		CompactAfter:   64,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for _, pk := range pks {
		for i := 0; i < 512; i++ {
			if err := e.Put(pk, cks[i], val); err != nil {
				b.Fatal(err)
			}
		}
	}
	var goroutine atomic.Int64
	var benchErr atomic.Pointer[error]
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(goroutine.Add(1)) * 7919
		for pb.Next() {
			pk := pks[i%parts]
			var err error
			switch i % 4 {
			case 0:
				err = e.Put(pk, cks[i%len(cks)], val)
			case 1:
				err = e.Delete(pk, cks[i%len(cks)])
			default:
				_, _, err = e.Get(pk, cks[i%512])
			}
			if err != nil {
				benchErr.CompareAndSwap(nil, &err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	if errp := benchErr.Load(); errp != nil {
		b.Fatal(*errp)
	}
	if err := e.WaitIdle(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}
