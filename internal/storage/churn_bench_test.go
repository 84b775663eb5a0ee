package storage

import (
	"fmt"
	"testing"
)

// BenchmarkDeleteChurn hammers a fixed key population with
// update/delete churn and periodic flushes, the workload that made the
// old full-merge compactor rewrite the whole store per cycle. It
// reports the two numbers the leveled policy exists to bound:
//
//	write-amp       CompactionBytesOut / FlushedBytes — how many times
//	                compaction re-copies each flushed byte
//	max-tables      peak SSTable count observed — read-amp ceiling
func BenchmarkDeleteChurn(b *testing.B) {
	const (
		partitions = 64
		cksPerPart = 32
		valSize    = 256
	)
	dir := b.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1, CompactAfter: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()

	val := make([]byte, valSize)
	for i := range val {
		val[i] = byte(i)
	}
	key := func(i int) (string, []byte) {
		return fmt.Sprintf("p%03d", i%partitions), ck(i / partitions % cksPerPart)
	}

	maxTables := 0
	b.SetBytes(valSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk, c := key(i)
		if i%5 == 4 { // 20% deletes, 80% overwrites
			if err := e.Delete(pk, c); err != nil {
				b.Fatal(err)
			}
		} else if err := e.Put(pk, c, val); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			// Flush returns once the tables are in L0; max-tables counts
			// the tree after the compactions they trigger.
			if err := e.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := e.WaitIdle(); err != nil {
				b.Fatal(err)
			}
			if n := e.NumSSTables(); n > maxTables {
				maxTables = n
			}
		}
	}
	if err := e.WaitIdle(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if n := e.NumSSTables(); n > maxTables {
		maxTables = n
	}
	if flushed := e.Metrics.FlushedBytes.Load(); flushed > 0 {
		amp := float64(e.Metrics.CompactionBytesOut.Load()) / float64(flushed)
		b.ReportMetric(amp, "write-amp")
	}
	b.ReportMetric(float64(maxTables), "max-tables")
}
