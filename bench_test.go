package scalekv

// One benchmark per figure of the paper's evaluation, plus the ablation
// benches DESIGN.md calls out. Run all of them with
//
//	go test -bench=. -benchmem
//
// Figure benches report the experiment's headline quantity as a custom
// metric so `go test -bench` output doubles as the reproduction record.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalekv/internal/cluster"
	"scalekv/internal/figures"
	"scalekv/internal/master"
	"scalekv/internal/storage"
	"scalekv/internal/wire"
)

// BenchmarkFig1DataModelScalability regenerates Figure 1: the three
// data models on 1-16 nodes under the slow master.
func BenchmarkFig1DataModelScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := figures.Fig1(int64(i))
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig2OpsPerNode regenerates Figure 2: operations per node
// versus sub-query time for the coarse workload on 16 nodes.
func BenchmarkFig2OpsPerNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig2(int64(i))
	}
}

// BenchmarkFig3MaxLoadDensity regenerates Figure 3: the brute-force
// probability density of the most loaded node (100 keys, 16 nodes).
func BenchmarkFig3MaxLoadDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig3(int64(i), 100000)
	}
}

// BenchmarkFig4StageProfiles regenerates Figure 4: stage profiles of
// medium- versus fine-grained under the slow master.
func BenchmarkFig4StageProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig4(int64(i))
	}
}

// BenchmarkFig5OptimizedMaster regenerates Figure 5: the scaling sweep
// after the serialization fix.
func BenchmarkFig5OptimizedMaster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig5(int64(i))
	}
}

// BenchmarkFig6ResponseVsRowSize regenerates Figure 6 on the real
// storage engine (stratified row sizes, piecewise fit around the 64KB
// column-index break).
func BenchmarkFig6ResponseVsRowSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		if _, err := figures.Fig6(figures.Fig6Options{
			Dir: dir, MaxRow: 6000, Strata: 10, PerStratum: 3, Reps: 2, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ParallelSpeedup regenerates Figure 7 on the real engine:
// best parallel speed-up per row-size stratum with the log refit.
func BenchmarkFig7ParallelSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		if _, err := figures.Fig7(figures.Fig7Options{
			Dir: dir, MaxRow: 4000, Strata: 5, PerStratum: 4, TaskFactor: 4, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8ModelValidation regenerates Figure 8: simulated versus
// predicted times (±GC correction).
func BenchmarkFig8ModelValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig8(int64(i))
	}
}

// BenchmarkFig9Optimizer regenerates Figure 9: optimal partition count
// per cluster size.
func BenchmarkFig9Optimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig9()
	}
}

// BenchmarkFig10LossDecomposition regenerates Figure 10: loss versus
// ideal scalability split into imbalance and efficiency.
func BenchmarkFig10LossDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig10()
	}
}

// BenchmarkFig11MasterLimit regenerates Figure 11: the single-master
// crossover near 70 nodes.
func BenchmarkFig11MasterLimit(b *testing.B) {
	var crossover int
	for i := 0; i < b.N; i++ {
		tab := figures.Fig11()
		crossover = len(tab.Rows)
	}
	_ = crossover
}

// --- Section V-B text numbers ------------------------------------------------

// BenchmarkCodecSlow measures the Java-like reflective codec
// (paper: 150 µs/message on the JVM).
func BenchmarkCodecSlow(b *testing.B) { benchCodec(b, wire.SlowCodec{}) }

// BenchmarkCodecFast measures the Kryo-like registered codec
// (paper: 19 µs/message).
func BenchmarkCodecFast(b *testing.B) { benchCodec(b, wire.FastCodec{}) }

func benchCodec(b *testing.B, c wire.Codec) {
	msg := &wire.CountRequest{QueryID: 7, Seq: 1234, PK: "cube-L4-3-7-1"}
	b.ReportAllocs()
	var bytes int
	for i := 0; i < b.N; i++ {
		data, err := c.Marshal(msg)
		if err != nil {
			b.Fatal(err)
		}
		bytes = len(data)
		if _, err := c.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bytes), "bytes/msg")
}

// --- Ablations (DESIGN.md section 5) -----------------------------------------

// BenchmarkColumnIndexOn/Off ablates the Figure 6 mechanism: a deep
// slice of a large partition with and without the column index.
func BenchmarkColumnIndexOn(b *testing.B)  { benchColumnIndex(b, 0) }
func BenchmarkColumnIndexOff(b *testing.B) { benchColumnIndex(b, -1) }

func benchColumnIndex(b *testing.B, columnIndexSize int) {
	e, err := storage.Open(storage.Options{
		Dir: b.TempDir(), DisableWAL: true, FlushThreshold: 1 << 30,
		ColumnIndexSize: columnIndexSize,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	val := make([]byte, 38)
	for c := 0; c < 20000; c++ {
		e.Put("big", []byte(fmt.Sprintf("%06d", c)), val)
	}
	e.Flush()
	from, to := []byte("019000"), []byte("019100")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := e.ScanPartition("big", from, to)
		if err != nil || len(cells) != 100 {
			b.Fatalf("bad slice: %d cells, %v", len(cells), err)
		}
	}
}

// BenchmarkPlacementSingleChoice/TwoChoice ablate the related-work
// placement policies via the simulated prototype: the reported metric is
// the measured imbalance, the quantity Formula 1 bounds.
func BenchmarkPlacementSingleChoice(b *testing.B) {
	benchPlacement(b, master.PlacementSingleChoice)
}

// BenchmarkPlacementTwoChoice is the power-of-two-choices counterpart.
func BenchmarkPlacementTwoChoice(b *testing.B) {
	benchPlacement(b, master.PlacementTwoChoice)
}

func benchPlacement(b *testing.B, p master.Placement) {
	var imb float64
	for i := 0; i < b.N; i++ {
		res := master.Run(master.Config{
			Nodes: 16, Keys: 100, RowSize: 1000, Seed: int64(i), Placement: p,
		})
		imb += res.Imbalance()
	}
	b.ReportMetric(imb/float64(b.N), "imbalance")
}

// --- Bulk-write pipeline -----------------------------------------------------

// BenchmarkIngestSinglePut is the baseline the paper's master pays: one
// synchronous RPC per cell per replica.
func BenchmarkIngestSinglePut(b *testing.B) {
	benchIngest(b, func(c *cluster.Client, entries []Entry) error {
		for _, e := range entries {
			if err := c.Put(e.PK, e.CK, e.Value); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkIngestBatched64 is the batched bulk-write path at the
// default batch size: entries grouped per destination node, batch
// frames pipelined with a bounded async window, group-committed
// node-side. The acceptance bar is ≥2x over the single-put loop.
func BenchmarkIngestBatched64(b *testing.B) {
	benchIngest(b, func(c *cluster.Client, entries []Entry) error {
		bt := c.NewBatcher(cluster.BatcherOptions{MaxEntries: 64})
		for _, e := range entries {
			if err := bt.Put(e.PK, e.CK, e.Value); err != nil {
				return err
			}
		}
		return bt.Close()
	})
}

func benchIngest(b *testing.B, load func(*cluster.Client, []Entry) error) {
	cl, err := cluster.StartLocal(cluster.LocalOptions{
		Nodes: 4, Storage: storage.Options{DisableWAL: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	entries := make([]Entry, 0, 4096)
	for p := 0; p < 64; p++ {
		pk := fmt.Sprintf("ingest-%04d", p)
		for e := 0; e < 64; e++ {
			entries = append(entries, Entry{
				PK: pk, CK: []byte(fmt.Sprintf("%06d", e)), Value: []byte{byte(e % 4), 1, 2, 3},
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := load(cl.Client(), entries); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cellsPerSec := float64(len(entries)) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(cellsPerSec, "cells/sec")
}

// BenchmarkClusterMixedRW drives concurrent Get+Put traffic (3 reads
// per write) against a 4-node cluster at replication factor 2 — the
// workload where the nodes' sharded engines have to absorb parallel
// reads and replicated writes at once. Lock-contention regressions in
// the engine's hot path show up here before they show up in prod.
func BenchmarkClusterMixedRW(b *testing.B) {
	cl, err := cluster.StartLocal(cluster.LocalOptions{
		Nodes: 4, ReplicationFactor: 2,
		Storage: storage.Options{DisableWAL: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	c := cl.Client()
	const parts = 32
	val := make([]byte, 64)
	for p := 0; p < parts; p++ {
		pk := fmt.Sprintf("mixed-%03d", p)
		for i := 0; i < 64; i++ {
			if err := c.Put(pk, []byte(fmt.Sprintf("%06d", i)), val); err != nil {
				b.Fatal(err)
			}
		}
	}
	var goroutine atomic.Int64
	var benchErr atomic.Pointer[error] // Fatal must not run on a RunParallel worker
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(goroutine.Add(1)) * 7919
		for pb.Next() {
			pk := fmt.Sprintf("mixed-%03d", i%parts)
			ck := []byte(fmt.Sprintf("%06d", i%64))
			var err error
			if i%4 == 0 {
				err = c.Put(pk, ck, val)
			} else {
				_, _, err = c.Get(pk, ck)
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
	opsPerSec := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(opsPerSec, "ops/sec")
}

// BenchmarkRebalance measures the elastic topology end to end: a
// 3-node cluster keeps ingesting and reading while a fourth node
// joins. One iteration is one full join (preload, live traffic,
// AddNode, verification-free teardown); the metrics report the
// moved-cell count, the epoch-flip pause (the only client-visible
// interruption) and the operation throughput sustained alongside the
// join. Run: go test -run=NONE -bench=Rebalance -benchtime=3x .
func BenchmarkRebalance(b *testing.B) {
	var lastReport *cluster.RebalanceReport
	var lastOps int64
	var lastJoin time.Duration
	for i := 0; i < b.N; i++ {
		cl, err := cluster.StartLocal(cluster.LocalOptions{
			Nodes:   3,
			Storage: storage.Options{DisableWAL: true, FlushThreshold: 256 << 10},
		})
		if err != nil {
			b.Fatal(err)
		}
		c := cl.Client()
		key := func(i int) string { return fmt.Sprintf("cell-%06d", i) }
		const preload, liveWrites = 6000, 2000
		bt := c.NewBatcher(cluster.BatcherOptions{MaxEntries: 128})
		for i := 0; i < preload; i++ {
			if err := bt.Put(key(i), []byte("ck"), []byte(key(i))); err != nil {
				b.Fatal(err)
			}
		}
		if err := bt.Close(); err != nil {
			b.Fatal(err)
		}

		var stop atomic.Bool
		var ops atomic.Int64
		var trafficErr atomic.Pointer[error]
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := preload; i < preload+liveWrites && !stop.Load(); i++ {
				if err := c.Put(key(i), []byte("ck"), []byte(key(i))); err != nil {
					trafficErr.CompareAndSwap(nil, &err)
					return
				}
				ops.Add(1)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i = (i + 13) % preload {
				if _, _, err := c.Get(key(i), []byte("ck")); err != nil {
					trafficErr.CompareAndSwap(nil, &err)
					return
				}
				ops.Add(1)
			}
		}()
		joinStart := time.Now()
		_, report, err := cl.AddNode()
		joinDur := time.Since(joinStart)
		stop.Store(true)
		wg.Wait()
		if err != nil {
			b.Fatal(err)
		}
		if errp := trafficErr.Load(); errp != nil {
			b.Fatalf("traffic failed during join: %v", *errp)
		}
		lastReport, lastOps, lastJoin = report, ops.Load(), joinDur
		cl.Close()
	}
	if lastReport != nil {
		b.ReportMetric(float64(lastReport.CellsStreamed), "cells_moved")
		b.ReportMetric(float64(lastReport.FlipDuration.Microseconds()), "flip_pause_us")
		b.ReportMetric(float64(lastOps)/lastJoin.Seconds(), "live_ops/sec")
	}
}

// BenchmarkRepair measures the anti-entropy pass end to end on a
// 4-node rf=2 cluster: one iteration seeds a dataset (every cell of
// which carries per-replica version skew, because each replica stamps
// fan-out writes independently — exactly what repair exists to settle),
// plants pre-stamped winners on single replicas for a slice of keys
// (the state dropped dual-write forwards leave), runs one
// Cluster.Repair, then runs a second pass over the now-converged
// cluster. The metrics report cells reconciled per second of repair
// wall time and the cost of the digest-only pass that ships nothing.
// Run: go test -run=NONE -bench=Repair -benchtime=3x .
func BenchmarkRepair(b *testing.B) {
	const (
		preload  = 4000
		diverged = 800
		rf       = 2
	)
	var lastShipped int64
	var lastRepair, lastConverged time.Duration
	for i := 0; i < b.N; i++ {
		cl, err := cluster.StartLocal(cluster.LocalOptions{
			Nodes:             4,
			ReplicationFactor: rf,
			Storage:           storage.Options{DisableWAL: true, FlushThreshold: 256 << 10},
		})
		if err != nil {
			b.Fatal(err)
		}
		c := cl.Client()
		key := func(i int) string { return fmt.Sprintf("cell-%06d", i) }
		bt := c.NewBatcher(cluster.BatcherOptions{MaxEntries: 128})
		for i := 0; i < preload; i++ {
			if err := bt.Put(key(i), []byte("ck"), []byte(key(i))); err != nil {
				b.Fatal(err)
			}
		}
		if err := bt.Close(); err != nil {
			b.Fatal(err)
		}
		// Plant a winner on one replica of each diverged key; the other
		// replica never sees it until repair ships it over.
		topo := cl.Topology()
		engines := make(map[NodeID]*storage.Engine)
		for _, n := range cl.Nodes {
			engines[n.ID()] = n.Engine()
		}
		for i := 0; i < diverged; i++ {
			pk := key(i)
			target := topo.Replicas(pk, rf)[i%rf]
			if err := engines[target].PutBatch([]Entry{{
				PK: pk, CK: []byte("ck"), Value: []byte("winner"),
				Ver: Version{Seq: uint64(1)<<30 + uint64(i), Node: uint16(target)},
			}}); err != nil {
				b.Fatal(err)
			}
		}

		start := time.Now()
		rep, err := cl.Repair(rf)
		if err != nil {
			b.Fatal(err)
		}
		repairDur := time.Since(start)
		if rep.CellsShipped == 0 {
			b.Fatal("repair shipped nothing over a diverged cluster")
		}
		start = time.Now()
		rep2, err := cl.Repair(rf)
		if err != nil {
			b.Fatal(err)
		}
		convergedDur := time.Since(start)
		if rep2.CellsShipped != 0 {
			b.Fatalf("converged pass shipped %d cells", rep2.CellsShipped)
		}
		lastShipped, lastRepair, lastConverged = rep.CellsShipped, repairDur, convergedDur
		cl.Close()
	}
	b.ReportMetric(float64(lastShipped), "cells_shipped")
	b.ReportMetric(float64(lastShipped)/lastRepair.Seconds(), "cells_reconciled/sec")
	b.ReportMetric(float64(lastConverged.Milliseconds()), "converged_digest_ms")
}

// BenchmarkVerboseMaster ablates the Section V-B per-message extras on
// the real cluster.
func BenchmarkVerboseMaster(b *testing.B) { benchRealMaster(b, true) }

// BenchmarkPlainMaster is the optimized-master counterpart.
func BenchmarkPlainMaster(b *testing.B) { benchRealMaster(b, false) }

func benchRealMaster(b *testing.B, verbose bool) {
	cl, err := cluster.StartLocal(cluster.LocalOptions{
		Nodes: 4, Storage: storage.Options{DisableWAL: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	c := cl.Client()
	pks := make([]string, 200)
	for p := range pks {
		pk := fmt.Sprintf("cube-%04d", p)
		pks[p] = pk
		for e := 0; e < 20; e++ {
			c.Put(pk, []byte(fmt.Sprintf("%04d", e)), []byte{byte(e % 4)})
		}
	}
	cl.FlushAll()
	for _, n := range cl.Nodes { // time the settled tree, not its compactions
		n.Engine().WaitIdle()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CountAll(pks, cluster.MasterOptions{Verbose: verbose}); err != nil {
			b.Fatal(err)
		}
	}
}
